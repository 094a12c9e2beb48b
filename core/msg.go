// Package core implements the PRESS policy layer: the locality- and
// load-aware request distribution algorithm, the strategies for
// disseminating load information, the intra-cluster message taxonomy,
// and window-based flow control. The package is transport-agnostic: the
// discrete-event simulator (internal/cluster) and the real server
// (internal/server) both drive it.
package core

import "fmt"

// MsgType classifies intra-cluster messages into the five types of
// Section 2.2.
type MsgType int

const (
	// MsgLoad carries a node's number of open connections.
	MsgLoad MsgType = iota
	// MsgFlow carries window-based flow control credits.
	MsgFlow
	// MsgForward forwards an HTTP request (a file name) to the node
	// chosen to service it.
	MsgForward
	// MsgCaching announces that a node started or stopped caching a
	// file.
	MsgCaching
	// MsgFile carries file data (and, for RMW transfers, the metadata
	// message pointing into the data buffer).
	MsgFile
	// MsgDirLookup asks a sharded directory's shard owner for a file's
	// cacher set (one directed message instead of holding a replica).
	MsgDirLookup
	// MsgDirReply answers a MsgDirLookup with the cacher set and the
	// first-request verdict.
	MsgDirReply
	// MsgDirInval tells a node that its cached read of a directory entry
	// is stale; the entry is re-fetched on next use.
	MsgDirInval
	// MsgReplicate asks a peer to pull a replica of a hot file from the
	// sender over the ordinary forward/file-transfer path.
	MsgReplicate
	// MsgDirSync carries a batch of caching announcements (a segment of
	// the sender's cached-file list) replayed at re-integration.
	MsgDirSync
	// MsgJoin carries the membership handshake of a multi-process
	// cluster: a versioned hello (node id, cluster size, epoch,
	// transport, strategy) sent as the first frame of a mesh connection,
	// and its acknowledgement or typed rejection.
	MsgJoin
	// MsgLeave announces an orderly departure: the sender is draining
	// and will exit, so peers should route around it immediately instead
	// of waiting for the silence thresholds.
	MsgLeave
	// NumMsgTypes is the number of message types.
	NumMsgTypes
)

// String returns the row label used in the paper's tables.
func (t MsgType) String() string {
	switch t {
	case MsgLoad:
		return "Load"
	case MsgFlow:
		return "Flow"
	case MsgForward:
		return "Forward"
	case MsgCaching:
		return "Caching"
	case MsgFile:
		return "File"
	case MsgDirLookup:
		return "DirLookup"
	case MsgDirReply:
		return "DirReply"
	case MsgDirInval:
		return "DirInval"
	case MsgReplicate:
		return "Replicate"
	case MsgDirSync:
		return "DirSync"
	case MsgJoin:
		return "Join"
	case MsgLeave:
		return "Leave"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// Wire sizes of the control messages, matching the average message
// sizes of the paper's Tables 2 and 4.
const (
	// LoadMsgBytes is an explicit load broadcast (a connection count).
	LoadMsgBytes = 16
	// FlowMsgBytes is a flow-control credit message.
	FlowMsgBytes = 13
	// ForwardMsgBytes is a request-forwarding message (a file name).
	ForwardMsgBytes = 53
	// CachingMsgBytes is a caching-information broadcast (a file name).
	CachingMsgBytes = 59
	// FileMetaBytes is the metadata message of an RMW file transfer
	// (a pointer into the large circular data buffer).
	FileMetaBytes = 60
	// PiggybackBytes is the load information appended to every message
	// under the piggy-backing strategy.
	PiggybackBytes = 4
	// DirLookupBytes is a directed directory lookup (a file name), same
	// shape as a forward.
	DirLookupBytes = 53
	// DirReplyBytes is a directory reply: the lookup echo plus a 32-byte
	// cacher set and the first-request verdict.
	DirReplyBytes = 86
	// DirInvalBytes is a directory invalidation (a file name plus the
	// changed node).
	DirInvalBytes = 57
	// ReplicateMsgBytes is a replica-pull request (a file name), same
	// shape as a forward.
	ReplicateMsgBytes = 53
	// JoinMsgBytes is a membership join hello or acknowledgement (the
	// versioned handshake payload).
	JoinMsgBytes = 64
	// LeaveMsgBytes is an orderly-departure announcement (an epoch).
	LeaveMsgBytes = 42
)

// MsgStats accumulates message counts and byte volumes per type, the
// accounting behind Tables 2 and 4.
type MsgStats struct {
	Count [NumMsgTypes]int64
	Bytes [NumMsgTypes]int64
}

// Add records one message of the given type and wire size.
func (m *MsgStats) Add(t MsgType, bytes int64) {
	m.Count[t]++
	m.Bytes[t] += bytes
}

// Merge adds another accumulator into this one.
func (m *MsgStats) Merge(o *MsgStats) {
	for t := MsgType(0); t < NumMsgTypes; t++ {
		m.Count[t] += o.Count[t]
		m.Bytes[t] += o.Bytes[t]
	}
}

// Total returns the overall message count and byte volume.
func (m *MsgStats) Total() (count, bytes int64) {
	for t := MsgType(0); t < NumMsgTypes; t++ {
		count += m.Count[t]
		bytes += m.Bytes[t]
	}
	return count, bytes
}

// AvgSize returns the average wire size of one message type, 0 if none
// were sent.
func (m *MsgStats) AvgSize(t MsgType) float64 {
	if m.Count[t] == 0 {
		return 0
	}
	return float64(m.Bytes[t]) / float64(m.Count[t])
}
