// Package server implements PRESS itself: a runnable, cluster-based,
// locality-conscious static-content WWW server (Section 2.2). An
// in-process cluster of N nodes serves real HTTP over loopback TCP
// while distributing requests internally over either kernel TCP or the
// software VIA of internal/via — with regular messages, remote memory
// writes into circular buffers, and zero-copy file transfers, per the
// version matrix of Table 3.
//
// Each node mirrors the paper's architecture (Figure 2): an
// event-driven main loop that never blocks, helper goroutines for disk
// access and for sending/receiving intra-cluster messages, per-node LRU
// caching with cluster-wide caching-information broadcasts, piggy-backed
// load dissemination, and window-based flow control on VIA channels.
package server

import (
	"encoding/binary"
	"fmt"
	"time"

	"press/cache"
	"press/core"
	"press/tracing"
	"press/via"
)

// Message is one intra-cluster message (the five types of Section 2.2).
type Message struct {
	// Type classifies the message.
	Type core.MsgType
	// From is the sending node.
	From int
	// Load is the sender's open-connection count: explicit for MsgLoad,
	// piggy-backed on everything else under the PB strategy (-1 when
	// absent).
	Load int32
	// ReqID correlates a forwarded request with its file reply.
	ReqID uint64
	// Name is the file name (forward and caching messages).
	Name string
	// Cached is true for caching-insert, false for caching-evict.
	Cached bool
	// Credits grants flow-control credits (flow messages).
	Credits int32
	// Data is a chunk of file content (file messages).
	Data []byte
	// Offset and Total place the chunk within the reassembled file.
	Offset uint32
	Total  uint32

	// TraceID and ParentSpan propagate the request-tracing context
	// across nodes. Zero TraceID (the unsampled/untraced case) encodes
	// to the exact pre-tracing wire format; a non-zero TraceID sets the
	// trace flag bit on the type byte and appends a 16-byte extension
	// after the fixed header, which pre-tracing decoders reject cleanly
	// as an invalid type.
	TraceID    tracing.TraceID
	ParentSpan tracing.SpanID

	// DirSet carries a caching-directory cacher set (sharded-directory
	// replies); DirSetValid distinguishes an empty-but-authoritative set
	// from no set at all. A valid set sets the dir flag bit on the type
	// byte and appends a 32-byte extension after the deadline extension
	// (if any); decoders predating the sharded directory reject the flag
	// cleanly as an invalid type.
	DirSet      cache.NodeSet
	DirSetValid bool

	// Budget propagates the request deadline across nodes: the time the
	// originating node still had left when it handed the forward to its
	// send thread. Zero (no deadline) encodes to the exact pre-overload
	// wire format; a positive budget sets the deadline flag bit on the
	// type byte and appends an 8-byte extension after the trace
	// extension (if any), which earlier decoders reject cleanly as an
	// invalid type. The receiver anchors its local deadline at
	// arrival + Budget and drops the work unserved once it passes.
	Budget time.Duration

	// deadline is the sender-local absolute form of the budget: the
	// send thread stamps Budget = time.Until(deadline) at the transport
	// hand-off, so time spent in the send queue erodes the budget
	// rather than being silently forgiven. Never on the wire.
	deadline time.Time

	// SrcRegion optionally points at registered memory already holding
	// Data (zero-copy transmit, version 5 over VIA); it never goes on
	// the wire and transports without zero-copy support ignore it.
	SrcRegion *via.MemoryRegion
	SrcOffset int

	// buf is the receive buffer Data points into, set only on a received
	// MsgFile: the message owns it, and handleFileChunk passes it on or
	// gives it back. Never on the wire.
	buf *recvBuf
}

const msgHeaderLen = 1 + 2 + 4 + 8 + 1 + 4 + 4 + 4 + 2 + 4

// msgTraceFlag on the type byte signals the tracing extension: TraceID
// and ParentSpan, appended right after the fixed header. The flag sits
// above every valid core.MsgType value, so a decoder unaware of it sees
// an invalid type and fails cleanly rather than misparsing.
const msgTraceFlag = 0x80

// msgDeadlineFlag on the type byte signals the deadline extension: the
// remaining request budget in nanoseconds, appended after the tracing
// extension (when both are present). Like the trace flag it sits above
// every valid core.MsgType value, so pre-deadline decoders fail
// cleanly on it.
const msgDeadlineFlag = 0x40

// msgDirFlag on the type byte signals the directory-set extension: a
// 32-byte cacher NodeSet, appended after the deadline extension (when
// present). Like the other flags it sits above every valid core.MsgType
// value, so earlier decoders fail cleanly on it.
const msgDirFlag = 0x20

// msgFlagMask covers every wire-extension flag bit on the type byte.
const msgFlagMask = msgTraceFlag | msgDeadlineFlag | msgDirFlag

// msgTraceExtLen is the wire size of the tracing extension.
const msgTraceExtLen = 8 + 8

// msgDeadlineExtLen is the wire size of the deadline extension.
const msgDeadlineExtLen = 8

// msgDirExtLen is the wire size of the directory-set extension.
const msgDirExtLen = 32

// maxNameLen bounds file names on the wire.
const maxNameLen = 1 << 15

// EncodedLen returns the wire size of the message.
func (m *Message) EncodedLen() int {
	n := msgHeaderLen + len(m.Name) + len(m.Data)
	if m.TraceID != 0 {
		n += msgTraceExtLen
	}
	if m.Budget > 0 {
		n += msgDeadlineExtLen
	}
	if m.DirSetValid {
		n += msgDirExtLen
	}
	return n
}

// Encode appends the wire form of m to dst and returns the result.
func (m *Message) Encode(dst []byte) ([]byte, error) {
	if len(m.Name) > maxNameLen {
		return nil, fmt.Errorf("server: file name of %d bytes too long", len(m.Name))
	}
	if m.Type < 0 || m.Type >= core.NumMsgTypes {
		return nil, fmt.Errorf("server: invalid message type %d", m.Type)
	}
	if m.Budget < 0 {
		return nil, fmt.Errorf("server: negative deadline budget %v", m.Budget)
	}
	var h [msgHeaderLen]byte
	h[0] = byte(m.Type)
	if m.TraceID != 0 {
		h[0] |= msgTraceFlag
	}
	if m.Budget > 0 {
		h[0] |= msgDeadlineFlag
	}
	if m.DirSetValid {
		h[0] |= msgDirFlag
	}
	binary.LittleEndian.PutUint16(h[1:], uint16(m.From))
	binary.LittleEndian.PutUint32(h[3:], uint32(m.Load))
	binary.LittleEndian.PutUint64(h[7:], m.ReqID)
	if m.Cached {
		h[15] = 1
	}
	binary.LittleEndian.PutUint32(h[16:], uint32(m.Credits))
	binary.LittleEndian.PutUint32(h[20:], m.Offset)
	binary.LittleEndian.PutUint32(h[24:], m.Total)
	binary.LittleEndian.PutUint16(h[28:], uint16(len(m.Name)))
	binary.LittleEndian.PutUint32(h[30:], uint32(len(m.Data)))
	dst = append(dst, h[:]...)
	if m.TraceID != 0 {
		var ext [msgTraceExtLen]byte
		binary.LittleEndian.PutUint64(ext[0:], uint64(m.TraceID))
		binary.LittleEndian.PutUint64(ext[8:], uint64(m.ParentSpan))
		dst = append(dst, ext[:]...)
	}
	if m.Budget > 0 {
		var ext [msgDeadlineExtLen]byte
		binary.LittleEndian.PutUint64(ext[:], uint64(m.Budget))
		dst = append(dst, ext[:]...)
	}
	if m.DirSetValid {
		var ext [msgDirExtLen]byte
		for i, w := range m.DirSet {
			binary.LittleEndian.PutUint64(ext[i*8:], w)
		}
		dst = append(dst, ext[:]...)
	}
	dst = append(dst, m.Name...)
	dst = append(dst, m.Data...)
	return dst, nil
}

// decodeFrame parses the frame a transport received into buf and
// settles who owns buf from here on. A message with no payload points
// nowhere into the frame (Name is a copy), so the frame goes straight
// back; a file message owns it; any other payload (a gossip digest, a
// join record) may be read by the main loop at any later time, so the
// frame is left to the GC.
func decodeFrame(buf *recvBuf) (*Message, error) {
	m, err := DecodeMessage(buf.b)
	switch {
	case err != nil || len(m.Data) == 0:
		buf.release()
	case m.Type == core.MsgFile:
		m.buf = buf
	}
	return m, err
}

// DecodeMessage parses one wire message. The returned message's Data
// aliases buf.
func DecodeMessage(buf []byte) (*Message, error) {
	if len(buf) < msgHeaderLen {
		return nil, fmt.Errorf("server: short message (%d bytes)", len(buf))
	}
	m := &Message{
		Type:    core.MsgType(buf[0] &^ byte(msgFlagMask)),
		From:    int(binary.LittleEndian.Uint16(buf[1:])),
		Load:    int32(binary.LittleEndian.Uint32(buf[3:])),
		ReqID:   binary.LittleEndian.Uint64(buf[7:]),
		Cached:  buf[15] == 1,
		Credits: int32(binary.LittleEndian.Uint32(buf[16:])),
		Offset:  binary.LittleEndian.Uint32(buf[20:]),
		Total:   binary.LittleEndian.Uint32(buf[24:]),
	}
	if m.Type < 0 || m.Type >= core.NumMsgTypes {
		return nil, fmt.Errorf("server: invalid message type %d", m.Type)
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[28:]))
	dataLen := int(binary.LittleEndian.Uint32(buf[30:]))
	body := msgHeaderLen
	if buf[0]&msgTraceFlag != 0 {
		if len(buf) < body+msgTraceExtLen {
			return nil, fmt.Errorf("server: short trace extension (%d bytes)", len(buf))
		}
		m.TraceID = tracing.TraceID(binary.LittleEndian.Uint64(buf[body:]))
		m.ParentSpan = tracing.SpanID(binary.LittleEndian.Uint64(buf[body+8:]))
		if m.TraceID == 0 {
			return nil, fmt.Errorf("server: trace extension with zero trace id")
		}
		body += msgTraceExtLen
	}
	if buf[0]&msgDeadlineFlag != 0 {
		if len(buf) < body+msgDeadlineExtLen {
			return nil, fmt.Errorf("server: short deadline extension (%d bytes)", len(buf))
		}
		m.Budget = time.Duration(binary.LittleEndian.Uint64(buf[body:]))
		if m.Budget <= 0 {
			return nil, fmt.Errorf("server: deadline extension with non-positive budget %v", m.Budget)
		}
		body += msgDeadlineExtLen
	}
	if buf[0]&msgDirFlag != 0 {
		if len(buf) < body+msgDirExtLen {
			return nil, fmt.Errorf("server: short directory-set extension (%d bytes)", len(buf))
		}
		for i := range m.DirSet {
			m.DirSet[i] = binary.LittleEndian.Uint64(buf[body+i*8:])
		}
		m.DirSetValid = true
		body += msgDirExtLen
	}
	if body+nameLen+dataLen > len(buf) {
		return nil, fmt.Errorf("server: truncated message: header wants %d+%d bytes, have %d",
			nameLen, dataLen, len(buf)-body)
	}
	m.Name = string(buf[body : body+nameLen])
	m.Data = buf[body+nameLen : body+nameLen+dataLen]
	return m, nil
}
