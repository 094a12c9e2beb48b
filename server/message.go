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

// The wire extensions: each is a flag bit on the type byte and a fixed
// run of little-endian words after the fixed header. The flags sit above
// every valid core.MsgType value, so a decoder that predates one sees an
// invalid type and fails cleanly rather than misparsing, and a message
// that carries none encodes to the exact original format.
const (
	// Tracing: TraceID and ParentSpan.
	msgTraceFlag, msgTraceExtLen = 0x80, 8 + 8
	// Deadline: the remaining request budget in nanoseconds.
	msgDeadlineFlag, msgDeadlineExtLen = 0x40, 8
	// Directory set: a cacher NodeSet.
	msgDirFlag, msgDirExtLen = 0x20, 32
	// 0x10, the last spare bit, is reserved for "a length-prefixed tail
	// follows": whatever comes after these three goes there.
)

// msgExts is the one table of wire extensions, in wire order; EncodedLen,
// Encode and DecodeMessage iterate it. extWords/setExtWords map words to
// fields by flag: function-valued rows would heap-allocate every message.
var msgExts = [...]struct {
	flag byte
	size int
}{
	{msgTraceFlag, msgTraceExtLen},
	{msgDeadlineFlag, msgDeadlineExtLen},
	{msgDirFlag, msgDirExtLen},
}

// msgFlagMask covers every extension's flag bit; msgMaxExtLen is the
// room a frame needs for all of them at once.
var msgFlagMask, msgMaxExtLen = func() (mask byte, n int) {
	for _, e := range msgExts {
		mask |= e.flag
		n += e.size
	}
	return mask, n
}()

// extWords returns extension flag's words as m carries them, if it does.
func (m *Message) extWords(flag byte) (w [4]uint64, present bool) {
	switch {
	case flag == msgTraceFlag && m.TraceID != 0:
		return [4]uint64{uint64(m.TraceID), uint64(m.ParentSpan)}, true
	case flag == msgDeadlineFlag && m.Budget > 0:
		return [4]uint64{uint64(m.Budget)}, true
	case flag == msgDirFlag && m.DirSetValid:
		return m.DirSet, true
	}
	return w, false
}

// setExtWords installs a decoded extension, refusing what no encoder emits.
func (m *Message) setExtWords(flag byte, w [4]uint64) error {
	switch flag {
	case msgTraceFlag:
		if m.TraceID, m.ParentSpan = tracing.TraceID(w[0]), tracing.SpanID(w[1]); m.TraceID == 0 {
			return fmt.Errorf("server: trace extension with zero trace id")
		}
	case msgDeadlineFlag:
		if m.Budget = time.Duration(w[0]); m.Budget <= 0 {
			return fmt.Errorf("server: deadline extension with non-positive budget %v", m.Budget)
		}
	default:
		m.DirSet, m.DirSetValid = w, true
	}
	return nil
}

// maxNameLen bounds file names on the wire.
const maxNameLen = 1 << 15

// EncodedLen returns the wire size of the message.
func (m *Message) EncodedLen() int {
	n := msgHeaderLen + len(m.Name) + len(m.Data)
	for _, e := range msgExts {
		if _, present := m.extWords(e.flag); present {
			n += e.size
		}
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
	at := len(dst)
	dst = append(dst, h[:]...)
	for _, e := range msgExts {
		if w, present := m.extWords(e.flag); present {
			dst[at] |= e.flag
			for _, word := range w[:e.size/8] {
				dst = binary.LittleEndian.AppendUint64(dst, word)
			}
		}
	}
	dst = append(dst, m.Name...)
	dst = append(dst, m.Data...)
	return dst, nil
}

// nameTable interns the file names of one cluster's trace, each mapped
// to itself: a decoded name found in it is the table's string, not a
// copy. Each transport holds its own cluster's table; nil interns nothing.
type nameTable map[string]string

// decodeFrame decodes the frame a transport received into buf and
// settles who owns buf from here on. A message with no payload points
// nowhere into the frame (Name is interned or a copy), so the frame goes
// straight back; a file message owns it; any other payload (a join
// record, a directory sync segment) may be read by the main loop later:
// the GC's.
func (nt nameTable) decodeFrame(m *Message, buf *recvBuf) error {
	err := nt.decodeInto(m, buf.b)
	switch {
	case err != nil || len(m.Data) == 0:
		buf.release()
	case m.Type == core.MsgFile:
		m.buf = buf
	}
	return err
}

// DecodeMessage parses one wire message. The returned message's Data
// aliases buf.
func DecodeMessage(buf []byte) (*Message, error) {
	m := &Message{}
	if err := nameTable(nil).decodeInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeInto is DecodeMessage in place, over every field of m, with the
// name interned in nt. The two counted sites are the string(name) map
// key, which does not allocate, and the copy of a name nt lacks.
//
//presslint:hotpath budget=2
func (nt nameTable) decodeInto(m *Message, buf []byte) error {
	if len(buf) < msgHeaderLen {
		return fmt.Errorf("server: short message (%d bytes)", len(buf))
	}
	*m = Message{
		Type:    core.MsgType(buf[0] &^ msgFlagMask),
		From:    int(binary.LittleEndian.Uint16(buf[1:])),
		Load:    int32(binary.LittleEndian.Uint32(buf[3:])),
		ReqID:   binary.LittleEndian.Uint64(buf[7:]),
		Cached:  buf[15] == 1,
		Credits: int32(binary.LittleEndian.Uint32(buf[16:])),
		Offset:  binary.LittleEndian.Uint32(buf[20:]),
		Total:   binary.LittleEndian.Uint32(buf[24:]),
	}
	if m.Type < 0 || m.Type >= core.NumMsgTypes {
		return fmt.Errorf("server: invalid message type %d", m.Type)
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[28:]))
	dataLen := int(binary.LittleEndian.Uint32(buf[30:]))
	body := msgHeaderLen
	for _, e := range msgExts {
		if buf[0]&e.flag == 0 {
			continue
		}
		if len(buf) < body+e.size {
			return fmt.Errorf("server: short extension %#x (%d bytes)", e.flag, len(buf))
		}
		var w [4]uint64
		for i := range w[:e.size/8] {
			w[i] = binary.LittleEndian.Uint64(buf[body+8*i:])
		}
		if err := m.setExtWords(e.flag, w); err != nil {
			return err
		}
		body += e.size
	}
	if body+nameLen+dataLen > len(buf) {
		return fmt.Errorf("server: truncated message: header wants %d+%d bytes, have %d",
			nameLen, dataLen, len(buf)-body)
	}
	name := buf[body : body+nameLen]
	var interned bool
	if m.Name, interned = nt[string(name)]; !interned {
		m.Name = string(name)
	}
	m.Data = buf[body+nameLen : body+nameLen+dataLen]
	return nil
}
