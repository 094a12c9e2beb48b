package server

import (
	"encoding/binary"
	"fmt"

	"press/tracing"
	"press/via"
)

// The remote-memory-write machinery of versions 2-5 (Section 3.4): at
// each node, circular buffers are allocated for forward/caching
// messages and for file transfers from each other node. Because each
// node knows the location of its private buffers at every other node,
// it keeps track of exactly where the next message should be written in
// the memories of remote nodes. Polling is done by looking at message
// sequence numbers stored at the last position of each fixed-size
// buffer entry.

const (
	// ctrlSlotSize fits any control message (forward/caching/load):
	// [len:4][payload][...pad...][seq:4].
	ctrlSlotSize = 512
	ctrlSlots    = 64
	// fileMetaSlot: [reqID:8][physOff:4][len:4][virtEnd:8][pad][seq:4].
	fileMetaSlotSize = 64
	fileMetaSlots    = 64
	fileMetaLen      = 24

	// flow-region layout: cumulative consumed counters the receiver
	// remote-writes into the *sender's* memory.
	flowRegChannel = 0  // regular-channel messages consumed
	flowCtrlRing   = 8  // control-ring slots consumed
	flowFileMeta   = 16 // file metadata slots consumed
	flowFileData   = 24 // file data ring: virtual bytes consumed
	flowRegionSize = 32
	flowCounters   = flowRegionSize / 8
)

// ringGeom is the shape of a slot ring: slots entries of size bytes, the
// last four the sequence number. fixed is the body length of a
// fixed-layout entry; zero means the body is length-prefixed. The two
// rings of the transport are constants, not options.
type ringGeom struct{ slots, size, fixed int }

var (
	ctrlRing     = ringGeom{slots: ctrlSlots, size: ctrlSlotSize}
	fileMetaRing = ringGeom{slots: fileMetaSlots, size: fileMetaSlotSize, fixed: fileMetaLen}
)

// room is the largest body an entry holds.
func (g ringGeom) room() int {
	if g.fixed > 0 {
		return g.fixed
	}
	return g.size - 8
}

// outWrite is one outbound transfer a channel posts over and over: the
// registered staging image and the descriptor over it. The regular
// channel, each slot ring, the file data area and each flow counter own
// one; the owner serializes its writes.
type outWrite struct {
	op string // names the channel in errors
	vi *via.VI
	// remote is the peer region written to; zero posts a send instead.
	remote via.Handle
	stage  *via.MemoryRegion
	off    int // where in stage the image lives
	desc   *via.Descriptor
}

// newOutWrite builds a channel whose images, n bytes at most, are staged
// at off in stage.
func newOutWrite(op string, vi *via.VI, remote via.Handle, stage *via.MemoryRegion, off, n int) outWrite {
	return outWrite{
		op: op, vi: vi, remote: remote, stage: stage, off: off,
		desc: via.MustDescriptor(via.Segment{Region: stage, Offset: off, Len: n}),
	}
}

// transfer is every outbound write of the transport: stage image (nil:
// the descriptor already points at the payload) and post it — at
// remoteOff of the remote region, or as a send. A post moves the
// transfer before it returns and returns its error, so transfer returns
// the write's own error, and descriptor and image are the channel's
// again. g, when non-nil, is the gate the caller claimed n units from
// for this write. The slot-return rule hangs on the error, written here
// once: the units go back to g exactly when the write failed, and the
// caller's sequence stays put. A failed write moved nothing the peer
// will consume: staging or the post refused it, it moved nothing, or it
// broke the VI, whose gates and rings die with it.
func (w *outWrite) transfer(g *creditGate, n int64, image []byte, remoteOff int) (err error) {
	if image != nil {
		if len(image) != w.desc.Len() {
			err = w.desc.SetSegment(0, via.Segment{Region: w.stage, Offset: w.off, Len: len(image)})
		}
		if err == nil {
			err = w.stage.Write(image, w.off)
		}
	}
	if err == nil {
		if w.remote == 0 {
			err = w.vi.PostSend(w.desc)
		} else {
			err = w.vi.PostRDMAWrite(w.desc, w.remote, remoteOff)
		}
	}
	if err != nil && g != nil {
		g.release(n)
	}
	return err
}

// ackBatch is the receiver half of flow control on every channel: what
// was consumed is acknowledged a batch at a time.
type ackBatch struct{ acked uint64 }

// due reports whether seen, the cumulative count consumed, is a batch
// past what the sender was last told and, if so, records it as told;
// fresh is how much of it is new.
func (a *ackBatch) due(seen, batch uint64) (fresh uint64, ok bool) {
	if fresh = seen - a.acked; fresh < batch {
		return 0, false
	}
	a.acked = seen
	return fresh, true
}

// slotRing is the paper's one remote-write mechanism, used for control
// messages and file metadata alike and in both directions: fixed-size
// entries in a circular buffer in the receiver's memory, each closed by
// the sequence number of the write that filled it, polled by the
// receiver, the space returned by a consumed counter written back into
// the sender's memory. An instance is one half of a ring: the sender's
// view of the ring living in the peer's memory (newSlotRingOut) or the
// receiver's local ring (newSlotRingIn).
type slotRing struct {
	ringGeom

	// Sender half: gate counts the free entries, next is the sequence of
	// the next write (0-based), out stages and posts the entry image.
	gate *creditGate
	next uint64
	out  outWrite

	// Receiver half: read counts the entries polled, ack what of them the
	// sender has been told.
	region *via.MemoryRegion
	read   uint64
	ack    ackBatch

	// buf is ring-owned scratch: the image of the entry being written, or
	// the body of the entry polled last.
	buf []byte
}

// newSlotRingOut builds the sender half over out, which targets the
// peer's ring and stages one entry image.
func newSlotRingOut(geom ringGeom, gate *creditGate, out outWrite) *slotRing {
	return &slotRing{ringGeom: geom, gate: gate, out: out, buf: make([]byte, geom.size)}
}

func newSlotRingIn(geom ringGeom, region *via.MemoryRegion) *slotRing {
	region.EnableRemoteWrite()
	return &slotRing{ringGeom: geom, region: region, buf: make([]byte, geom.room())}
}

// writeEntry claims an entry, builds its image around body —
// [len:4][body][pad][seq:4], or [body][pad][seq:4] on a fixed layout —
// and remote-writes it into the slot its sequence number selects. The
// caller serializes writes per peer. A blocked claim records as a
// credit-stall span under the sender's trace context.
func (r *slotRing) writeEntry(body []byte, trace tracing.TraceID, parent tracing.SpanID) error {
	if len(body) > r.room() {
		return fmt.Errorf("server: %s entry of %d bytes exceeds the slot's %d", r.out.op, len(body), r.room())
	}
	if err := r.gate.acquire(1, trace, parent); err != nil {
		return err
	}
	img, at := r.buf, 0
	clear(img)
	if r.fixed == 0 {
		binary.LittleEndian.PutUint32(img, uint32(len(body)))
		at = 4
	}
	copy(img[at:], body)
	binary.LittleEndian.PutUint32(img[r.size-4:], uint32(r.next+1))
	if err := r.out.transfer(r.gate, 1, img, int(r.next%uint64(r.slots))*r.size); err != nil {
		return err
	}
	r.next++
	return nil
}

// poll returns the body of the next entry if it has arrived, detected by
// its sequence number. The body is read into the ring's scratch and is
// valid until the next poll: the caller decodes it at once and copies
// out whatever it would keep pointing at.
func (r *slotRing) poll() ([]byte, bool, error) {
	off := int(r.read%uint64(r.slots)) * r.size
	seq, err := r.region.Load32(off + r.size - 4)
	if err != nil || seq != uint32(r.read+1) {
		return nil, false, err
	}
	n, at := uint32(r.fixed), 0
	if r.fixed == 0 {
		// The length is the peer's to write: bound it by the slot.
		if n, err = r.region.Load32(off); err != nil {
			return nil, false, err
		}
		if n > uint32(r.room()) {
			return nil, false, fmt.Errorf("server: corrupt ring slot length %d", n)
		}
		at = 4
	}
	body := r.buf[:n]
	if err := r.region.Read(body, off+at); err != nil {
		return nil, false, err
	}
	r.read++
	return body, true, nil
}

// fileRingOut is the sender's view of a peer's file-transfer buffers: a
// slot ring for metadata and a large byte-granular circular buffer for
// the actual file data (Section 3.4, version 3).
type fileRingOut struct {
	meta *slotRing

	// dataCredit counts virtual bytes of the data area: its window is the
	// area's size and its sent count the virtual write offset. data's
	// descriptor is pointed at each transfer's payload in turn; nothing
	// is staged.
	dataSize   uint64
	dataCredit *creditGate
	data       outWrite
}

// writeFile transfers one file: a remote write of the data followed by a
// remote write of the metadata entry pointing at it — the two messages
// per file that keep version 3 from improving on version 2. Each is
// complete when it returns, so the metadata is written only once the
// data is in place.
//
// src must be registered memory holding the payload (the cache page
// itself under zero-copy transmit, a staging copy otherwise).
// trace/parent record blocked ring-space claims as credit-stall spans,
// one per gate that actually waited.
func (f *fileRingOut) writeFile(src *via.MemoryRegion, srcOff, n int, reqID uint64,
	trace tracing.TraceID, parent tracing.SpanID) error {
	if uint64(n) > f.dataSize {
		return fmt.Errorf("server: file of %d bytes exceeds %d-byte data ring", n, f.dataSize)
	}
	if err := f.data.desc.SetSegment(0, via.Segment{Region: src, Offset: srcOff, Len: n}); err != nil {
		return err
	}
	// Allocate data-ring space, skipping the tail when the file would
	// wrap: virtual offsets keep sender and receiver's space accounting
	// in step.
	virt, _ := f.dataCredit.inFlight()
	phys, claim := uint64(virt)%f.dataSize, int64(n)
	if phys+uint64(n) > f.dataSize {
		claim += int64(f.dataSize - phys)
		phys = 0
	}
	if err := f.dataCredit.acquire(claim, trace, parent); err != nil {
		return err
	}
	if err := f.data.transfer(f.dataCredit, claim, nil, int(phys)); err != nil {
		return err
	}
	var meta [fileMetaLen]byte
	binary.LittleEndian.PutUint64(meta[0:], reqID)
	binary.LittleEndian.PutUint32(meta[8:], uint32(phys))
	binary.LittleEndian.PutUint32(meta[12:], uint32(n))
	binary.LittleEndian.PutUint64(meta[16:], uint64(virt+claim))
	return f.meta.writeEntry(meta[:], trace, parent)
}

// fileRingIn is the receiver's local file-transfer buffers.
type fileRingIn struct {
	meta *slotRing
	data *via.MemoryRegion
	// virtSeen is the virtual end of the transfer polled last: what the
	// data area's consumed counter is acknowledged up to.
	virtSeen uint64
}

func newFileRingIn(meta, data *via.MemoryRegion) *fileRingIn {
	data.EnableRemoteWrite()
	return &fileRingIn{meta: newSlotRingIn(fileMetaRing, meta), data: data}
}

// fileArrival is one polled file transfer; buf.b is the payload, and
// the arrival owns buf.
type fileArrival struct {
	reqID uint64
	buf   *recvBuf
}

// poll detects the next file arrival via the metadata ring and copies
// the payload out of the data ring into a receive buffer the arrival
// owns — the one copy of the receive path: the ring's space is
// acknowledged to the sender as soon as it is polled, whatever becomes
// of the client the file is for. extraCopy models version 3's
// copy-to-another-buffer before replying (absent under zero-copy
// receive, versions 4-5).
func (f *fileRingIn) poll(extraCopy bool) (fileArrival, bool, error) {
	hdr, ok, err := f.meta.poll()
	if err != nil || !ok {
		return fileArrival{}, false, err
	}
	reqID := binary.LittleEndian.Uint64(hdr[0:])
	phys := binary.LittleEndian.Uint32(hdr[8:])
	n := binary.LittleEndian.Uint32(hdr[12:])

	// The metadata is the peer's to write: bound it by the ring before it
	// sizes a buffer.
	if uint64(phys)+uint64(n) > uint64(f.data.Size()) {
		return fileArrival{}, false, fmt.Errorf("server: corrupt file ring entry: %d bytes at %d", n, phys)
	}
	f.virtSeen = binary.LittleEndian.Uint64(hdr[16:])
	buf := getRecvBuf(int(n))
	if err := f.data.Read(buf.b, int(phys)); err != nil {
		buf.release()
		return fileArrival{}, false, err
	}
	if extraCopy {
		// Version 3: the file is copied to another buffer before being
		// sent back to the requesting client (Section 3.4).
		staged := getRecvBuf(int(n))
		copy(staged.b, buf.b)
		buf.release()
		buf = staged
	}
	return fileArrival{reqID: reqID, buf: buf}, true, nil
}
