package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

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

	// flow-region layout: cumulative consumed counters the receiver
	// remote-writes into the *sender's* memory.
	flowRegChannel = 0  // regular-channel messages consumed
	flowCtrlRing   = 8  // control-ring slots consumed
	flowFileMeta   = 16 // file metadata slots consumed
	flowFileData   = 24 // file data ring: virtual bytes consumed
	flowRegionSize = 32
	flowCounters   = flowRegionSize / 8
)

// rmwRingOut is the sender's view of a control ring living in the
// peer's memory.
type rmwRingOut struct {
	handle via.Handle
	slots  uint64
	gate   *creditGate
	next   uint64 // sequence of the next write (0-based)

	// stage holds the slot image of the write in flight and desc
	// describes it; both serve every write, which the caller serializes
	// and which completes before write returns.
	stage *via.MemoryRegion
	desc  *via.Descriptor
	timer *time.Timer // bounds each completion wait (waitRMW)
}

// newRingOut builds the sender side of the ring behind handle; slot
// images are staged at the start of stage.
func newRingOut(handle via.Handle, slots int, stage *via.MemoryRegion) *rmwRingOut {
	return &rmwRingOut{
		handle: handle, slots: uint64(slots), gate: newCreditGate(slots),
		stage: stage,
		desc:  via.MustDescriptor(via.Segment{Region: stage, Len: ctrlSlotSize}),
		timer: newStoppedTimer(),
	}
}

// write stages the payload into a slot image and remote-writes it.
// The caller serializes writes per peer and bounds completion waits by
// timeout. trc/trace/parent carry the sender's trace context so a
// blocked slot acquire records as a credit-stall span (nil collector or
// zero trace: no span, no cost).
func (r *rmwRingOut) write(vi *via.VI, payload []byte,
	timeout time.Duration, trc *tracing.Collector, trace tracing.TraceID, parent tracing.SpanID) error {
	if len(payload) > ctrlSlotSize-8 {
		return fmt.Errorf("server: control message of %d bytes exceeds ring slot", len(payload))
	}
	stall := trc.StartSpan("credit-stall", trace, parent)
	ok, stalled := r.gate.acquire()
	if stalled {
		stall.AnnotateStr("gate", "ctrl-ring")
		stall.End()
	} else {
		stall.Cancel()
	}
	if !ok {
		return r.gate.closedErr()
	}
	var slot [ctrlSlotSize]byte
	binary.LittleEndian.PutUint32(slot[0:], uint32(len(payload)))
	copy(slot[4:], payload)
	binary.LittleEndian.PutUint32(slot[ctrlSlotSize-4:], uint32(r.next+1))
	if err := r.stage.Write(slot[:], 0); err != nil {
		return err
	}
	off := int(r.next%r.slots) * ctrlSlotSize
	if err := vi.PostRDMAWrite(r.desc, r.handle, off); err != nil {
		return err
	}
	if err := waitRMW(r.desc, r.timer, "ctrl-ring", timeout); err != nil {
		return err
	}
	r.next++
	return nil
}

// rmwRingIn is the receiver's local control ring.
type rmwRingIn struct {
	region  *via.MemoryRegion
	slots   uint64
	read    uint64
	lastAck uint64

	// scratch holds the payload of the slot polled last.
	scratch [ctrlSlotSize - 8]byte
}

func newRingIn(region *via.MemoryRegion) *rmwRingIn {
	region.EnableRemoteWrite()
	return &rmwRingIn{region: region, slots: ctrlSlots}
}

// poll returns the next message payload if one has arrived, detected by
// its sequence number. The payload is read into the ring's scratch and
// is valid until the next poll: the caller decodes it at once and copies
// out whatever the message would keep pointing at.
func (r *rmwRingIn) poll() ([]byte, bool, error) {
	off := int(r.read%r.slots) * ctrlSlotSize
	seq, err := r.region.Load32(off + ctrlSlotSize - 4)
	if err != nil {
		return nil, false, err
	}
	if seq != uint32(r.read+1) {
		return nil, false, nil
	}
	n, err := r.region.Load32(off)
	if err != nil {
		return nil, false, err
	}
	if n > ctrlSlotSize-8 {
		return nil, false, fmt.Errorf("server: corrupt ring slot length %d", n)
	}
	payload := r.scratch[:n]
	if err := r.region.Read(payload, off+4); err != nil {
		return nil, false, err
	}
	r.read++
	return payload, true, nil
}

// ackDue reports whether a consumed-counter write-back is due and, if
// so, the value to publish.
func (r *rmwRingIn) ackDue(batch uint64) (uint64, bool) {
	if r.read-r.lastAck >= batch {
		r.lastAck = r.read
		return r.read, true
	}
	return 0, false
}

// fileRingOut is the sender's view of a peer's file-transfer buffers: a
// small circular buffer for metadata and a large circular buffer for
// the actual file data (Section 3.4, version 3).
type fileRingOut struct {
	metaHandle via.Handle
	dataHandle via.Handle
	metaSlots  uint64
	dataSize   uint64

	metaGate *creditGate
	dataGate *dataGate

	nextMeta uint64
	virt     uint64 // virtual write offset into the data ring

	// stage holds the metadata entry of the transfer in flight and
	// metaDesc describes it; dataDesc is pointed at each transfer's
	// payload in turn. Both serve every transfer (see rmwRingOut).
	stage    *via.MemoryRegion
	metaDesc *via.Descriptor
	dataDesc *via.Descriptor
	timer    *time.Timer
}

// newFileRingOut builds the sender side of the file rings behind the
// two handles; metadata entries are staged at the start of stage.
func newFileRingOut(metaHandle, dataHandle via.Handle, dataSize int, stage *via.MemoryRegion) *fileRingOut {
	return &fileRingOut{
		metaHandle: metaHandle,
		dataHandle: dataHandle,
		metaSlots:  fileMetaSlots,
		dataSize:   uint64(dataSize),
		metaGate:   newCreditGate(fileMetaSlots),
		dataGate:   newDataGate(uint64(dataSize)),
		stage:      stage,
		metaDesc:   via.MustDescriptor(via.Segment{Region: stage, Len: fileMetaSlotSize}),
		dataDesc:   via.MustDescriptor(via.Segment{Region: stage}),
		timer:      newStoppedTimer(),
	}
}

// write transfers one file: a remote write of the data followed by a
// remote write of the metadata entry pointing at it — the two messages
// per file that keep version 3 from improving on version 2. The two are
// posted back to back and only the second is waited for: the engine
// works in post order, and on a reliable VI a failed data write breaks
// the connection before the metadata can land, so a completed metadata
// write means the data is there too.
//
// src must be registered memory holding the payload (the cache page
// itself under zero-copy transmit, a staging copy otherwise).
// trc/trace/parent record blocked ring-space acquires as credit-stall
// spans, one per gate that actually waited.
func (f *fileRingOut) write(vi *via.VI, src *via.MemoryRegion, srcOff, n int, reqID uint64,
	timeout time.Duration, trc *tracing.Collector, trace tracing.TraceID, parent tracing.SpanID) error {
	if uint64(n) > f.dataSize {
		return fmt.Errorf("server: file of %d bytes exceeds %d-byte data ring", n, f.dataSize)
	}
	if err := f.dataDesc.SetSegment(0, via.Segment{Region: src, Offset: srcOff, Len: n}); err != nil {
		return err
	}
	// Allocate data-ring space, skipping the tail when the file would
	// wrap: virtual offsets keep sender and receiver's space accounting
	// in step.
	phys := f.virt % f.dataSize
	if phys+uint64(n) > f.dataSize {
		f.virt += f.dataSize - phys
		phys = 0
	}
	virtEnd := f.virt + uint64(n)
	stall := trc.StartSpan("credit-stall", trace, parent)
	ok, stalled := f.dataGate.acquire(virtEnd, via.ErrClosed)
	if stalled {
		stall.AnnotateStr("gate", "file-data")
		stall.End()
	} else {
		stall.Cancel()
	}
	if !ok {
		return f.dataGate.g.closedErr()
	}
	stall = trc.StartSpan("credit-stall", trace, parent)
	ok, stalled = f.metaGate.acquire()
	if stalled {
		stall.AnnotateStr("gate", "file-meta")
		stall.End()
	} else {
		stall.Cancel()
	}
	if !ok {
		return f.metaGate.closedErr()
	}
	var meta [fileMetaSlotSize]byte
	binary.LittleEndian.PutUint64(meta[0:], reqID)
	binary.LittleEndian.PutUint32(meta[8:], uint32(phys))
	binary.LittleEndian.PutUint32(meta[12:], uint32(n))
	binary.LittleEndian.PutUint64(meta[16:], virtEnd)
	binary.LittleEndian.PutUint32(meta[fileMetaSlotSize-4:], uint32(f.nextMeta+1))
	if err := f.stage.Write(meta[:], 0); err != nil {
		return err
	}
	if err := vi.PostRDMAWrite(f.dataDesc, f.dataHandle, int(phys)); err != nil {
		return err
	}
	metaOff := int(f.nextMeta%f.metaSlots) * fileMetaSlotSize
	if err := vi.PostRDMAWrite(f.metaDesc, f.metaHandle, metaOff); err != nil {
		// The data write is in flight alone: reap it, so the descriptor
		// is the caller's again.
		_ = waitRMW(f.dataDesc, f.timer, "file-data", timeout)
		return err
	}
	if err := waitRMW(f.metaDesc, f.timer, "file-meta", timeout); err != nil {
		// The data write came first; when it is what failed, say so.
		if f.dataDesc.Status() == via.DescError {
			return f.dataDesc.Err()
		}
		return err
	}
	f.nextMeta++
	f.virt = virtEnd
	return nil
}

// fileRingIn is the receiver's local file-transfer buffers.
type fileRingIn struct {
	meta *via.MemoryRegion
	data *via.MemoryRegion

	read     uint64
	lastAck  uint64
	virtAck  uint64
	virtSeen uint64
}

func newFileRingIn(meta, data *via.MemoryRegion) *fileRingIn {
	meta.EnableRemoteWrite()
	data.EnableRemoteWrite()
	return &fileRingIn{meta: meta, data: data}
}

// fileArrival is one polled file transfer; buf.b is the payload, and
// the arrival owns buf.
type fileArrival struct {
	reqID uint64
	buf   *recvBuf
}

// poll detects the next file arrival via the metadata sequence number
// and copies the payload out of the data ring into a receive buffer the
// arrival owns — the one copy of the receive path: the ring's space is
// acknowledged to the sender as soon as it is polled, whatever becomes
// of the client the file is for. extraCopy models version 3's
// copy-to-another-buffer before replying (absent under zero-copy
// receive, versions 4-5).
func (f *fileRingIn) poll(extraCopy bool) (fileArrival, bool, error) {
	off := int(f.read%fileMetaSlots) * fileMetaSlotSize
	seq, err := f.meta.Load32(off + fileMetaSlotSize - 4)
	if err != nil {
		return fileArrival{}, false, err
	}
	if seq != uint32(f.read+1) {
		return fileArrival{}, false, nil
	}
	var hdr [24]byte
	if err := f.meta.Read(hdr[:], off); err != nil {
		return fileArrival{}, false, err
	}
	reqID := binary.LittleEndian.Uint64(hdr[0:])
	phys := binary.LittleEndian.Uint32(hdr[8:])
	n := binary.LittleEndian.Uint32(hdr[12:])
	virtEnd := binary.LittleEndian.Uint64(hdr[16:])

	// The metadata is the peer's to write: bound it by the ring before it
	// sizes a buffer.
	if uint64(phys)+uint64(n) > uint64(f.data.Size()) {
		return fileArrival{}, false, fmt.Errorf("server: corrupt file ring entry: %d bytes at %d", n, phys)
	}
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
	f.read++
	f.virtSeen = virtEnd
	return fileArrival{reqID: reqID, buf: buf}, true, nil
}

// ackDue reports whether consumed counters should be written back:
// the meta-slot count and the data-ring virtual offset.
func (f *fileRingIn) ackDue(batch uint64) (metaRead, virtConsumed uint64, due bool) {
	if f.read-f.lastAck >= batch {
		f.lastAck = f.read
		f.virtAck = f.virtSeen
		return f.read, f.virtAck, true
	}
	return 0, 0, false
}

// dataGate tracks byte-granular ring space: the writer blocks until the
// consumed virtual offset is within dataSize of the requested end.
type dataGate struct {
	g        *creditGate
	capacity uint64
}

func newDataGate(capacity uint64) *dataGate {
	// Reuse creditGate with "sent" as requested virtual end and
	// "consumed" as acked virtual offset; window is the capacity.
	g := newCreditGate(int(capacity))
	return &dataGate{g: g, capacity: capacity}
}

// acquire blocks until virtEnd - consumed <= capacity. stalled reports
// whether it had to wait, mirroring creditGate.acquire.
func (d *dataGate) acquire(virtEnd uint64, closedErr error) (ok, stalled bool) {
	d.g.mu.Lock()
	defer d.g.mu.Unlock()
	for int64(virtEnd)-d.g.consumed > int64(d.capacity) && !d.g.closed {
		if !stalled {
			stalled = true
			d.g.stalls.Inc()
		}
		d.g.cond.Wait()
	}
	return !d.g.closed, stalled
}

func (d *dataGate) setConsumed(v uint64) { d.g.setConsumed(int64(v)) }
func (d *dataGate) close()               { d.g.close() }

// DefaultRMWTimeout is the default bound on the wait for a remote
// write completion (Config.RMWTimeout). The engine processes work in
// bounded time, so expiry indicates shutdown or a wedged peer.
const DefaultRMWTimeout = 30 * time.Second

// RMWTimeoutError reports a remote-memory-write completion wait that
// expired. It is distinct from a link fault: the link may be fine and
// the peer merely wedged, so callers can choose failover rather than
// treating it as ErrLinkDown. errors.Is(err, via.ErrTimeout) also
// matches, via Unwrap.
type RMWTimeoutError struct {
	// Op names the ring that timed out: ctrl-ring, file-data, file-meta.
	Op string
	// Timeout is the configured bound that expired.
	Timeout time.Duration
}

func (e *RMWTimeoutError) Error() string {
	return fmt.Sprintf("server: remote write (%s) not completed within %v", e.Op, e.Timeout)
}

func (e *RMWTimeoutError) Unwrap() error { return via.ErrTimeout }

// waitRMW waits for d's completion, converting an expired wait into a
// typed RMWTimeoutError while passing link faults through untouched. t,
// when non-nil, is the caller's reusable timer (Descriptor.WaitTimer);
// nil arms a fresh one.
func waitRMW(d *via.Descriptor, t *time.Timer, op string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = DefaultRMWTimeout
	}
	err := d.WaitTimer(t, timeout)
	if errors.Is(err, via.ErrTimeout) {
		return &RMWTimeoutError{Op: op, Timeout: timeout}
	}
	return err
}

// newStoppedTimer returns a timer in the state Descriptor.WaitTimer
// takes and leaves it in: stopped, channel empty.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}
