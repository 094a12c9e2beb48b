package server

import (
	"encoding/binary"
	"errors"
	"fmt"

	"press/core"
	"press/netmodel"
	"press/via"
)

// recvThread is the paper's receive thread: blocked on the completion
// queue until a regular message arrives, then it hands the message to
// the main loop and reposts the descriptor. Remote memory writes never
// wake it (Section 2.2).
func (t *viaTransport) recvThread() {
	defer t.wg.Done()
	for {
		c, err := t.recvCQ.Wait(0)
		if err != nil {
			return
		}
		p := t.peerByVI(c.VI)
		if p == nil {
			continue
		}
		region := p.recvRegions[c.Desc]
		if region == nil || c.Desc.Err() != nil {
			continue
		}
		frame := getRecvBuf(c.Desc.Transferred())
		if err := region.Read(frame.b, 0); err != nil {
			frame.release()
			continue
		}
		// Repost before processing: the window stays open.
		if err := p.vi.PostRecv(c.Desc); err != nil {
			delete(p.recvRegions, c.Desc)
		}
		t.handleFrame(p, frame)
	}
}

// peerByVI routes a completion to its peer: the live table first, then
// the pending set, so a reconnecting peer's first frames are not lost
// in the window between Accept/Connect and promotion. Frames on a
// retired VI find neither and are dropped.
func (t *viaTransport) peerByVI(vi *via.VI) *viaPeer {
	t.peersMu.RLock()
	defer t.peersMu.RUnlock()
	for _, p := range t.peers {
		if p != nil && p.vi == vi {
			return p
		}
	}
	return t.pending[vi]
}

// handleFrame takes over the frame recvThread copied out of a receive
// region: it goes back to the pool here unless decodeFrame hands it on.
func (t *viaTransport) handleFrame(p *viaPeer, frame *recvBuf) {
	switch {
	case len(frame.b) == 0:
		frame.release()
		return
	case frame.b[0] == setupMagic:
		t.handleSetup(p, frame.b) // reads the handles out; keeps nothing
		frame.release()
		return
	}
	var m Message
	err := t.cfg.names.decodeFrame(&m, frame)
	// One rule for a frame we refuse, whether it does not decode or
	// claims a sender that is not this channel's peer (From is a wire
	// uint16 that indexes per-peer tables from here on, and over the VIA
	// bridge it is socket input): it never reaches Inbound, as on TCP, but
	// it did occupy a slot of the window, so it is counted below like any
	// data frame; returning before the count would shrink the sender's
	// window by one for good.
	refused := err != nil || m.From != p.id
	if !refused && m.Type == core.MsgFlow {
		p.regGate.credit(int64(m.Credits))
		return
	}
	// A data message consumed a window slot; return credits in batches,
	// either as explicit flow messages or as a remote write of the
	// cumulative count (version 1+).
	p.consumed++
	if n, due := p.regAck.due(p.consumed, uint64(t.cfg.batch)); due {
		t.returnCredits(p, n)
	}
	if refused {
		return
	}
	select {
	case t.inbound <- m:
	case <-t.done:
	}
}

// returnCredits tells the peer of the n data frames consumed since it
// was last told.
func (t *viaTransport) returnCredits(p *viaPeer, n uint64) {
	if t.cfg.version.Flow == netmodel.StyleRegular {
		flow := Message{Type: core.MsgFlow, From: t.cfg.self, Credits: int32(n), Load: -1}
		if err := t.sendRegular(p, &flow, false); err != nil {
			// The flow message never left, so the peer will not learn
			// these slots freed up. Take the count back so the next
			// batch retries; dropping it deadlocks the sender once the
			// window drains. Safe without locking: only recvThread
			// calls returnCredits.
			p.regAck.acked -= n
		}
		return
	}
	// RMW flow control: write the cumulative count into the sender's flow
	// region; load and overwrite semantics make this the cheapest
	// possible credit return (Section 2.2).
	t.ins.acct.add(core.MsgFlow, 8)
	t.writeFlowCounter(p, flowRegChannel, p.consumed)
}

// writeFlowCounter remote-writes one cumulative counter into the peer's
// flow region. A write that fails is not retried: the next batch
// carries the count. Each counter has one writer goroutine (see
// viaPeer).
func (t *viaTransport) writeFlowCounter(p *viaPeer, off int, v uint64) {
	w := &p.ack[off/8]
	if w.remote == 0 {
		return // peer setup not seen yet; counters are cumulative
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	//presslint:ignore unchecked-comms-error counters are cumulative, so the next batch repairs a write that could not be posted; a broken VI fails the channel through its senders
	_ = w.transfer(nil, 0, buf[:], off)
}

// errVersionMismatch fails a channel whose two ends run different
// versions: each would remote-write regions the other never registered.
// errFrameBoundMismatch fails one whose ends bound regular frames
// differently (their traces' longest names differ): a frame one end may
// send would break the other's receive scatter.
var (
	errVersionMismatch    = errors.New("server: version mismatch")
	errFrameBoundMismatch = errors.New("server: frame bound mismatch")
)

func (t *viaTransport) handleSetup(p *viaPeer, frame []byte) {
	if len(frame) < setupLen {
		return
	}
	// A duplicate setup frame must not restart rings that are in use (nor
	// close ready twice).
	select {
	case <-p.ready:
		return
	default:
	}
	if v := frame[1]; v != t.layout.version {
		p.fail(fmt.Errorf("%w: node %d runs V%d, node %d runs V%d", errVersionMismatch,
			p.id, v, t.cfg.self, t.layout.version))
		return
	}
	if n := int(binary.LittleEndian.Uint32(frame[26:])); n != t.layout.regBuf {
		p.fail(fmt.Errorf("%w: node %d frames up to %d bytes, node %d up to %d", errFrameBoundMismatch,
			p.id, n, t.cfg.self, t.layout.regBuf))
		return
	}
	flow := via.Handle(binary.LittleEndian.Uint32(frame[2:]))
	ctrl := via.Handle(binary.LittleEndian.Uint32(frame[6:]))
	meta := via.Handle(binary.LittleEndian.Uint32(frame[10:]))
	data := via.Handle(binary.LittleEndian.Uint32(frame[14:]))
	dataSize := int(binary.LittleEndian.Uint64(frame[18:]))
	// The ring gates are credit gates too: their stalls count with the
	// regular channel's, their traced waits go to the same collector.
	gate := func(name string, window int) *creditGate {
		return newCreditGate(name, window, t.ins.stalls, t.cfg.trc)
	}
	out := func(op string, remote via.Handle, stage *via.MemoryRegion, n int) outWrite {
		return newOutWrite(op, p.vi, remote, stage, 0, n)
	}
	// The peer runs this version, so it announced every region this
	// node's layout writes.
	p.peerMu.Lock()
	if t.layout.flow {
		for i := range p.ack {
			p.ack[i].remote = flow
		}
	}
	if t.layout.ctrl {
		p.outCtrl = newSlotRingOut(ctrlRing, gate("ctrl-ring", ctrlSlots), out("ctrl-ring", ctrl, p.ringStage, ctrlSlotSize))
	}
	if t.layout.file {
		p.outFile = &fileRingOut{
			meta:       newSlotRingOut(fileMetaRing, gate("file-meta", fileMetaSlots), out("file-meta", meta, p.metaStage, fileMetaSlotSize)),
			dataSize:   uint64(dataSize),
			dataCredit: gate("file-data", dataSize),
			data:       out("file-data", data, p.metaStage, 0),
		}
	}
	p.peerMu.Unlock()
	// If the peer failed while the setup frame was in flight, the fresh
	// rings must fail too, or a sender could park on them forever.
	select {
	case <-p.failed:
		p.failGates(p.failErr)
	default:
	}
	close(p.ready)
	// The peer may have written into our rings as soon as it had our
	// setup frame; the poll thread passed those writes over while the
	// channel was not ready.
	t.kickPoller()
}

// inRegion names one of the regions a peer remote-writes on this node.
type inRegion uint8

const (
	inFlow inRegion = iota
	inCtrlRing
	inFileMeta
	// The file data region is not listed: the metadata write that
	// follows it in post order is what publishes a transfer.
)

// regionOwner says whose region a written region is, and which.
type regionOwner struct {
	p    *viaPeer
	kind inRegion
}

// pollThread is the main loop's polling duty factored into its own
// goroutine: it checks the sequence numbers of peers' control and file
// rings and the flow counters peers remote-write into our memory.
// Remote memory writes require no interrupt and no receive thread
// (Section 2.2) — and no blind polling either: the thread parks until
// the NIC's doorbell says a remote write landed, then looks at exactly
// the regions written. A kick (peer table changed, a channel became
// ready) makes it re-read the table and look at every live peer, which
// also picks up writes it passed over while a channel was not ready.
func (t *viaTransport) pollThread() {
	defer t.wg.Done()
	// Thread-local view of the peer table, rebuilt on every kick, so a
	// doorbell wake takes no lock and allocates nothing.
	owners := make(map[*via.MemoryRegion]regionOwner)
	var written []*via.MemoryRegion
	for {
		progressed := false
		select {
		case <-t.done:
			return
		case <-t.nic.Doorbell():
			written = t.nic.Written(written[:0])
			for _, r := range written {
				if o, ok := owners[r]; ok && t.pollRegion(o) {
					progressed = true
				}
			}
		case <-t.kick:
			clear(owners)
			t.peersMu.RLock()
			for _, p := range t.peers {
				if p == nil {
					continue
				}
				ctrl, meta, _ := p.inRegions()
				for kind, r := range [...]*via.MemoryRegion{inFlow: p.flowIn, inCtrlRing: ctrl, inFileMeta: meta} {
					if r != nil {
						owners[r] = regionOwner{p, inRegion(kind)}
					}
				}
			}
			t.peersMu.RUnlock()
			for _, o := range owners {
				if t.pollRegion(o) {
					progressed = true
				}
			}
		}
		t.ins.pollWakes.Inc()
		if !progressed {
			t.ins.pollEmpty.Inc()
		}
	}
}

// pollRegion looks at one written region; it reports whether anything
// was there. Regions of a channel whose setup is not complete are
// passed over: handleSetup kicks when it is.
func (t *viaTransport) pollRegion(o regionOwner) bool {
	select {
	case <-o.p.ready:
	default:
		return false
	}
	switch o.kind {
	case inCtrlRing:
		return t.drainCtrlRing(o.p)
	case inFileMeta:
		return t.drainFileRing(o.p)
	default:
		return t.readFlowCounters(o.p)
	}
}

func (t *viaTransport) drainCtrlRing(p *viaPeer) bool {
	progressed := false
	for {
		payload, ok, err := p.inCtrl.poll()
		if err != nil || !ok {
			return progressed
		}
		progressed = true
		// A slot that does not decode or names another sender is refused
		// as handleFrame refuses a frame: dropped, and acknowledged below.
		var m Message
		if err := t.cfg.names.decodeInto(&m, payload); err == nil && m.From == p.id {
			// payload is the ring's scratch, which the next poll reuses:
			// Name never points into it, and any payload (a bridge peer
			// may put one on any slot) is copied out here.
			if len(m.Data) > 0 {
				m.Data = append([]byte(nil), m.Data...)
			}
			select {
			case t.inbound <- m:
			case <-t.done:
				return true
			}
		}
		if _, due := p.inCtrl.ack.due(p.inCtrl.read, uint64(t.cfg.batch)); due {
			t.ins.acct.add(core.MsgFlow, 8)
			t.writeFlowCounter(p, flowCtrlRing, p.inCtrl.read)
		}
	}
}

// drainFileRing delivers arrived files: version 3 copies arrivals to
// another buffer before replying; versions 4-5 reply right out of the
// communication buffer (zero-copy receive).
func (t *viaTransport) drainFileRing(p *viaPeer) bool {
	progressed := false
	for {
		arr, ok, err := p.inFile.poll(!t.cfg.version.ZeroCopyRX)
		if err != nil || !ok {
			return progressed
		}
		if !t.cfg.version.ZeroCopyRX {
			// Receiver-side copy to another buffer (version 3),
			// eliminated by zero-copy receive (versions 4-5).
			t.ins.copied.Add(int64(len(arr.buf.b)))
		}
		progressed = true
		m := Message{
			Type: core.MsgFile, From: p.id, Load: -1, ReqID: arr.reqID,
			Data: arr.buf.b, Offset: 0, Total: uint32(len(arr.buf.b)), buf: arr.buf,
		}
		select {
		case t.inbound <- m:
		case <-t.done:
			return true
		}
		// One batch acknowledges both halves: the metadata entries and the
		// data area up to the last of them.
		if _, due := p.inFile.meta.ack.due(p.inFile.meta.read, uint64(t.cfg.batch)); due {
			t.ins.acct.add(core.MsgFlow, 16)
			t.writeFlowCounter(p, flowFileMeta, p.inFile.meta.read)
			t.writeFlowCounter(p, flowFileData, p.inFile.virtSeen)
		}
	}
}

// readFlowCounters applies the counters the peer wrote into our memory:
// they gate our outbound rings and, under RMW flow control, the regular
// channel. One locked read; a gate is touched only if its counter moved.
// The channel is ready (pollRegion), so the outbound rings the version
// writes exist.
func (t *viaTransport) readFlowCounters(p *viaPeer) bool {
	var buf [flowRegionSize]byte
	if p.flowIn.Read(buf[:], 0) != nil {
		return false
	}
	// In flow-region order: flowRegChannel, flowCtrlRing, flowFileMeta,
	// flowFileData; nil for a ring the version does not write.
	gates := [flowCounters]*creditGate{p.regGate}
	if p.outCtrl != nil {
		gates[1] = p.outCtrl.gate
	}
	if p.outFile != nil {
		gates[2], gates[3] = p.outFile.meta.gate, p.outFile.dataCredit
	}
	moved := false
	for i, g := range gates {
		if g == nil {
			continue
		}
		if v := binary.LittleEndian.Uint64(buf[8*i:]); v != p.flowSeen[i] {
			p.flowSeen[i] = v
			g.setConsumed(int64(v))
			moved = true
		}
	}
	return moved
}
