package server

import (
	"encoding/binary"
	"errors"
	"time"

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
		if c.Send {
			continue
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
	m, err := decodeFrame(frame)
	// One rule for a frame we refuse, whether it does not decode or
	// claims a sender that is not this channel's peer (From is a wire
	// uint16 that indexes per-peer tables from here on, and over the UDP
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
	if p.consumed >= int64(t.cfg.batch) {
		granted := p.consumed
		p.consumed = 0
		t.returnCredits(p, granted)
	}
	if refused {
		return
	}
	select {
	case t.inbound <- m:
	case <-t.done:
	}
}

func (t *viaTransport) returnCredits(p *viaPeer, n int64) {
	if t.cfg.version.Flow == netmodel.StyleRegular {
		flow := &Message{Type: core.MsgFlow, From: t.cfg.self, Credits: int32(n), Load: -1}
		if err := t.sendRegular(p, flow, false); err != nil {
			// The flow message never left, so the peer will not learn
			// these slots freed up. Put the count back so the next
			// batch retries; dropping it deadlocks the sender once the
			// window drains. Safe without locking: only recvThread
			// calls returnCredits.
			p.consumed += n
		}
		return
	}
	// RMW flow control: accumulate the counter locally and write it
	// into the sender's flow region; load and overwrite semantics make
	// this the cheapest possible credit return (Section 2.2).
	p.regAcked += n
	t.ins.acct.add(core.MsgFlow, 8)
	t.writeFlowCounter(p, flowRegChannel, uint64(p.regAcked))
}

// writeFlowCounter remote-writes one cumulative counter into the peer's
// flow region and does not wait for it: the counter's descriptor is
// reaped by the next write of the same counter, a credit batch of
// messages later, so the calling thread parks only if the engine is
// that far behind. Each counter has one writer goroutine (see viaPeer).
func (t *viaTransport) writeFlowCounter(p *viaPeer, off int, v uint64) {
	p.peerMu.Lock()
	handle := p.peerFlowHandle
	p.peerMu.Unlock()
	if handle == 0 {
		return // peer setup not seen yet; counters are cumulative
	}
	d := p.ackDesc[off/8]
	if d.Status() == via.DescPosted && errors.Is(d.Wait(t.cfg.rmwTimeout), via.ErrTimeout) {
		return // the engine is wedged; the next batch carries the count
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if p.ackReg.Write(buf[:], off) != nil {
		return
	}
	//presslint:ignore unchecked-comms-error counters are cumulative, so the next batch repairs a write that could not be posted; a broken VI fails the channel through its senders
	_ = t.postRDMARetry(p.vi, d, handle, off)
}

// postRDMARetry retries a momentarily full work queue a bounded number
// of times with capped exponential backoff; counters are cumulative, so
// giving up just leaves the credit for the next batch.
func (t *viaTransport) postRDMARetry(vi *via.VI, d *via.Descriptor, h via.Handle, off int) error {
	pause := t.cfg.retry.Base
	var timer *time.Timer // reused: time.After would leak one per attempt
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 1; ; attempt++ {
		//presslint:ignore descriptor-lifecycle re-post only happens after ErrQueueFull, which means the NIC never accepted the descriptor
		err := vi.PostRDMAWrite(d, h, off)
		if !errors.Is(err, via.ErrQueueFull) {
			return err
		}
		if attempt >= t.cfg.retry.Attempts {
			return err
		}
		if timer == nil {
			timer = time.NewTimer(pause)
		} else {
			timer.Reset(pause)
		}
		select {
		case <-t.done:
			return via.ErrClosed
		case <-timer.C:
		}
		if pause *= 2; pause > t.cfg.retry.Cap {
			pause = t.cfg.retry.Cap
		}
	}
}

func (t *viaTransport) handleSetup(p *viaPeer, frame []byte) {
	if len(frame) < 1+16+8 {
		return
	}
	flow := via.Handle(binary.LittleEndian.Uint32(frame[1:]))
	ctrl := via.Handle(binary.LittleEndian.Uint32(frame[5:]))
	meta := via.Handle(binary.LittleEndian.Uint32(frame[9:]))
	data := via.Handle(binary.LittleEndian.Uint32(frame[13:]))
	dataSize := int(binary.LittleEndian.Uint64(frame[17:]))
	p.peerMu.Lock()
	p.peerFlowHandle = flow
	p.outCtrl = newRingOut(ctrl, ctrlSlots, p.ringStage)
	p.outFile = newFileRingOut(meta, data, dataSize, p.metaStage)
	// The ring gates are credit gates too: count their stalls with the
	// regular channel's.
	p.outCtrl.gate.stalls = t.ins.stalls
	p.outFile.metaGate.stalls = t.ins.stalls
	p.outFile.dataGate.g.stalls = t.ins.stalls
	p.peerMu.Unlock()
	// If the peer failed while the setup frame was in flight, the fresh
	// rings must fail too, or a sender could park on them forever.
	select {
	case <-p.failed:
		p.failGates(p.failErr)
	default:
	}
	p.readyOnce.Do(func() { close(p.ready) })
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
				if p != nil {
					owners[p.flowIn] = regionOwner{p, inFlow}
					owners[p.inCtrl.region] = regionOwner{p, inCtrlRing}
					owners[p.inFile.meta] = regionOwner{p, inFileMeta}
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
		if m, err := DecodeMessage(payload); err == nil && m.From == p.id {
			// payload is the ring's scratch, which the next poll reuses:
			// Name is a copy already, a gossip digest is copied out here.
			if len(m.Data) > 0 {
				m.Data = append([]byte(nil), m.Data...)
			}
			select {
			case t.inbound <- m:
			case <-t.done:
				return true
			}
		}
		if ack, due := p.inCtrl.ackDue(uint64(t.cfg.batch)); due {
			t.ins.acct.add(core.MsgFlow, 8)
			t.writeFlowCounter(p, flowCtrlRing, ack)
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
		m := &Message{
			Type: core.MsgFile, From: p.id, Load: -1, ReqID: arr.reqID,
			Data: arr.buf.b, Offset: 0, Total: uint32(len(arr.buf.b)), buf: arr.buf,
		}
		select {
		case t.inbound <- m:
		case <-t.done:
			return true
		}
		if metaAck, virtAck, due := p.inFile.ackDue(uint64(t.cfg.batch)); due {
			t.ins.acct.add(core.MsgFlow, 16)
			t.writeFlowCounter(p, flowFileMeta, metaAck)
			t.writeFlowCounter(p, flowFileData, virtAck)
		}
	}
}

// readFlowCounters applies the counters the peer wrote into our memory:
// they gate our outbound rings and, under RMW flow control, the regular
// channel. One locked read; a gate is touched only if its counter moved.
func (t *viaTransport) readFlowCounters(p *viaPeer) bool {
	var buf [flowRegionSize]byte
	if p.flowIn.Read(buf[:], 0) != nil {
		return false
	}
	p.peerMu.Lock()
	ctrl, file := p.outCtrl, p.outFile
	p.peerMu.Unlock()
	moved := false
	for i := range p.flowSeen {
		v := binary.LittleEndian.Uint64(buf[8*i:])
		if v == p.flowSeen[i] {
			continue
		}
		p.flowSeen[i] = v
		moved = true
		switch 8 * i {
		case flowRegChannel:
			p.regGate.setConsumed(int64(v))
		case flowCtrlRing:
			ctrl.gate.setConsumed(int64(v))
		case flowFileMeta:
			file.metaGate.setConsumed(int64(v))
		case flowFileData:
			file.dataGate.setConsumed(v)
		}
	}
	return moved
}
