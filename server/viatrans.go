package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"press/core"
	"press/metrics"
	"press/netmodel"
	"press/tracing"
	"press/via"
)

// viaTransport connects the cluster over the software VIA of
// internal/via, mirroring PRESS's communication architecture
// (Section 2.2): VI end-points with each other node, a receive thread
// blocked on a completion queue, window-based flow control, and — per
// the version matrix of Table 3 — remote-memory-write circular buffers
// for control messages and file transfers, with optional zero-copy.
type viaTransport struct {
	cfg     viaConfig
	nic     *via.NIC
	ln      *via.Listener
	inbound chan *Message
	recvCQ  *via.CompletionQueue
	ins     transportInstruments

	// addrs is the fabric address of every node, fixed at connect time;
	// reconnects dial the same address a crashed-and-restarted peer
	// re-registers.
	addrs []string

	// peersMu guards the peer table. peers[i] is the live channel to
	// node i and is replaced wholesale on reconnect; pending holds peers
	// whose VI exists (receives posted, setup expected) but which have
	// not been promoted into the table yet, so the receive thread can
	// route their frames.
	peersMu sync.RWMutex
	peers   []*viaPeer
	pending map[*via.VI]*viaPeer

	reconnects *metrics.Counter

	// kick wakes the poll thread for something the NIC's doorbell does
	// not announce: the peer table changed, or a peer's rings came into
	// use. Capacity one; raising it never blocks.
	kick chan struct{}

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// viaConfig is the transport slice of the server configuration.
type viaConfig struct {
	self       int
	nodes      int
	version    netmodel.Version
	window     int
	batch      int
	chunk      int
	fileRing   int
	rmwTimeout time.Duration
	retry      RetryConfig
	metrics    *metrics.Registry
	// trc, when non-nil, records credit-stall and staging-copy spans for
	// traced messages passing through the transport.
	trc *tracing.Collector
}

// The flow-control window, credit batch and regular-channel chunk size
// every node runs with; tests shrink them through viaConfig so small
// inputs stall on credit and chunk.
const (
	viaWindow     = 2 * core.DefaultWindow
	viaBatch      = core.DefaultCreditBatch
	viaChunkBytes = 32 << 10
)

type viaPeer struct {
	id    int
	vi    *via.VI
	ready chan struct{}
	// readyOnce guards the ready close: a duplicate setup frame must
	// not panic a reconnecting transport.
	readyOnce sync.Once

	// failed closes when the channel to this peer is declared dead —
	// the VI broke, the node was marked down, or the peer was superseded
	// by a reconnect. failErr (written once, before the close) is the
	// reason; senders blocked on ready or on a credit gate observe it
	// instead of hanging.
	failed   chan struct{}
	failOnce sync.Once
	failErr  error

	// Regular channel.
	sendMu   sync.Mutex
	regStage *via.MemoryRegion
	regGate  *creditGate
	// Receive-side bookkeeping (owned by the receive thread).
	consumed int64

	// Per-descriptor backing buffers for posted receives.
	recvRegions map[*via.Descriptor]*via.MemoryRegion

	// Remote-memory-write machinery (always allocated; used per the
	// version's style flags).
	ringStage *via.MemoryRegion // slot staging for control-ring writes
	metaStage *via.MemoryRegion // metadata staging for file-ring writes
	fileStage *via.MemoryRegion // payload staging for 1-copy file sends

	flowIn *via.MemoryRegion // peers write consumed counters here
	inCtrl *rmwRingIn
	inFile *fileRingIn
	// flowSeen is what the poll thread last read from each flowIn
	// counter: only a counter that moved touches its gate.
	flowSeen [flowCounters]uint64

	peerMu         sync.Mutex
	outCtrl        *rmwRingOut  // set once the peer's setup frame arrives
	outFile        *fileRingOut // "
	peerFlowHandle via.Handle

	// Credit write-back: ackReg stages the cumulative counters this node
	// remote-writes into the peer's flow region, one descriptor each.
	// Every counter has one writer goroutine — the receive thread for
	// the regular channel (regAcked is its running count), the poll
	// thread for the rings — so none of this is locked.
	ackReg   *via.MemoryRegion
	ackDesc  [flowCounters]*via.Descriptor
	regAcked int64
}

const setupMagic = 0xFF

func newViaTransport(nic *via.NIC, cfg viaConfig) (*viaTransport, error) {
	if cfg.rmwTimeout <= 0 {
		cfg.rmwTimeout = DefaultRMWTimeout
	}
	var err error
	if cfg.retry, err = cfg.retry.withDefaults(); err != nil {
		return nil, err
	}
	t := &viaTransport{
		cfg:     cfg,
		nic:     nic,
		inbound: make(chan *Message, 1024),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		peers:   make([]*viaPeer, cfg.nodes),
		pending: make(map[*via.VI]*viaPeer),
		ins:     newTransportInstruments(cfg.metrics, cfg.self),

		// Registry-only (nothing else reads it): nil, and free, without one.
		reconnects: cfg.metrics.Counter("press_reconnects_total", fmt.Sprintf("node=%d", cfg.self)),
	}
	cq, err := via.NewCompletionQueue(cfg.nodes * (cfg.window + 16))
	if err != nil {
		return nil, err
	}
	t.recvCQ = cq
	t.ln, err = nic.Listen(fmt.Sprintf("press-%d", cfg.self))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// connect establishes the VI mesh: this node accepts from lower-indexed
// peers and dials higher-indexed ones, then exchanges setup frames
// carrying the memory handles of the remote-write buffers. Afterwards a
// persistent accept loop takes over the listener, so peers whose
// channel later breaks can re-dial.
func (t *viaTransport) connect(addrs []string) error {
	t.addrs = addrs
	errc := make(chan error, t.cfg.nodes)
	var setup sync.WaitGroup
	for range make([]struct{}, t.cfg.self) {
		setup.Add(1)
		go func() {
			defer setup.Done()
			// Memory is registered and receive descriptors posted
			// before the connection exists, so the peer's first frame
			// always finds a descriptor.
			p, err := t.newPeer()
			if err != nil {
				errc <- err
				return
			}
			remote, err := t.ln.Accept(p.vi)
			if err != nil {
				errc <- err
				return
			}
			id, err := nodeIndex(remote, addrs)
			if err != nil {
				errc <- err
				return
			}
			p.id = id
			t.setPeer(id, p)
			errc <- nil
		}()
	}
	for j := t.cfg.self + 1; j < t.cfg.nodes; j++ {
		setup.Add(1)
		go func(j int) {
			defer setup.Done()
			p, err := t.newPeer()
			if err != nil {
				errc <- err
				return
			}
			if err := p.vi.Connect(addrs[j], fmt.Sprintf("press-%d", j)); err != nil {
				errc <- err
				return
			}
			p.id = j
			t.setPeer(j, p)
			errc <- nil
		}(j)
	}
	setup.Wait()
	for i := 0; i < t.cfg.nodes-1; i++ {
		if err := <-errc; err != nil {
			t.Close()
			return err
		}
	}
	// Receive machinery first, then announce our buffers to each peer.
	t.wg.Add(2)
	go t.recvThread()
	go t.pollThread()
	for id := 0; id < t.cfg.nodes; id++ {
		p := t.peer(id)
		if id == t.cfg.self || p == nil {
			continue
		}
		if err := t.sendSetup(p); err != nil {
			t.Close()
			return err
		}
	}
	// Wait for every peer's setup frame. One timer is reused across the
	// loop; each peer gets a fresh full timeout.
	setupTimer := time.NewTimer(t.cfg.rmwTimeout)
	defer setupTimer.Stop()
	for id := 0; id < t.cfg.nodes; id++ {
		p := t.peer(id)
		if id == t.cfg.self || p == nil {
			continue
		}
		if !setupTimer.Stop() {
			select {
			case <-setupTimer.C:
			default:
			}
		}
		setupTimer.Reset(t.cfg.rmwTimeout)
		select {
		case <-p.ready:
		case <-setupTimer.C:
			t.Close()
			return fmt.Errorf("server: node %d: no setup frame from %d", t.cfg.self, id)
		case <-t.done:
			return via.ErrClosed
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return nil
}

// setPeer installs the live channel for node id.
func (t *viaTransport) setPeer(id int, p *viaPeer) {
	t.peersMu.Lock()
	t.peers[id] = p
	t.peersMu.Unlock()
	t.kickPoller()
}

// kickPoller makes the poll thread re-read the peer table and look at
// every live peer's rings.
func (t *viaTransport) kickPoller() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// peer returns the live channel to node dst, nil if none.
func (t *viaTransport) peer(dst int) *viaPeer {
	t.peersMu.RLock()
	defer t.peersMu.RUnlock()
	if dst < 0 || dst >= len(t.peers) {
		return nil
	}
	return t.peers[dst]
}

func (t *viaTransport) addPending(p *viaPeer) {
	t.peersMu.Lock()
	t.pending[p.vi] = p
	t.peersMu.Unlock()
}

func (t *viaTransport) removePending(p *viaPeer) {
	t.peersMu.Lock()
	delete(t.pending, p.vi)
	t.peersMu.Unlock()
}

// promote makes p the live channel to p.id, retiring any predecessor:
// its gates fail so parked senders bounce to the new channel, its VI
// closes, and its registered memory is released.
func (t *viaTransport) promote(p *viaPeer) {
	t.peersMu.Lock()
	old := t.peers[p.id]
	t.peers[p.id] = p
	delete(t.pending, p.vi)
	t.peersMu.Unlock()
	t.kickPoller()
	if old != nil && old != p {
		old.fail(fmt.Errorf("%w: node %d", errSuperseded, p.id))
		t.retirePeer(old)
	}
}

// retirePeer tears down a superseded channel's resources.
func (t *viaTransport) retirePeer(p *viaPeer) {
	p.vi.Close()
	for _, r := range p.recvRegions {
		_ = t.nic.DeregisterMemory(r)
	}
	for _, r := range []*via.MemoryRegion{
		p.regStage, p.ringStage, p.metaStage, p.fileStage, p.ackReg,
		p.flowIn, p.inCtrl.region, p.inFile.meta, p.inFile.data,
	} {
		if r != nil {
			_ = t.nic.DeregisterMemory(r)
		}
	}
}

// PeerDown marks the channel to dst dead: senders blocked on its
// window or rings fail immediately with the reason, and future sends
// fail fast until a reconnect promotes a fresh channel.
func (t *viaTransport) PeerDown(dst int, reason error) {
	if p := t.peer(dst); p != nil {
		p.fail(fmt.Errorf("%w: node %d: %v", ErrPeerDown, dst, reason))
	}
}

// Reconnect re-establishes the channel to dst after a failure. The VIA
// error model makes broken VIs permanent, so recovery is a fresh VI
// plus a new setup-frame exchange — reconfigure-and-resume, not
// resume-in-place. Only the lower-indexed side dials (errPassiveRole
// otherwise), mirroring the initial mesh construction.
func (t *viaTransport) Reconnect(dst int) error {
	if dst == t.cfg.self || dst < 0 || dst >= t.cfg.nodes {
		return fmt.Errorf("server: bad reconnect destination %d", dst)
	}
	if dst < t.cfg.self {
		return errPassiveRole
	}
	select {
	case <-t.done:
		return via.ErrClosed
	default:
	}
	p, err := t.newPeer()
	if err != nil {
		return err
	}
	p.id = dst
	t.addPending(p)
	if err := p.vi.Connect(t.addrs[dst], fmt.Sprintf("press-%d", dst)); err != nil {
		t.removePending(p)
		t.retirePeer(p)
		return err
	}
	// Promote before the setup exchange: the peer's frames may arrive
	// the moment it accepts, and senders should queue on the new
	// channel (blocking on ready) rather than the dead one.
	t.promote(p)
	if err := t.sendSetup(p); err != nil {
		p.fail(err)
		return err
	}
	setupTimer := time.NewTimer(t.cfg.rmwTimeout)
	defer setupTimer.Stop()
	select {
	case <-p.ready:
	case <-p.failed:
		return p.failErr
	case <-setupTimer.C:
		err := fmt.Errorf("server: node %d: no setup frame from %d after reconnect", t.cfg.self, dst)
		p.fail(err)
		return err
	case <-t.done:
		return via.ErrClosed
	}
	t.reconnects.Inc()
	return nil
}

// acceptLoop serves post-mesh connection attempts: a peer that lost its
// channel to us dials again, and the fresh VI supersedes the dead one.
func (t *viaTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		p, err := t.newPeer()
		if err != nil {
			return // NIC closing down
		}
		t.addPending(p)
		remote, err := t.ln.Accept(p.vi)
		if err != nil {
			t.removePending(p)
			return // listener closed
		}
		id, err := nodeIndex(remote, t.addrs)
		if err != nil || id == t.cfg.self {
			t.removePending(p)
			t.retirePeer(p)
			continue
		}
		p.id = id
		t.promote(p)
		if err := t.sendSetup(p); err != nil {
			p.fail(err)
		}
		t.reconnects.Inc()
	}
}

// fail declares the channel dead with the given reason. Idempotent;
// the first reason wins.
func (p *viaPeer) fail(err error) {
	p.failOnce.Do(func() {
		p.failErr = err
		close(p.failed)
	})
	p.failGates(err)
}

// failGates fails every flow-control gate so blocked senders wake with
// the reason instead of waiting on credit from a dead peer — the
// "in-flight waiters fail over immediately" half of failover.
func (p *viaPeer) failGates(err error) {
	p.regGate.fail(err)
	p.peerMu.Lock()
	oc, of := p.outCtrl, p.outFile
	p.peerMu.Unlock()
	if oc != nil {
		oc.gate.fail(err)
	}
	if of != nil {
		of.metaGate.fail(err)
		of.dataGate.g.fail(err)
	}
}

// downErr is what Send reports for a failed channel. A supersede keeps
// its own identity — it means "retry on the fresh channel", not "the
// peer is dead" — everything else is folded into ErrPeerDown.
func (p *viaPeer) downErr() error {
	select {
	case <-p.failed:
		if errors.Is(p.failErr, ErrPeerDown) || errors.Is(p.failErr, errSuperseded) {
			return p.failErr
		}
		return fmt.Errorf("%w: node %d: %v", ErrPeerDown, p.id, p.failErr)
	default:
		return nil
	}
}

func nodeIndex(addr string, addrs []string) (int, error) {
	for i, a := range addrs {
		if a == addr {
			return i, nil
		}
	}
	return 0, fmt.Errorf("server: unknown fabric address %q", addr)
}

func (t *viaTransport) newVI() (*via.VI, error) {
	vi, err := t.nic.CreateVI(via.ReliableDelivery, 2*t.cfg.window+16)
	if err != nil {
		return nil, err
	}
	vi.SetRecvCQ(t.recvCQ)
	return vi, nil
}

// newPeer allocates and registers all per-peer memory — receive
// buffers for the regular channel, staging areas, the inbound control
// and file rings, and the flow-counter region — and posts the receive
// descriptors, all before the VI connects.
func (t *viaTransport) newPeer() (*viaPeer, error) {
	vi, err := t.newVI()
	if err != nil {
		return nil, err
	}
	regMsgBuf := t.cfg.chunk + msgHeaderLen + maxNameLen + 64
	p := &viaPeer{
		id:          -1,
		vi:          vi,
		ready:       make(chan struct{}),
		failed:      make(chan struct{}),
		regGate:     newCreditGate(t.cfg.window),
		recvRegions: make(map[*via.Descriptor]*via.MemoryRegion),
	}
	p.regGate.stalls = t.ins.stalls
	if p.regStage, err = t.nic.RegisterMemory(make([]byte, regMsgBuf)); err != nil {
		return nil, err
	}
	if p.ringStage, err = t.nic.RegisterMemory(make([]byte, ctrlSlotSize)); err != nil {
		return nil, err
	}
	if p.metaStage, err = t.nic.RegisterMemory(make([]byte, fileMetaSlotSize)); err != nil {
		return nil, err
	}
	if p.fileStage, err = t.nic.RegisterMemory(make([]byte, t.cfg.fileRing)); err != nil {
		return nil, err
	}
	if p.ackReg, err = t.nic.RegisterMemory(make([]byte, flowRegionSize)); err != nil {
		return nil, err
	}
	for i := range p.ackDesc {
		p.ackDesc[i] = via.MustDescriptor(via.Segment{Region: p.ackReg, Offset: 8 * i, Len: 8})
	}
	flowIn, err := t.nic.RegisterMemory(make([]byte, flowRegionSize))
	if err != nil {
		return nil, err
	}
	flowIn.EnableRemoteWrite()
	p.flowIn = flowIn
	ctrlIn, err := t.nic.RegisterMemory(make([]byte, ctrlSlots*ctrlSlotSize))
	if err != nil {
		return nil, err
	}
	p.inCtrl = newRingIn(ctrlIn)
	metaIn, err := t.nic.RegisterMemory(make([]byte, fileMetaSlots*fileMetaSlotSize))
	if err != nil {
		return nil, err
	}
	dataIn, err := t.nic.RegisterMemory(make([]byte, t.cfg.fileRing))
	if err != nil {
		return nil, err
	}
	p.inFile = newFileRingIn(metaIn, dataIn)

	// Post the regular channel's receive descriptors: window data slots
	// plus slack for flow-control and setup messages.
	for i := 0; i < t.cfg.window+8; i++ {
		region, err := t.nic.RegisterMemory(make([]byte, regMsgBuf))
		if err != nil {
			return nil, err
		}
		d := via.MustDescriptor(via.Segment{Region: region, Offset: 0, Len: regMsgBuf})
		p.recvRegions[d] = region
		if err := vi.PostRecv(d); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sendSetup announces this node's buffer handles to the peer.
func (t *viaTransport) sendSetup(p *viaPeer) error {
	var frame [1 + 4*4 + 8]byte
	frame[0] = setupMagic
	binary.LittleEndian.PutUint32(frame[1:], uint32(p.flowIn.Handle()))
	binary.LittleEndian.PutUint32(frame[5:], uint32(p.inCtrl.region.Handle()))
	binary.LittleEndian.PutUint32(frame[9:], uint32(p.inFile.meta.Handle()))
	binary.LittleEndian.PutUint32(frame[13:], uint32(p.inFile.data.Handle()))
	binary.LittleEndian.PutUint64(frame[17:], uint64(t.cfg.fileRing))
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return t.rawSend(p, frame[:])
}

// rawSend stages and sends one frame over the regular channel; caller
// holds sendMu.
func (t *viaTransport) rawSend(p *viaPeer, frame []byte) error {
	if err := p.regStage.Write(frame, 0); err != nil {
		return err
	}
	d := via.MustDescriptor(via.Segment{Region: p.regStage, Offset: 0, Len: len(frame)})
	if err := t.postSendRetry(p.vi, d); err != nil {
		return err
	}
	return waitRMW(d, nil, "regular-send", t.cfg.rmwTimeout)
}

// postSendRetry retries a bounded number of times with capped
// exponential backoff when the send queue is momentarily full (flow
// control keeps this rare); exhausting the budget surfaces ErrQueueFull
// to the caller's failure handling.
func (t *viaTransport) postSendRetry(vi *via.VI, d *via.Descriptor) error {
	pause := t.cfg.retry.Base
	var timer *time.Timer // reused: time.After would leak one per attempt
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 1; ; attempt++ {
		//presslint:ignore descriptor-lifecycle re-post only happens after ErrQueueFull, which means the NIC never accepted the descriptor
		err := vi.PostSend(d)
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

// style returns the configured style for a message type.
func (t *viaTransport) style(mt core.MsgType) netmodel.Style {
	switch mt {
	case core.MsgForward:
		return t.cfg.version.Forward
	case core.MsgCaching:
		return t.cfg.version.Caching
	case core.MsgDirLookup, core.MsgDirReply, core.MsgDirInval:
		// Sharded-directory traffic is directory control, same class as
		// caching broadcasts: under V1+ it rides the RMW path, which is
		// what invalidates read-side caches "over the existing RMW path".
		return t.cfg.version.Caching
	case core.MsgReplicate:
		// A replica pull is request control, same class as a forward.
		return t.cfg.version.Forward
	case core.MsgDirSync:
		// Batched caching replays carry multi-KB name lists that do not
		// fit the 512-byte control-ring slots; they always ride the
		// regular channel.
		return netmodel.StyleRegular
	case core.MsgFile:
		return t.cfg.version.File
	case core.MsgFlow:
		return t.cfg.version.Flow
	default:
		return netmodel.StyleRegular
	}
}

func (t *viaTransport) Send(dst int, m *Message) error {
	if dst < 0 || dst >= t.cfg.nodes || dst == t.cfg.self {
		return fmt.Errorf("server: bad destination %d", dst)
	}
	// A reconnect can supersede the channel while a send rides it. That
	// is not a peer failure — the reconnect proves the peer is alive —
	// so the send bounces to the fresh channel instead of surfacing an
	// error that would be misread as a death. Bounded: each retry needs
	// an actually-new peer object, so this cannot spin in place.
	for attempt := 0; ; attempt++ {
		p := t.peer(dst)
		if p == nil {
			return fmt.Errorf("server: no channel to %d", dst)
		}
		err := t.sendOn(p, m)
		if errors.Is(err, errSuperseded) && attempt < 8 {
			if np := t.peer(dst); np != nil && np != p {
				continue
			}
		}
		return err
	}
}

// sendOn runs one send attempt over a specific channel.
func (t *viaTransport) sendOn(p *viaPeer, m *Message) error {
	select {
	case <-p.ready:
		// A channel can be both ready and failed; failed wins.
		if err := p.downErr(); err != nil {
			return err
		}
	case <-p.failed:
		return p.downErr()
	case <-t.done:
		return via.ErrClosed
	}
	m.From = t.cfg.self
	var err error
	switch {
	case t.style(m.Type) == netmodel.StyleRMW && m.Type == core.MsgFile:
		err = t.sendFileRMW(p, m)
	case t.style(m.Type) == netmodel.StyleRMW:
		err = t.sendCtrlRMW(p, m)
	case m.Type == core.MsgFile && len(m.Data) > t.cfg.chunk:
		err = t.sendFileChunked(p, m)
	default:
		err = t.sendRegular(p, m, m.Type != core.MsgFlow)
	}
	if err != nil {
		// The VI may have been closed out from under the send by a
		// concurrent promote; the supersede, not the broken-VI symptom,
		// is the real story.
		if de := p.downErr(); errors.Is(de, errSuperseded) {
			return de
		}
	}
	return err
}

// sendRegular transfers one message over the send/receive channel;
// data messages consume a flow-control credit, flow messages ride the
// reserved slack.
func (t *viaTransport) sendRegular(p *viaPeer, m *Message, takeCredit bool) error {
	if takeCredit {
		// Speculative credit-stall span: recorded only if the window was
		// actually exhausted, discarded otherwise.
		stall := t.cfg.trc.StartSpan("credit-stall", m.TraceID, m.ParentSpan)
		ok, stalled := p.regGate.acquire()
		if stalled {
			stall.AnnotateStr("gate", "regular")
			stall.End()
		} else {
			stall.Cancel()
		}
		if !ok {
			return p.regGate.closedErr()
		}
	}
	var cp *tracing.Span
	if m.Type == core.MsgFile {
		cp = t.cfg.trc.StartSpan("staging-copy", m.TraceID, m.ParentSpan)
	}
	frame := make([]byte, 0, m.EncodedLen())
	frame, err := m.Encode(frame)
	if err != nil {
		cp.Cancel()
		return err
	}
	t.ins.acct.add(m.Type, int64(len(frame)))
	if m.Type == core.MsgFile {
		// Regular messages stage the payload into the registered send
		// buffer: the sender-side copy of versions 0-2.
		t.ins.copied.Add(int64(len(m.Data)))
		cp.Annotate("bytes", int64(len(m.Data)))
	}
	cp.End()
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return t.rawSend(p, frame)
}

// sendFileChunked splits a large file over multiple regular messages.
func (t *viaTransport) sendFileChunked(p *viaPeer, m *Message) error {
	total := len(m.Data)
	for off := 0; off < total; off += t.cfg.chunk {
		end := off + t.cfg.chunk
		if end > total {
			end = total
		}
		chunk := &Message{
			Type: core.MsgFile, From: m.From, Load: m.Load, ReqID: m.ReqID,
			Data: m.Data[off:end], Offset: uint32(off), Total: uint32(total),
			TraceID: m.TraceID, ParentSpan: m.ParentSpan,
		}
		if err := t.sendRegular(p, chunk, true); err != nil {
			return err
		}
	}
	return nil
}

// sendCtrlRMW writes a control message into the peer's circular buffer.
func (t *viaTransport) sendCtrlRMW(p *viaPeer, m *Message) error {
	// A message that fits a slot encodes on the stack; one that does not
	// grows onto the heap and is refused by the ring.
	var buf [ctrlSlotSize]byte
	frame, err := m.Encode(buf[:0])
	if err != nil {
		return err
	}
	t.ins.acct.add(m.Type, int64(len(frame)))
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	out := p.ring()
	if out == nil {
		return via.ErrClosed
	}
	return out.write(p.vi, frame, t.cfg.rmwTimeout, t.cfg.trc, m.TraceID, m.ParentSpan)
}

// sendFileRMW transfers a file with remote memory writes: the data into
// the peer's large circular buffer, then a metadata message into the
// small one. Under zero-copy transmit (version 5) the data is written
// straight from the registered cache page; otherwise it is staged first
// (the sender-side copy of versions 0-4).
func (t *viaTransport) sendFileRMW(p *viaPeer, m *Message) error {
	t.ins.acct.add(core.MsgFile, int64(len(m.Data)))
	t.ins.acct.add(core.MsgFile, core.FileMetaBytes)
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	out := p.fileRing()
	if out == nil {
		return via.ErrClosed
	}
	src := m.SrcRegion
	srcOff := m.SrcOffset
	if !t.cfg.version.ZeroCopyTX || src == nil {
		// Sender-side staging copy, eliminated by version 5's
		// registration of all cached pages.
		cp := t.cfg.trc.StartSpan("staging-copy", m.TraceID, m.ParentSpan)
		if err := p.fileStage.Write(m.Data, 0); err != nil {
			cp.Cancel()
			return err
		}
		cp.Annotate("bytes", int64(len(m.Data)))
		cp.End()
		t.ins.copied.Add(int64(len(m.Data)))
		src, srcOff = p.fileStage, 0
	}
	return out.write(p.vi, src, srcOff, len(m.Data), m.ReqID,
		t.cfg.rmwTimeout, t.cfg.trc, m.TraceID, m.ParentSpan)
}

func (p *viaPeer) ring() *rmwRingOut {
	p.peerMu.Lock()
	defer p.peerMu.Unlock()
	return p.outCtrl
}

func (p *viaPeer) fileRing() *fileRingOut {
	p.peerMu.Lock()
	defer p.peerMu.Unlock()
	return p.outFile
}

func (t *viaTransport) Inbound() <-chan *Message { return t.inbound }

// Metrics snapshots the transport's counters. CopiedBytes reports
// staging and receive-side copies of file payloads; version 5 drives
// it to zero.
func (t *viaTransport) Metrics() TransportMetrics { return t.ins.metrics() }

func (t *viaTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.peersMu.RLock()
		all := make([]*viaPeer, 0, len(t.peers)+len(t.pending))
		for _, p := range t.peers {
			if p != nil {
				all = append(all, p)
			}
		}
		for _, p := range t.pending {
			all = append(all, p)
		}
		t.peersMu.RUnlock()
		for _, p := range all {
			p.regGate.close()
			p.peerMu.Lock()
			if p.outCtrl != nil {
				p.outCtrl.gate.close()
			}
			if p.outFile != nil {
				p.outFile.metaGate.close()
				p.outFile.dataGate.close()
			}
			p.peerMu.Unlock()
		}
		t.ln.Close()
		t.recvCQ.Close()
		t.nic.Close()
		t.wg.Wait()
		close(t.inbound)
	})
	return nil
}
