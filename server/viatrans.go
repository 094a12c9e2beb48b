package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	layout  peerLayout
	nic     *via.NIC
	ln      *via.Listener
	inbound chan Message
	recvCQ  *via.CompletionQueue
	ins     transportInstruments

	// peersMu guards the peer table. peers[i] is the live channel to
	// node i and is replaced wholesale on reconnect; pending holds peers
	// whose VI exists (receives posted, setup expected) but which have
	// not been promoted into the table yet, so the receive thread can
	// route their frames.
	peersMu sync.RWMutex
	peers   []*viaPeer
	pending map[*via.VI]*viaPeer

	// dialing[j] is set while a Reconnect to node j runs.
	dialing []atomic.Bool

	// reconnects counts channels that replaced an earlier one (promote).
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
	self     int
	nodes    int
	version  netmodel.Version
	window   int
	batch    int
	chunk    int
	fileRing int
	account  *metrics.Registry // the node's account registry (Node.account)
	metrics  *metrics.Registry // Config.Metrics: registry-only families
	// trc, when non-nil, records credit-stall and staging-copy spans for
	// traced messages passing through the transport.
	trc   *tracing.Collector
	names nameTable // interns the names received messages carry
}

// The flow-control window, credit batch and regular-channel chunk size
// every node runs with; tests shrink them through viaConfig so small
// inputs stall on credit and chunk.
const (
	viaWindow     = 2 * core.DefaultWindow
	viaBatch      = core.DefaultCreditBatch
	viaChunkBytes = 32 << 10
)

// peerLayout is what a channel to one peer registers, decided by what
// this node's version writes (DESIGN.md "What a peer costs: registered
// memory"). A region no message of the version uses does not exist, and
// the setup frame announces handle 0 for it.
type peerLayout struct {
	ctrl bool // the control ring: Forward or Caching is RMW
	file bool // the file metadata and data rings: File is RMW
	flow bool // the flow region and its counter stage: Flow is RMW
	// regBuf bounds a regular-channel frame: the send stage and every
	// posted receive buffer are this size. A larger frame is refused at
	// the sender, its credit returned. It depends on the trace's names, so
	// the setup frame carries it too: both ends must agree on it.
	regBuf int
	// version indexes netmodel.Versions(); the setup frame carries it,
	// because the two ends of a channel must write the same regions.
	version byte
}

func newPeerLayout(cfg viaConfig) (peerLayout, error) {
	v := cfg.version
	idx := versionIndex(v)
	if idx < 0 {
		return peerLayout{}, fmt.Errorf("server: VIA version %q is none of V0-V5", v.Name)
	}
	rmw := func(s netmodel.Style) bool { return s == netmodel.StyleRMW }
	l := peerLayout{
		ctrl: rmw(v.Forward) || rmw(v.Caching), file: rmw(v.File), flow: rmw(v.Flow),
		version: byte(idx),
	}
	// The largest payload a regular frame carries: a directory-sync
	// segment, a file chunk when files ride this channel, a forward's name.
	payload := dirSyncSegBytes
	if !l.file {
		payload = max(payload, cfg.chunk)
	}
	for name := range cfg.names {
		payload = max(payload, len(name))
	}
	l.regBuf = msgHeaderLen + msgMaxExtLen + payload
	return l, nil
}

// versionIndex is v's place in netmodel.Versions(), by what it writes
// (its name aside); -1 if it is none of them.
func versionIndex(v netmodel.Version) int {
	for i, w := range netmodel.Versions() {
		if w.Name = v.Name; w == v {
			return i
		}
	}
	return -1
}

type viaPeer struct {
	id    int
	vi    *via.VI
	ready chan struct{}

	// failed closes when the channel to this peer is declared dead —
	// the VI broke, the node was marked down, or the peer was superseded
	// by a reconnect. failErr (written once, before the close) is the
	// reason; senders blocked on ready or on a credit gate observe it
	// instead of hanging.
	failed   chan struct{}
	failOnce sync.Once
	failErr  error

	// Regular channel: sendMu serializes reg's sends (encoded in regFrame)
	// and the ring writes.
	sendMu   sync.Mutex
	reg      outWrite
	regFrame []byte
	regGate  *creditGate
	// Receive-side bookkeeping (owned by the receive thread): the data
	// frames consumed, and how many of them the peer has been told of.
	consumed uint64
	regAck   ackBatch

	// Per-descriptor backing buffers for posted receives.
	recvRegions map[*via.Descriptor]*via.MemoryRegion
	// owned is every region registered for this channel, released
	// together by retirePeer; sendMu guards it once the channel is in use,
	// for fileStage joins it then.
	owned []*via.MemoryRegion

	// Remote-memory-write machinery, per the version's layout: nil where
	// the version does not write.
	ringStage *via.MemoryRegion // slot staging for control-ring writes
	metaStage *via.MemoryRegion // metadata staging for file-ring writes
	// fileStage is payload staging for 1-copy file sends, registered by
	// the first send that needs it (sendFileRMW); sendMu guards it.
	fileStage *via.MemoryRegion

	flowIn *via.MemoryRegion // peers write consumed counters here
	inCtrl *slotRing
	inFile *fileRingIn
	// flowSeen is what the poll thread last read from each flowIn
	// counter: only a counter that moved touches its gate.
	flowSeen [flowCounters]uint64

	// Set once, when the peer's setup frame arrives and before ready
	// closes; peerMu is for whoever cannot wait for ready (failGates).
	peerMu  sync.Mutex
	outCtrl *slotRing
	outFile *fileRingOut

	// Credit write-back: ack[i] stages cumulative counter i and
	// remote-writes it into the peer's flow region (its remote handle
	// arrives with the setup frame). Every counter has one writer
	// goroutine — the receive thread for the regular channel, the poll
	// thread for the rings — so none of this is locked.
	ack [flowCounters]outWrite
}

const setupMagic = 0xFF

func newViaTransport(nic *via.NIC, cfg viaConfig) (*viaTransport, error) {
	layout, err := newPeerLayout(cfg)
	if err != nil {
		return nil, err
	}
	t := &viaTransport{
		cfg:     cfg,
		layout:  layout,
		nic:     nic,
		inbound: make(chan Message, 1024),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		peers:   make([]*viaPeer, cfg.nodes),
		dialing: make([]atomic.Bool, cfg.nodes),
		pending: make(map[*via.VI]*viaPeer),
		ins:     newTransportInstruments(cfg.account, cfg.self),

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

// connect brings this node's side of the VI mesh up the way a broken
// channel comes back: lower-indexed peers dial in through the accept
// loop, and this node dials each higher-indexed one with Reconnect. With
// await it returns the first dial error, or nil once every dialed
// channel has exchanged setup frames; an acceptor promotes its channel
// before it sends the setup frame the dialer waits for, so by then the
// channel is in both peer tables. Without await the dials run in the
// background, and a peer that is not up yet is found by the health
// prober, as after a crash.
func (t *viaTransport) connect(await bool) error {
	t.wg.Add(3)
	go t.recvThread()
	go t.pollThread()
	go t.acceptLoop()
	errc := make(chan error, t.cfg.nodes)
	for j := t.cfg.self + 1; j < t.cfg.nodes; j++ {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			errc <- t.Reconnect(j)
		}()
	}
	for j := t.cfg.self + 1; await && j < t.cfg.nodes; j++ {
		if err := <-errc; err != nil {
			return err
		}
	}
	return nil
}

// setupTimeout bounds the wait for a peer's setup frame.
const setupTimeout = 30 * time.Second

// awaitSetup waits, setupTimeout long, for p's setup frame.
func (t *viaTransport) awaitSetup(p *viaPeer) error {
	timer := time.NewTimer(setupTimeout)
	defer timer.Stop()
	select {
	case <-p.ready:
		return nil
	case <-p.failed:
		return p.failErr
	case <-timer.C:
		return fmt.Errorf("server: node %d: no setup frame from %d", t.cfg.self, p.id)
	case <-t.done:
		return via.ErrClosed
	}
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
		t.reconnects.Inc()
		old.fail(fmt.Errorf("%w: node %d", errSuperseded, p.id))
		t.retirePeer(old)
	}
}

// retirePeer tears down a superseded channel's resources.
func (t *viaTransport) retirePeer(p *viaPeer) {
	p.vi.Close()
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	for _, r := range p.owned {
		_ = t.nic.DeregisterMemory(r)
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

// Reconnect dials the channel to dst: the first one, from connect, or a
// fresh one after a failure. The VIA error model makes broken VIs
// permanent, so recovery is a fresh VI plus a new setup-frame exchange —
// reconfigure-and-resume, not resume-in-place. Only the lower-indexed
// side dials (errPassiveRole otherwise), and one dial per peer at a time
// (errDialing otherwise), so both ends promote the same channel.
func (t *viaTransport) Reconnect(dst int) error {
	if dst == t.cfg.self || dst < 0 || dst >= t.cfg.nodes {
		return fmt.Errorf("server: bad reconnect destination %d", dst)
	}
	if dst < t.cfg.self {
		return errPassiveRole
	}
	if !t.dialing[dst].CompareAndSwap(false, true) {
		return errDialing
	}
	defer t.dialing[dst].Store(false)
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
	if err := p.vi.Connect(fabricAddr(dst), fmt.Sprintf("press-%d", dst)); err != nil {
		t.removePending(p)
		t.retirePeer(p)
		return err
	}
	// Promote before the setup exchange: the peer's frames may arrive
	// the moment it accepts, and senders should queue on the new
	// channel (blocking on ready) rather than the dead one.
	t.promote(p)
	err = t.sendSetup(p)
	if err == nil {
		err = t.awaitSetup(p)
	}
	if err != nil {
		p.fail(err)
	}
	return err
}

// acceptLoop admits every channel a lower-indexed peer dials: the first
// one, and the fresh VI that supersedes a dead one.
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
		id, err := nodeIndex(remote, t.cfg.nodes)
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
// the reason (nil: the transport is closing) instead of waiting on
// credit from a dead peer — the "in-flight waiters fail over
// immediately" half of failover.
func (p *viaPeer) failGates(err error) {
	p.regGate.fail(err)
	p.peerMu.Lock()
	defer p.peerMu.Unlock()
	if p.outCtrl != nil {
		p.outCtrl.gate.fail(err)
	}
	if p.outFile != nil {
		p.outFile.meta.gate.fail(err)
		p.outFile.dataCredit.fail(err)
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

// nodeIndex is the node of the given nodes whose fabric address addr is.
func nodeIndex(addr string, nodes int) (int, error) {
	for i := 0; i < nodes; i++ {
		if fabricAddr(i) == addr {
			return i, nil
		}
	}
	return 0, fmt.Errorf("server: unknown fabric address %q", addr)
}

// newPeer registers the memory a channel to one peer needs under this
// node's version (t.layout) — the regular channel's send stage and
// receive buffers, and only the rings, stages and flow region the
// version writes — and posts the receive descriptors, all before the VI
// connects.
func (t *viaTransport) newPeer() (*viaPeer, error) {
	vi, err := t.nic.CreateVI(via.ReliableDelivery, 2*t.cfg.window+16)
	if err != nil {
		return nil, err
	}
	vi.SetRecvCQ(t.recvCQ)
	p := &viaPeer{
		id:          -1,
		vi:          vi,
		ready:       make(chan struct{}),
		failed:      make(chan struct{}),
		regGate:     newCreditGate("regular", t.cfg.window, t.ins.stalls, t.cfg.trc),
		recvRegions: make(map[*via.Descriptor]*via.MemoryRegion),
	}
	// register is sticky on its first error: one check covers them all.
	register := func(size int) (r *via.MemoryRegion) {
		if err == nil {
			r, err = t.register(p, size)
		}
		return r
	}
	l := t.layout
	regStage := register(l.regBuf)
	var ackReg, ctrlIn, metaIn, dataIn *via.MemoryRegion
	if l.flow {
		p.flowIn, ackReg = register(flowRegionSize), register(flowRegionSize)
	}
	if l.ctrl {
		p.ringStage, ctrlIn = register(ctrlSlotSize), register(ctrlSlots*ctrlSlotSize)
	}
	if l.file {
		p.metaStage, metaIn = register(fileMetaSlotSize), register(fileMetaSlots*fileMetaSlotSize)
		dataIn = register(t.cfg.fileRing)
	}
	if err != nil {
		return nil, err
	}
	p.reg = newOutWrite("regular-send", vi, 0, regStage, 0, l.regBuf)
	if l.flow {
		for i := range p.ack {
			p.ack[i] = newOutWrite("flow-counter", vi, 0, ackReg, 8*i, 8)
		}
		p.flowIn.EnableRemoteWrite()
	}
	if l.ctrl {
		p.inCtrl = newSlotRingIn(ctrlRing, ctrlIn)
	}
	if l.file {
		p.inFile = newFileRingIn(metaIn, dataIn)
	}

	// Post the regular channel's receive descriptors: window data slots
	// plus slack for flow-control and setup messages.
	for i := 0; i < t.cfg.window+8; i++ {
		region := register(l.regBuf)
		if err != nil {
			return nil, err
		}
		d := via.MustDescriptor(via.Segment{Region: region, Len: l.regBuf})
		p.recvRegions[d] = region
		if err := vi.PostRecv(d); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// register registers size fresh bytes for p's channel, which retirePeer
// releases. The caller owns p.owned: newPeer before the channel is in
// use, the holder of sendMu after.
func (t *viaTransport) register(p *viaPeer, size int) (*via.MemoryRegion, error) {
	r, err := t.nic.RegisterMemory(make([]byte, size))
	if err != nil {
		return nil, err
	}
	p.owned = append(p.owned, r)
	return r, nil
}

// setupLen is a setup frame: magic, the sender's version index, the
// handles of its flow region, control ring, file metadata ring and file
// data ring (0 for one its version does not write), the data ring's size,
// and its regular-channel frame bound.
const setupLen = 1 + 1 + 4*4 + 8 + 4

// sendSetup announces this node's version, frame bound and buffer
// handles to the peer.
func (t *viaTransport) sendSetup(p *viaPeer) error {
	var frame [setupLen]byte
	frame[0], frame[1] = setupMagic, t.layout.version
	ctrl, meta, data := p.inRegions()
	for i, r := range []*via.MemoryRegion{p.flowIn, ctrl, meta, data} {
		if r != nil {
			binary.LittleEndian.PutUint32(frame[2+4*i:], uint32(r.Handle()))
		}
	}
	binary.LittleEndian.PutUint64(frame[18:], uint64(t.cfg.fileRing))
	binary.LittleEndian.PutUint32(frame[26:], uint32(t.layout.regBuf))
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return p.reg.transfer(nil, 0, frame[:], 0)
}

// inRegions returns the rings the peer remote-writes on this node, nil
// where the version writes none.
func (p *viaPeer) inRegions() (ctrl, meta, data *via.MemoryRegion) {
	if p.inCtrl != nil {
		ctrl = p.inCtrl.region
	}
	if p.inFile != nil {
		meta, data = p.inFile.meta.region, p.inFile.data
	}
	return ctrl, meta, data
}

// style returns the configured style for a message type.
func (t *viaTransport) style(mt core.MsgType) netmodel.Style {
	switch mt {
	case core.MsgForward, core.MsgReplicate:
		// A replica pull is request control, same class as a forward.
		return t.cfg.version.Forward
	case core.MsgCaching, core.MsgDirLookup, core.MsgDirReply, core.MsgDirInval:
		// Sharded-directory traffic is directory control, same class as
		// caching broadcasts: under V1+ it rides the RMW path, which is
		// what invalidates read-side caches "over the existing RMW path".
		return t.cfg.version.Caching
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
	// so the send bounces to the fresh channel (supersedeBounces) instead
	// of surfacing an error that would be misread as a death.
	for bounce := 0; ; bounce++ {
		p := t.peer(dst)
		if p == nil {
			return fmt.Errorf("server: no channel to %d", dst)
		}
		err := t.sendOn(p, m)
		if !bounces(err) || bounce == supersedeBounces || t.peer(dst) == p {
			return err
		}
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
// reserved slack. The credit is claimed outside sendMu, so a sender
// parked on the window never keeps a flow message from going out; one
// that does not encode gives it back. The three counted sites, Encode's
// appends into regFrame, grow it to the largest frame once.
//
//presslint:hotpath budget=3
func (t *viaTransport) sendRegular(p *viaPeer, m *Message, takeCredit bool) error {
	var gate *creditGate
	if takeCredit {
		gate = p.regGate
		if err := gate.acquire(1, m.TraceID, m.ParentSpan); err != nil {
			return err
		}
	}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	var cp *tracing.Span
	if m.Type == core.MsgFile {
		cp = t.cfg.trc.StartSpan("staging-copy", m.TraceID, m.ParentSpan)
	}
	frame, err := m.Encode(p.regFrame[:0])
	if err != nil {
		cp.Cancel()
		if gate != nil {
			gate.release(1)
		}
		return err
	}
	p.regFrame = frame
	if m.Type == core.MsgFile {
		// Regular messages stage the payload into the registered send
		// buffer: the sender-side copy of versions 0-2.
		t.ins.copied.Add(int64(len(m.Data)))
		cp.Annotate("bytes", int64(len(m.Data)))
	}
	cp.End()
	t.ins.acct.add(m.Type, int64(len(frame)))
	return p.reg.transfer(gate, 1, frame, 0)
}

// sendFileChunked splits a large file over multiple regular messages.
func (t *viaTransport) sendFileChunked(p *viaPeer, m *Message) error {
	total := len(m.Data)
	for off := 0; off < total; off += t.cfg.chunk {
		end := off + t.cfg.chunk
		if end > total {
			end = total
		}
		chunk := Message{
			Type: core.MsgFile, From: m.From, Load: m.Load, ReqID: m.ReqID,
			Data: m.Data[off:end], Offset: uint32(off), Total: uint32(total),
			TraceID: m.TraceID, ParentSpan: m.ParentSpan,
		}
		if err := t.sendRegular(p, &chunk, true); err != nil {
			return err
		}
	}
	return nil
}

// sendCtrlRMW writes a control message into the peer's circular buffer.
// The three counted sites are Encode's appends, into a stack slot.
//
//presslint:hotpath budget=3
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
	return p.outCtrl.writeEntry(frame, m.TraceID, m.ParentSpan)
}

// sendFileRMW transfers a file with remote memory writes: the data into
// the peer's large circular buffer, then a metadata message into the
// small one. Under zero-copy transmit (version 5) the data is written
// straight from the registered cache page; otherwise it is staged first
// (the sender-side copy of versions 0-4), in a staging area the first
// such file registers.
//
//presslint:hotpath budget=0
func (t *viaTransport) sendFileRMW(p *viaPeer, m *Message) error {
	t.ins.acct.add(core.MsgFile, int64(len(m.Data)))
	t.ins.acct.add(core.MsgFile, core.FileMetaBytes)
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	src := m.SrcRegion
	srcOff := m.SrcOffset
	if !t.cfg.version.ZeroCopyTX || src == nil {
		// Sender-side staging copy, eliminated by version 5's
		// registration of all cached pages.
		if p.fileStage == nil {
			// A retired channel has failed first: registering now would
			// outlive retirePeer's release.
			if err := p.downErr(); err != nil {
				return err
			}
			//presslint:alloc-gated once per channel: the staging area is registered by the first file that needs a copy (every file on V3/V4, on V5 only one without a registered cache page)
			stage, err := t.register(p, t.cfg.fileRing)
			if err != nil {
				return err
			}
			p.fileStage = stage
		}
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
	return p.outFile.writeFile(src, srcOff, len(m.Data), m.ReqID, m.TraceID, m.ParentSpan)
}

func (t *viaTransport) Inbound() <-chan Message { return t.inbound }

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
			p.failGates(nil)
		}
		t.ln.Close()
		t.recvCQ.Close()
		t.nic.Close()
		t.wg.Wait()
		close(t.inbound)
	})
	return nil
}
