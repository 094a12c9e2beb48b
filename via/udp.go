package via

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// UDPBridge extends a Fabric across OS processes: for each remote
// process it creates a local *proxy NIC* carrying the remote node's
// fabric address, so lookups, connection brokering, fault injection,
// and VI binding all behave exactly as in-process — and everything
// delivered INTO a proxy (sends, remote memory writes, connection
// breaks) is framed over a net.PacketConn to the process that owns the
// real NIC, where the mirror-image proxy feeds it into the real VI.
// Descriptor, credit, and RMW semantics are preserved end to end: a
// missing receive descriptor still breaks a reliable channel (the
// break is relayed back), credits ride as ordinary sends, and RDMA
// frames carry the real NIC's region handles.
//
// Caveats of the wire: UDP frames can be lost or reordered. Loopback
// and same-host traffic make this rare, and the paper's own unreliable
// VIA mode has the same property — but a ReliableDelivery channel over
// the bridge is "reliable minus the wire", not a retransmitting
// transport. One relayed send must fit one datagram (maxUDPPayload);
// remote writes are fragmented into offset-adjusted chunks, which
// offset-write semantics make safe. Connection setup retransmits, so
// only it fully survives loss.

const (
	// maxUDPPayload bounds one relayed send (header excluded). Regular
	// channels chunk file data well below this; a chunk size above it
	// must not be used over the bridge.
	maxUDPPayload = 60000
	// udpConnectRetry and udpConnectTimeout pace connection setup
	// retransmission, the only reliable part of the wire protocol.
	udpConnectRetry   = 250 * time.Millisecond
	udpConnectTimeout = 10 * time.Second
	// udpSockBuf sizes the socket buffers: bursts of relayed file
	// chunks must not overrun the kernel default.
	udpSockBuf = 4 << 20
)

// Frame kinds. All integers little-endian; strings length-prefixed
// (str8: u8 length, str16: u16 length).
//
//	CONNECT {token u64, rel u8, chanA u64, fromAddr str8, toAddr str8, service str8}
//	REPLY   {token u64, ok u8, chanB u64, err str16}
//	SEND    {dstChan u64, rel u8, payload...}
//	RDMA    {handle u64, offset u64, payload...}
//	BREAK   {dstChan u64, err str16}
const (
	udpConnect = iota + 1
	udpReply
	udpSend
	udpRDMA
	udpBreak
)

// bChan is one live cross-process VI channel: the local proxy VI and
// the id the remote bridge knows the mirror channel by. A channel is
// registered BEFORE its VI pair is bound — the remote's first sends
// can outrace the setup reply on the wire — so until ready, inbound
// payloads queue in arrival order and drain at bind time.
type bChan struct {
	pv         *VI
	remoteChan uint64
	raddr      net.Addr
	ready      bool
	queue      [][]byte
}

// bChanQueueMax bounds the pre-bind queue; the race window is
// microseconds, so hitting the cap means something is wedged and
// dropping (the unreliable-wire caveat) beats unbounded growth.
const bChanQueueMax = 1024

// pendingDial is a locally initiated connection waiting for the
// remote's reply.
type pendingDial struct {
	req      *connReq
	pv       *VI
	proxy    *NIC
	chanAID  uint64
	resolved chan struct{}
}

type fwdKey struct {
	addr string // proxy NIC address
	vi   uint32
}

// UDPBridge relays one process's share of a cross-process Fabric.
type UDPBridge struct {
	fabric *Fabric
	pc     net.PacketConn

	mu       sync.Mutex
	proxies  map[string]*NIC     // via address -> proxy NIC
	raddrs   map[string]net.Addr // via address -> remote bridge endpoint
	chans    map[uint64]*bChan   // local channel id -> state
	fwd      map[fwdKey]*bChan   // (proxy addr, proxy VI id) -> state
	pending  map[uint64]*pendingDial
	accepted map[string][]byte // dedup: "fromAddr/token" -> cached REPLY frame
	closed   bool

	nextChan atomic.Uint64
	nextTok  atomic.Uint64

	done chan struct{}
	wg   sync.WaitGroup
}

// NewUDPBridge binds addr (host:port, "127.0.0.1:0" for ephemeral) and
// starts relaying. Remote processes are added with Proxy.
func NewUDPBridge(f *Fabric, addr string) (*UDPBridge, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("via: bridge listen: %w", err)
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		_ = uc.SetReadBuffer(udpSockBuf)
		_ = uc.SetWriteBuffer(udpSockBuf)
	}
	b := &UDPBridge{
		fabric:   f,
		pc:       pc,
		proxies:  make(map[string]*NIC),
		raddrs:   make(map[string]net.Addr),
		chans:    make(map[uint64]*bChan),
		fwd:      make(map[fwdKey]*bChan),
		pending:  make(map[uint64]*pendingDial),
		accepted: make(map[string][]byte),
		done:     make(chan struct{}),
	}
	// Seed the id spaces per process life. A restarted process must not
	// reuse the tokens or channel ids of its previous one: a peer still
	// holds that life's dedup cache (a colliding CONNECT would be
	// answered with a stale cached REPLY) and its dead channels (a
	// colliding id would route a stale frame into the new life).
	seed := uint64(time.Now().UnixNano())
	b.nextChan.Store(seed)
	b.nextTok.Store(seed)
	b.wg.Add(1)
	go b.readLoop()
	return b, nil
}

// Addr returns the bridge's bound UDP endpoint.
func (b *UDPBridge) Addr() string { return b.pc.LocalAddr().String() }

// Proxy registers a remote process: viaAddr is the remote node's
// fabric address, udpAddr its bridge endpoint, and services the
// listener names local VIs may dial on it. A proxy NIC with viaAddr
// appears on the local fabric; dialing one of its services relays the
// connection to the real process.
func (b *UDPBridge) Proxy(viaAddr, udpAddr string, services ...string) error {
	raddr, err := net.ResolveUDPAddr("udp", udpAddr)
	if err != nil {
		return fmt.Errorf("via: bridge peer %s: %w", viaAddr, err)
	}
	nic, err := b.fabric.CreateNIC(viaAddr)
	if err != nil {
		return err
	}
	// Safe unsynchronized: no VI exists on the NIC yet, so nothing can
	// observe fw before this write.
	nic.fw = &proxyFwd{b: b, addr: viaAddr}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		nic.Close()
		return ErrClosed
	}
	b.proxies[viaAddr] = nic
	b.raddrs[viaAddr] = raddr
	b.mu.Unlock()
	for _, svc := range services {
		l, err := nic.Listen(svc)
		if err != nil {
			return err
		}
		b.wg.Add(1)
		go b.acceptPump(nic, l, svc)
	}
	return nil
}

// proxyFwd is the forwarder installed on one proxy NIC.
type proxyFwd struct {
	b    *UDPBridge
	addr string
}

func (p *proxyFwd) chanFor(viID uint32) (*bChan, bool) {
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	bc, ok := p.b.fwd[fwdKey{p.addr, viID}]
	return bc, ok
}

func (p *proxyFwd) forwardSend(viID uint32, payload []byte, rel Reliability) error {
	bc, ok := p.chanFor(viID)
	if !ok {
		return fmt.Errorf("%w: no bridge channel for VI %d on %s", ErrBroken, viID, p.addr)
	}
	if len(payload) > maxUDPPayload {
		return fmt.Errorf("%w: %d-byte send exceeds the bridge datagram limit %d", ErrTooLong, len(payload), maxUDPPayload)
	}
	frame := make([]byte, 0, 10+len(payload))
	frame = append(frame, udpSend)
	frame = binary.LittleEndian.AppendUint64(frame, bc.remoteChan)
	frame = append(frame, byte(rel))
	frame = append(frame, payload...)
	_, err := p.b.pc.WriteTo(frame, bc.raddr)
	return err
}

func (p *proxyFwd) forwardRDMA(h Handle, off int, payload []byte) error {
	p.b.mu.Lock()
	raddr, ok := p.b.raddrs[p.addr]
	p.b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s not proxied", ErrUnknownAddress, p.addr)
	}
	// Remote-write semantics — bytes land at an offset in a registered
	// region, no descriptors consumed — make fragmentation trivially
	// correct: each chunk carries its own adjusted offset.
	for base := 0; base == 0 || base < len(payload); base += maxUDPPayload {
		end := base + maxUDPPayload
		if end > len(payload) {
			end = len(payload)
		}
		chunk := payload[base:end]
		frame := make([]byte, 0, 17+len(chunk))
		frame = append(frame, udpRDMA)
		frame = binary.LittleEndian.AppendUint64(frame, uint64(h))
		frame = binary.LittleEndian.AppendUint64(frame, uint64(off+base))
		frame = append(frame, chunk...)
		if _, err := p.b.pc.WriteTo(frame, raddr); err != nil {
			return err
		}
	}
	return nil
}

func (p *proxyFwd) viBroken(viID uint32, err error) {
	bc, ok := p.chanFor(viID)
	if !ok {
		return
	}
	p.b.mu.Lock()
	delete(p.b.fwd, fwdKey{p.addr, viID})
	p.b.mu.Unlock()
	msg := err.Error()
	if len(msg) > 512 {
		msg = msg[:512]
	}
	frame := make([]byte, 0, 11+len(msg))
	frame = append(frame, udpBreak)
	frame = binary.LittleEndian.AppendUint64(frame, bc.remoteChan)
	frame = binary.LittleEndian.AppendUint16(frame, uint16(len(msg)))
	frame = append(frame, msg...)
	_, _ = p.b.pc.WriteTo(frame, bc.raddr)
}

// acceptPump relays connection requests that local VIs dial into a
// proxy listener: hold the dialer, push a CONNECT to the real process
// until its reply arrives, then bind and answer.
func (b *UDPBridge) acceptPump(proxy *NIC, l *Listener, service string) {
	defer b.wg.Done()
	for {
		select {
		case req := <-l.ch:
			b.wg.Add(1)
			go b.relayDial(proxy, service, req)
		case <-l.closed:
			return
		case <-b.done:
			return
		}
	}
}

func (b *UDPBridge) relayDial(proxy *NIC, service string, req *connReq) {
	defer b.wg.Done()
	pv, err := proxy.CreateVI(req.fromVI.reliability, req.fromVI.depth)
	if err != nil {
		req.reply <- err
		return
	}
	tok := b.nextTok.Add(1)
	pd := &pendingDial{
		req:      req,
		pv:       pv,
		proxy:    proxy,
		chanAID:  b.nextChan.Add(1),
		resolved: make(chan struct{}),
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		pv.Close()
		req.reply <- ErrClosed
		return
	}
	raddr := b.raddrs[proxy.addr]
	b.pending[tok] = pd
	// Register the channel now, unready: the acceptor's first sends can
	// reach us before its REPLY does, and they must queue, not drop.
	b.chans[pd.chanAID] = &bChan{pv: pv, raddr: raddr}
	b.mu.Unlock()

	frame := make([]byte, 0, 64)
	frame = append(frame, udpConnect)
	frame = binary.LittleEndian.AppendUint64(frame, tok)
	frame = append(frame, byte(req.fromVI.reliability))
	frame = binary.LittleEndian.AppendUint64(frame, pd.chanAID)
	for _, s := range []string{req.fromVI.nic.addr, proxy.addr, service} {
		frame = append(frame, byte(len(s)))
		frame = append(frame, s...)
	}

	// abandon takes the dial back from handleReply; if a reply won the
	// race, the handler owns answering the dialer and we just wait.
	abandon := func(failure error) {
		b.mu.Lock()
		_, mine := b.pending[tok]
		delete(b.pending, tok)
		if mine {
			delete(b.chans, pd.chanAID)
		}
		b.mu.Unlock()
		if !mine {
			<-pd.resolved
			return
		}
		pv.Close()
		req.reply <- failure
	}

	deadline := time.NewTimer(udpConnectTimeout)
	defer deadline.Stop()
	retry := time.NewTicker(udpConnectRetry)
	defer retry.Stop()
	_, _ = b.pc.WriteTo(frame, raddr)
	for {
		select {
		case <-pd.resolved:
			// handleReply bound and answered (or rejected) the dialer.
			return
		case <-retry.C:
			_, _ = b.pc.WriteTo(frame, raddr)
		case <-deadline.C:
			abandon(fmt.Errorf("%w: connect to %s over bridge", ErrTimeout, proxy.addr))
			return
		case <-b.done:
			abandon(ErrClosed)
			return
		}
	}
}

func (b *UDPBridge) readLoop() {
	defer b.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, from, err := b.pc.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		if n < 1 {
			continue
		}
		frame := make([]byte, n-1)
		copy(frame, buf[1:n])
		switch buf[0] {
		case udpConnect:
			b.handleConnect(frame, from)
		case udpReply:
			b.handleReply(frame, from)
		case udpSend:
			b.handleSend(frame)
		case udpRDMA:
			b.handleRDMA(frame)
		case udpBreak:
			b.handleBreak(frame)
		}
	}
}

func takeStr8(buf []byte) (string, []byte, bool) {
	if len(buf) < 1 || len(buf) < 1+int(buf[0]) {
		return "", nil, false
	}
	n := int(buf[0])
	return string(buf[1 : 1+n]), buf[1+n:], true
}

// handleConnect accepts a relayed dial: create the mirror proxy VI for
// the remote dialer and connect it to the real local listener, exactly
// as the remote VI would in-process.
func (b *UDPBridge) handleConnect(frame []byte, from net.Addr) {
	if len(frame) < 17 {
		return
	}
	tok := binary.LittleEndian.Uint64(frame)
	rel := Reliability(frame[8])
	chanA := binary.LittleEndian.Uint64(frame[9:])
	rest := frame[17:]
	fromAddr, rest, ok1 := takeStr8(rest)
	toAddr, rest, ok2 := takeStr8(rest)
	service, _, ok3 := takeStr8(rest)
	if !ok1 || !ok2 || !ok3 {
		return
	}
	key := fmt.Sprintf("%s/%d", fromAddr, tok)
	b.mu.Lock()
	if cached, dup := b.accepted[key]; dup {
		// Retransmitted CONNECT. Re-send the cached verdict; nil means
		// the first copy is still dialing — the initiator's retry ticker
		// keeps asking until a verdict exists.
		b.mu.Unlock()
		if cached != nil {
			_, _ = b.pc.WriteTo(cached, from)
		}
		return
	}
	proxy := b.proxies[fromAddr]
	if proxy == nil {
		// Startup race: the dial crossed the wire between this process's
		// NewUDPBridge and its Proxy call for the dialer. Not known yet is
		// not known bad: stay silent and cache nothing, so the dialer's
		// retransmit connects once the proxy exists (or its deadline
		// fires). Only a verdict on a known peer is ever cached.
		b.mu.Unlock()
		return
	}
	b.accepted[key] = nil
	b.mu.Unlock()

	reply := func(ok bool, chanB uint64, msg string) {
		if len(msg) > 512 {
			msg = msg[:512]
		}
		f := make([]byte, 0, 20+len(msg))
		f = append(f, udpReply)
		f = binary.LittleEndian.AppendUint64(f, tok)
		if ok {
			f = append(f, 1)
		} else {
			f = append(f, 0)
		}
		f = binary.LittleEndian.AppendUint64(f, chanB)
		f = binary.LittleEndian.AppendUint16(f, uint16(len(msg)))
		f = append(f, msg...)
		b.mu.Lock()
		b.accepted[key] = f
		b.mu.Unlock()
		_, _ = b.pc.WriteTo(f, from)
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		pv, err := proxy.CreateVI(rel, 64)
		if err != nil {
			reply(false, 0, err.Error())
			return
		}
		// Register the channel BEFORE dialing: the Accept inside Connect
		// binds the local VI, and its owner may send on it the instant the
		// bind lands — the forwarder must already know the route.
		chanB := b.nextChan.Add(1)
		// Ready at birth: the remote learns chanB only from our reply, so
		// no inbound send can precede the bind; outbound routing (the
		// remote channel id and endpoint) is already known.
		bc := &bChan{pv: pv, remoteChan: chanA, raddr: from, ready: true}
		b.mu.Lock()
		b.chans[chanB] = bc
		b.fwd[fwdKey{proxy.addr, pv.id}] = bc
		b.mu.Unlock()
		unregister := func() {
			b.mu.Lock()
			delete(b.chans, chanB)
			delete(b.fwd, fwdKey{proxy.addr, pv.id})
			b.mu.Unlock()
		}
		// Dialing the real listener blocks until the transport accepts,
		// exactly as the remote dialer would in-process; the remote side
		// keeps its dialer parked until our reply.
		if err := pv.Connect(toAddr, service); err != nil {
			unregister()
			pv.Close()
			if errors.Is(err, ErrUnknownService) {
				// Startup race: the dial crossed the wire before this
				// process's transport registered its listener. Forget the
				// dedup entry and stay silent — the dialer's retransmit
				// retries until the listener exists or its deadline fires.
				b.mu.Lock()
				delete(b.accepted, key)
				b.mu.Unlock()
				return
			}
			reply(false, 0, err.Error())
			return
		}
		reply(true, chanB, "")
	}()
}

// handleReply resolves a locally initiated relayed dial.
func (b *UDPBridge) handleReply(frame []byte, from net.Addr) {
	if len(frame) < 19 {
		return
	}
	tok := binary.LittleEndian.Uint64(frame)
	ok := frame[8] == 1
	chanB := binary.LittleEndian.Uint64(frame[9:])
	msgLen := int(binary.LittleEndian.Uint16(frame[17:]))
	msg := ""
	if len(frame) >= 19+msgLen {
		msg = string(frame[19 : 19+msgLen])
	}
	b.mu.Lock()
	pd, found := b.pending[tok]
	delete(b.pending, tok)
	b.mu.Unlock()
	if !found {
		return // duplicate reply, or the dial timed out
	}
	fail := func(err error) {
		b.mu.Lock()
		delete(b.chans, pd.chanAID)
		b.mu.Unlock()
		pd.pv.Close()
		pd.req.reply <- err
		close(pd.resolved)
	}
	if !ok {
		fail(fmt.Errorf("%w: %s", ErrRejected, msg))
		return
	}
	if err := bind(pd.req.fromVI, pd.pv); err != nil {
		fail(err)
		return
	}
	b.mu.Lock()
	bc := b.chans[pd.chanAID]
	var queued [][]byte
	if bc != nil {
		bc.remoteChan, bc.raddr, bc.ready = chanB, from, true
		queued, bc.queue = bc.queue, nil
		b.fwd[fwdKey{pd.proxy.addr, pd.pv.id}] = bc
	}
	b.mu.Unlock()
	// Sends that outran the reply deliver now, in arrival order, before
	// the dialer is released (it cannot post until reply anyway).
	for _, payload := range queued {
		b.deliverChan(bc, payload)
	}
	pd.req.reply <- nil
	close(pd.resolved)
}

// deliverChan feeds one relayed payload into the real local VI behind
// a bound bridge channel.
func (b *UDPBridge) deliverChan(bc *bChan, payload []byte) {
	realNIC, realVI, err := bc.pv.peerRef()
	if err != nil {
		return
	}
	// Delivery errors break the VI pair inside deliverSend; the proxy
	// side of the break reaches viBroken, which reports it back.
	_ = realNIC.deliverSend(realVI, payload, bc.pv.reliability)
}

// handleSend feeds a relayed send into the real local VI the proxy is
// bound to, with full receive-descriptor semantics: a missing
// descriptor on a reliable channel breaks the VI pair right here, and
// the break relays back through the forwarder hook.
func (b *UDPBridge) handleSend(frame []byte) {
	if len(frame) < 9 {
		return
	}
	ch := binary.LittleEndian.Uint64(frame)
	payload := frame[9:]
	b.mu.Lock()
	bc := b.chans[ch]
	if bc != nil && !bc.ready {
		// The channel is still binding (this send outran the setup
		// reply): hold the payload, in order, until the bind lands.
		if len(bc.queue) < bChanQueueMax {
			bc.queue = append(bc.queue, payload)
		}
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	if bc == nil {
		return // channel gone (broken, or setup never completed)
	}
	b.deliverChan(bc, payload)
}

// handleRDMA lands a relayed remote write in the registered region of
// the real local NIC that minted the handle (handles travel to remote
// writers through setup messages, so an arriving handle is always one
// of ours).
func (b *UDPBridge) handleRDMA(frame []byte) {
	if len(frame) < 16 {
		return
	}
	h := Handle(binary.LittleEndian.Uint64(frame))
	off := int(binary.LittleEndian.Uint64(frame[8:]))
	payload := frame[16:]
	b.fabric.mu.Lock()
	var target *NIC
	for _, n := range b.fabric.nics {
		if n.fw != nil {
			continue
		}
		if _, ok := n.region(h); ok {
			target = n
			break
		}
	}
	b.fabric.mu.Unlock()
	if target == nil {
		return // region deregistered; protection faults are silent on the wire
	}
	_ = target.deliverRDMA(h, off, payload)
}

// handleBreak breaks the local proxy VI (and through it the real VI)
// for a channel the remote side reported dead.
func (b *UDPBridge) handleBreak(frame []byte) {
	if len(frame) < 10 {
		return
	}
	ch := binary.LittleEndian.Uint64(frame)
	msgLen := int(binary.LittleEndian.Uint16(frame[8:]))
	msg := "peer broke connection"
	if msgLen > 0 && len(frame) >= 10+msgLen {
		msg = string(frame[10 : 10+msgLen])
	}
	b.mu.Lock()
	bc := b.chans[ch]
	delete(b.chans, ch)
	b.mu.Unlock()
	if bc == nil {
		return
	}
	bc.pv.breakConn(fmt.Errorf("%w: %s", ErrBroken, msg))
}

// Close stops the bridge. Proxy NICs stay on the fabric (the fabric's
// own Close tears them down); channels through them break on use.
func (b *UDPBridge) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.done)
	b.pc.Close()
	b.wg.Wait()
}
