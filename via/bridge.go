package via

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// Bridge extends a Fabric across OS processes: for each remote
// process it creates a local *proxy NIC* carrying the remote node's
// fabric address, so lookups, connection brokering, fault injection,
// and VI binding all behave exactly as in-process — and everything
// delivered INTO a proxy (sends, remote memory writes, connection
// breaks) is framed over a TCP connection to the process that owns the
// real NIC, where the mirror-image proxy feeds it into the real VI.
// Descriptor, credit, and RMW semantics are preserved end to end: a
// missing receive descriptor still breaks the channel (the break is
// relayed back), credits ride as ordinary sends, and a remote
// write lands through the channel it was posted on.
//
// Each cross-process VI channel is its own TCP connection: the
// connection is the channel. A stream delivers in order or reports
// that it cannot, as the paper's cLAN does in hardware, so nothing on
// a channel is lost silently: losing the connection breaks the
// channel, and a process that dies closes its sockets, which breaks
// its peers' VIs at once. The wire was UDP once; the ledger's via.udp.*
// probes that measure it keep that name, and NewUDPBridge.
type Bridge struct {
	fabric *Fabric
	ln     net.Listener
	ctx    context.Context // done once Close starts
	stop   context.CancelFunc

	mu      sync.Mutex
	proxies map[string]*NIC       // via address -> proxy NIC
	chans   map[fwdKey]*bChan     // proxy VI -> its channel
	conns   map[net.Conn]struct{} // every open connection, for Close
	closed  bool

	wg sync.WaitGroup
}

const (
	// bridgeRetry paces a relayed dial the remote bridge cannot take
	// yet, and bridgeConnectTimeout bounds it. Multi-process startup is
	// unordered: a bridge not listening yet, one with no proxy for the
	// dialer yet, and a service no transport listens on yet are all
	// "not yet", not "no".
	bridgeRetry          = 50 * time.Millisecond
	bridgeConnectTimeout = 10 * time.Second
	// maxBridgeFrame bounds one frame. A length is input from another
	// process: zero or anything above the bound closes the connection.
	maxBridgeFrame = 64 << 20
)

// bridgeWriteTimeout bounds one frame write: a peer process that stops
// reading breaks that one channel instead of holding its poster, and the
// NIC's transfers behind it, for good. A var only so tests can shorten it.
var bridgeWriteTimeout = 30 * time.Second

// bridgeHelloTimeout bounds the wait for a dialer's CONNECT frame: a
// connection that never sends one is hung up on instead of holding its
// goroutine and socket until Close. A var only so tests can shorten it.
var bridgeHelloTimeout = 5 * time.Second

// Frames are a u32 length, then a kind byte and its fields. All
// integers little-endian; strings length-prefixed (str8: u8 length,
// str16: u16 length). The dialer opens with CONNECT and the acceptor
// answers with one REPLY; after an ok REPLY the connection carries
// only its channel's SEND, RDMA and BREAK frames, both ways.
//
//	CONNECT {fromAddr str8, toAddr str8, service str8}
//	REPLY   {verdict u8, reason str16}
//	SEND    {payload...}
//	RDMA    {handle u64, offset u64, payload...}
//	BREAK   {reason str16}
const (
	frameConnect = iota + 1
	frameReply
	frameSend
	frameRDMA
	frameBreak
)

// REPLY verdicts; not-yet asks the dialer to dial again.
const (
	verdictOK = iota
	verdictRefused
	verdictNotYet
)

var (
	errBadFrame = errors.New("via: malformed bridge frame")
	errNotYet   = errors.New("via: bridge not ready")
)

// reply is the REPLY to a relayed dial that ended with err. Startup
// races are not yet, not no: the dial crossed the wire before this
// process's Proxy call for the dialer, or before its transport
// registered the listener (ErrUnknownService).
func reply(err error) []byte {
	switch {
	case err == nil:
		return str16([]byte{verdictOK}, "")
	case errors.Is(err, errNotYet), errors.Is(err, ErrUnknownService):
		return str16([]byte{verdictNotYet}, err.Error())
	}
	return str16([]byte{verdictRefused}, err.Error())
}

// bChan is one live cross-process VI channel: the local proxy VI and
// the connection that carries it. wmu orders the frames written to the
// connection, and buf, reused under it, holds the one being written.
type bChan struct {
	pv   *VI
	conn net.Conn

	wmu sync.Mutex
	buf []byte
}

type fwdKey struct {
	addr string // proxy NIC address
	vi   uint32
}

func (c *bChan) key() fwdKey { return fwdKey{c.pv.nic.addr, c.pv.id} }

// write sends one frame: kind, the fixed fields in head, then body.
func (c *bChan) write(kind byte, head, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(kind, head, body)
}

// writeLocked is write with wmu held. A write that fails, its deadline
// passed included, closes the connection, so the channel's reader ends
// the channel.
func (c *bChan) writeLocked(kind byte, head, body []byte) error {
	f := binary.LittleEndian.AppendUint32(c.buf[:0], uint32(1+len(head)+len(body)))
	f = append(f, kind)
	f = append(f, head...)
	f = append(f, body...)
	c.buf = f
	_ = c.conn.SetWriteDeadline(time.Now().Add(bridgeWriteTimeout))
	_, err := c.conn.Write(f)
	if err != nil {
		c.conn.Close()
	}
	return err
}

// str16 encodes a reason as the REPLY and BREAK frames carry it, after
// prefix, cut to 512 bytes.
func str16(prefix []byte, msg string) []byte {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	return append(binary.LittleEndian.AppendUint16(prefix, uint16(len(msg))), msg...)
}

// takeStr16 decodes a reason; a truncated one yields what arrived.
func takeStr16(buf []byte) string {
	if len(buf) < 2 {
		return ""
	}
	return string(buf[2:min(len(buf), 2+int(binary.LittleEndian.Uint16(buf)))])
}

func takeStr8(buf []byte) (string, []byte, bool) {
	if len(buf) < 1 || len(buf) < 1+int(buf[0]) {
		return "", nil, false
	}
	n := int(buf[0])
	return string(buf[1 : 1+n]), buf[1+n:], true
}

// frameReader reads one connection's frames into a buffer it reuses:
// each frame is consumed before the next is read.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

// next returns the next frame, kind byte first. The buffer grows with
// the bytes that arrive, not with the length a frame claims.
func (fr *frameReader) next() ([]byte, error) {
	hdr, err := fr.r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > maxBridgeFrame {
		return nil, errBadFrame
	}
	_, _ = fr.r.Discard(4)
	buf := fr.buf[:0]
	for len(buf) < int(n) {
		k := min(int(n)-len(buf), 64<<10)
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(fr.r, buf[len(buf):len(buf)+k]); err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+k]
	}
	fr.buf = buf
	return buf, nil
}

// NewBridge listens on addr (host:port, "127.0.0.1:0" for
// ephemeral) and starts relaying. Remote processes are added with
// Proxy.
func NewBridge(f *Fabric, addr string) (*Bridge, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("via: bridge listen: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	b := &Bridge{
		fabric:  f,
		ln:      ln,
		ctx:     ctx,
		stop:    stop,
		proxies: make(map[string]*NIC),
		chans:   make(map[fwdKey]*bChan),
		conns:   make(map[net.Conn]struct{}),
	}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// NewUDPBridge is NewBridge under the name the ledger's probes call.
func NewUDPBridge(f *Fabric, addr string) (*Bridge, error) { return NewBridge(f, addr) }

// Addr returns the bridge's listening TCP endpoint.
func (b *Bridge) Addr() string { return b.ln.Addr().String() }

// Proxy registers a remote process: viaAddr is the remote node's
// fabric address, bridgeAddr its bridge endpoint, and services the
// listener names local VIs may dial on it. A proxy NIC with viaAddr
// appears on the local fabric; dialing one of its services relays the
// connection to the real process.
func (b *Bridge) Proxy(viaAddr, bridgeAddr string, services ...string) error {
	if _, err := net.ResolveTCPAddr("tcp", bridgeAddr); err != nil {
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
	b.mu.Unlock()
	for _, svc := range services {
		l, err := nic.Listen(svc)
		if err != nil {
			return err
		}
		b.wg.Add(1)
		go b.acceptPump(nic, l, bridgeAddr, svc)
	}
	return nil
}

// proxyFwd is the forwarder installed on one proxy NIC.
type proxyFwd struct {
	b    *Bridge
	addr string
}

func (p *proxyFwd) chanFor(viID uint32) (*bChan, error) {
	p.b.mu.Lock()
	c := p.b.chans[fwdKey{p.addr, viID}]
	p.b.mu.Unlock()
	if c == nil {
		return nil, fmt.Errorf("%w: no bridge channel for VI %d on %s", ErrBroken, viID, p.addr)
	}
	return c, nil
}

func (p *proxyFwd) forwardSend(viID uint32, payload []byte) error {
	c, err := p.chanFor(viID)
	if err != nil {
		return err
	}
	return c.write(frameSend, nil, payload)
}

func (p *proxyFwd) forwardRDMA(viID uint32, h Handle, off int, payload []byte) error {
	c, err := p.chanFor(viID)
	if err != nil {
		return err
	}
	var head [16]byte
	binary.LittleEndian.PutUint64(head[:], uint64(h))
	binary.LittleEndian.PutUint64(head[8:], uint64(off))
	return c.write(frameRDMA, head[:], payload)
}

// viBroken tells the real peer process. The connection stays open: the
// peer breaks its side on the BREAK and hangs up, and the EOF ends this
// side's reader.
func (p *proxyFwd) viBroken(viID uint32, err error) {
	k := fwdKey{p.addr, viID}
	p.b.mu.Lock()
	c := p.b.chans[k]
	delete(p.b.chans, k)
	p.b.mu.Unlock()
	if c != nil {
		_ = c.write(frameBreak, str16(nil, err.Error()), nil)
	}
}

// acceptPump relays connection requests that local VIs dial into a
// proxy listener.
func (b *Bridge) acceptPump(proxy *NIC, l *Listener, bridgeAddr, service string) {
	defer b.wg.Done()
	for {
		select {
		case req := <-l.ch:
			b.wg.Add(1)
			go b.relayDial(proxy, bridgeAddr, service, req)
		case <-l.closed:
			return
		case <-b.ctx.Done():
			return
		}
	}
}

// relayDial carries one local dial to the real process: once its
// listener has accepted, bind the dialer to a proxy VI, release it,
// and serve the channel.
func (b *Bridge) relayDial(proxy *NIC, bridgeAddr, service string, req *connReq) {
	defer b.wg.Done()
	v := req.fromVI
	pv, err := proxy.CreateVI(ReliableDelivery, len(v.recvQ))
	if err != nil {
		req.reply <- err
		return
	}
	var connect []byte
	for _, s := range []string{v.nic.addr, proxy.addr, service} {
		connect = append(connect, byte(len(s)))
		connect = append(connect, s...)
	}
	c := &bChan{pv: pv}
	fr, err := b.dial(c, bridgeAddr, connect)
	if err != nil {
		pv.Close()
		req.reply <- err
		return
	}
	b.register(c)
	if err := bind(v, pv); err != nil {
		req.reply <- err
		b.end(c, err)
		return
	}
	req.reply <- nil
	b.end(c, b.serve(c, fr))
}

// dial connects c to the bridge at addr and sends CONNECT, again every
// bridgeRetry until the verdict is not "not yet" or
// bridgeConnectTimeout passes. It returns the connection's reader
// after an ok REPLY.
func (b *Bridge) dial(c *bChan, addr string, connect []byte) (*frameReader, error) {
	deadline := time.Now().Add(bridgeConnectTimeout)
	tick := time.NewTicker(bridgeRetry)
	defer tick.Stop()
	for {
		fr, err := b.tryDial(c, addr, connect, deadline)
		switch {
		case err == nil, errors.Is(err, ErrRejected):
			return fr, err
		case b.ctx.Err() != nil:
			return nil, ErrClosed
		case time.Now().After(deadline):
			return nil, fmt.Errorf("%w: connect to %s over bridge: %v", ErrTimeout, c.pv.nic.addr, err)
		}
		select {
		case <-tick.C:
		case <-b.ctx.Done():
		}
	}
}

// tryDial makes one attempt. An error other than ErrRejected is worth
// another.
func (b *Bridge) tryDial(c *bChan, addr string, connect []byte, deadline time.Time) (*frameReader, error) {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(b.ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if !b.track(conn) {
		return nil, ErrClosed
	}
	// TCP self-connect: dialing a not-yet-bound loopback port in the
	// ephemeral range can simultaneous-open onto itself and would hold
	// the port the peer bridge needs (README, Deployment).
	if conn.LocalAddr().String() == conn.RemoteAddr().String() {
		b.hangUp(conn)
		return nil, fmt.Errorf("via: bridge self-connect to %s", addr)
	}
	c.conn = conn
	fr := &frameReader{r: bufio.NewReader(conn)}
	_ = conn.SetDeadline(deadline)
	var f []byte
	err = c.write(frameConnect, connect, nil)
	if err == nil {
		f, err = fr.next()
	}
	switch {
	case err != nil:
	case len(f) < 2 || f[0] != frameReply:
		err = errBadFrame
	case f[1] == verdictOK:
		_ = conn.SetDeadline(time.Time{})
		return fr, nil
	case f[1] == verdictRefused:
		err = fmt.Errorf("%w: %s", ErrRejected, takeStr16(f[2:]))
	default:
		err = fmt.Errorf("%w: %s", errNotYet, takeStr16(f[2:]))
	}
	b.hangUp(conn)
	return nil, err
}

func (b *Bridge) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil || !b.track(conn) {
			return // listener closed
		}
		b.wg.Add(1)
		go b.accept(conn)
	}
}

// accept takes one relayed dial: create the mirror proxy VI for the
// remote dialer and connect it to the real local listener, exactly as
// the remote VI would in-process, then answer and serve the channel.
func (b *Bridge) accept(conn net.Conn) {
	defer b.wg.Done()
	c := &bChan{conn: conn}
	fr := &frameReader{r: bufio.NewReader(conn)}
	_ = conn.SetReadDeadline(time.Now().Add(bridgeHelloTimeout))
	f, err := fr.next()
	if err != nil || f[0] != frameConnect {
		b.hangUp(conn) // not a bridge dialer
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	fromAddr, rest, ok1 := takeStr8(f[1:])
	toAddr, rest, ok2 := takeStr8(rest)
	service, _, ok3 := takeStr8(rest)
	if !ok1 || !ok2 || !ok3 {
		b.hangUp(conn)
		return
	}
	b.mu.Lock()
	proxy := b.proxies[fromAddr]
	b.mu.Unlock()
	err = fmt.Errorf("%w: no proxy for %s", errNotYet, fromAddr)
	if proxy != nil {
		c.pv, err = proxy.CreateVI(ReliableDelivery, 64)
	}
	if err != nil {
		_ = c.write(frameReply, reply(err), nil)
		b.hangUp(conn)
		return
	}
	// Register the channel before dialing: the Accept inside Connect
	// binds the local VI, and its owner may send the instant the bind
	// lands, so the forwarder must already know the route. The REPLY
	// precedes every other frame of the channel: the write lock is held
	// from before the bind until the verdict is out.
	b.register(c)
	c.wmu.Lock()
	//presslint:ignore mutex-across-block a frame of this channel waits for its REPLY by design; Connect ends once the real listener accepts, and nothing it waits on writes to this channel
	err = c.pv.Connect(toAddr, service)
	werr := c.writeLocked(frameReply, reply(err), nil)
	c.wmu.Unlock()
	switch {
	case werr != nil:
		err = werr
	case err == nil:
		err = b.serve(c, fr)
	}
	b.end(c, err)
}

// serve feeds the channel's inbound frames into the real local VI the
// proxy is bound to until the connection or the channel ends, and
// returns why it ended.
func (b *Bridge) serve(c *bChan, fr *frameReader) error {
	for {
		f, err := fr.next()
		if err != nil {
			return fmt.Errorf("%w: bridge connection lost: %v", ErrBroken, err)
		}
		switch f[0] {
		case frameSend:
			// Full receive-descriptor semantics: a missing descriptor
			// breaks the VI pair inside deliverSend, and the proxy side
			// of the break reaches viBroken, which reports it back.
			if realNIC, realVI, err := c.pv.peerRef(); err == nil {
				_ = realNIC.deliverSend(realVI, f[1:])
			}
		case frameRDMA:
			if len(f) < 17 {
				return errBadFrame
			}
			realNIC, realVI, err := c.pv.peerRef()
			if err != nil {
				continue
			}
			h := Handle(binary.LittleEndian.Uint64(f[1:]))
			off := int(binary.LittleEndian.Uint64(f[9:]))
			// A refused write breaks its channel, as the poster's carry
			// does in process.
			if err := realNIC.deliverRDMA(realVI, h, off, f[17:]); err != nil {
				c.pv.breakConn(err)
			}
		case frameBreak:
			return fmt.Errorf("%w: %s", ErrBroken, takeStr16(f[1:]))
		default:
			return errBadFrame
		}
	}
}

// register routes the proxy VI's deliveries to c.
func (b *Bridge) register(c *bChan) {
	b.mu.Lock()
	b.chans[c.key()] = c
	b.mu.Unlock()
}

// end retires a channel: forget its route, hang up, and break the
// proxy VI — and through it the real one — with reason. The route goes
// first, so the break is not echoed to a peer that already knows.
func (b *Bridge) end(c *bChan, reason error) {
	b.mu.Lock()
	delete(b.chans, c.key())
	b.mu.Unlock()
	b.hangUp(c.conn)
	c.pv.breakConn(reason)
	c.pv.Close()
}

// track records an open connection for Close, or hangs it up if the
// bridge is closed.
func (b *Bridge) track(conn net.Conn) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		conn.Close()
		return false
	}
	b.conns[conn] = struct{}{}
	return true
}

func (b *Bridge) hangUp(conn net.Conn) {
	b.mu.Lock()
	delete(b.conns, conn)
	b.mu.Unlock()
	conn.Close()
}

// Close stops the bridge: every connection closes, which breaks every
// channel, and the proxy NICs leave the fabric, which fails a relayed
// dial still waiting for the real listener to accept.
func (b *Bridge) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	for conn := range b.conns {
		conn.Close()
	}
	proxies := b.proxies
	b.mu.Unlock()
	b.stop()
	b.ln.Close()
	for _, nic := range proxies {
		nic.Close()
	}
	b.wg.Wait()
}
