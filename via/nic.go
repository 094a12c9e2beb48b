package via

import (
	"fmt"
	"sync"
	"time"

	"press/metrics"
)

// Stats counts a NIC's activity.
type Stats struct {
	SendsPosted   int64
	RecvsPosted   int64
	SendsComplete int64
	RecvsComplete int64
	RDMAWrites    int64
	BytesSent     int64
}

// nicMetrics holds a NIC's instruments. The counters and the
// registered-bytes gauge always exist — they back Stats and
// RegisteredBytes — either standalone or interned in the fabric's
// registry under a nic=<addr> label. The send completion-latency
// histogram exists only with a registry attached, so the disabled path
// never reads the clock.
type nicMetrics struct {
	sendsPosted   *metrics.Counter
	recvsPosted   *metrics.Counter
	sendsComplete *metrics.Counter
	recvsComplete *metrics.Counter
	rdmaWrites    *metrics.Counter
	bytesSent     *metrics.Counter
	registered    *metrics.Gauge
	sendLatency   *metrics.Histogram
}

func newNICMetrics(r *metrics.Registry, addr string) nicMetrics {
	if !r.Enabled() {
		return nicMetrics{
			sendsPosted:   metrics.NewCounter(),
			recvsPosted:   metrics.NewCounter(),
			sendsComplete: metrics.NewCounter(),
			recvsComplete: metrics.NewCounter(),
			rdmaWrites:    metrics.NewCounter(),
			bytesSent:     metrics.NewCounter(),
			registered:    metrics.NewGauge(),
		}
	}
	label := "nic=" + addr
	return nicMetrics{
		sendsPosted:   r.Counter("via_sends_posted_total", label),
		recvsPosted:   r.Counter("via_recvs_posted_total", label),
		sendsComplete: r.Counter("via_sends_complete_total", label),
		recvsComplete: r.Counter("via_recvs_complete_total", label),
		rdmaWrites:    r.Counter("via_rmw_total", label),
		bytesSent:     r.Counter("via_sent_bytes", label),
		registered:    r.Gauge("via_registered_bytes", label),
		sendLatency:   r.Histogram("via_send_latency_ns", label),
	}
}

// NIC is one node's network interface. Processes gain user-level access
// to it by creating VIs and registering memory. A posted send or remote
// write moves on the goroutine that posts it and is complete when the
// post returns.
type NIC struct {
	fabric *Fabric
	addr   string

	mu         sync.Mutex
	closed     bool
	regions    map[Handle]*MemoryRegion
	nextHandle Handle
	vis        map[uint32]*VI
	nextVI     uint32
	listeners  map[string]*Listener

	// fw, when set, marks this NIC as a proxy fronting for a NIC in
	// another OS process: deliveries addressed to it are forwarded over
	// a real wire instead of landing in local descriptors, and local
	// connection breaks are relayed out. Set once before any VI is
	// bound (see Bridge), immutable afterwards.
	fw forwarder

	// done is closed by Close; a Connect waiting on this NIC gives up.
	done chan struct{}

	// xfer is held while a transfer moves, so the NIC moves one at a
	// time and each poster's transfers land in post order. It guards
	// wire, the transfer buffer of a descriptor that cannot move in one
	// copy (several segments, or a peer behind a bridge): it is gathered
	// into wire and delivered from it, and every delivery path copies
	// out before the transfer completes.
	xfer sync.Mutex
	wire []byte

	// bell is the remote-write doorbell (see Doorbell); written lists
	// the regions marked since the last Written call, each once.
	bell    chan struct{}
	bellMu  sync.Mutex
	written []*MemoryRegion

	m nicMetrics
}

type opcode uint8

const (
	opSend opcode = iota
	opRDMA
)

// route is what one transfer needs: the peer, or why there is none, and
// the state of the link to it, looked up once per transfer.
type route struct {
	peer   *NIC
	peerVI uint32
	err    error
	up     bool
	slow   time.Duration
}

func (n *NIC) route(vi *VI) route {
	var r route
	if r.peer, r.peerVI, r.err = vi.peerRef(); r.err == nil {
		r.up, r.slow = n.fabric.link(n.addr, r.peer.addr)
	}
	return r
}

func newNIC(f *Fabric, addr string) *NIC {
	n := &NIC{
		fabric:    f,
		addr:      addr,
		regions:   make(map[Handle]*MemoryRegion),
		vis:       make(map[uint32]*VI),
		listeners: make(map[string]*Listener),
		done:      make(chan struct{}),
		bell:      make(chan struct{}, 1),
		m:         newNICMetrics(f.metrics, addr),
	}
	return n
}

// Addr returns the NIC's fabric address.
func (n *NIC) Addr() string { return n.addr }

// Stats returns a snapshot of the NIC's counters.
func (n *NIC) Stats() Stats {
	return Stats{
		SendsPosted:   n.m.sendsPosted.Value(),
		RecvsPosted:   n.m.recvsPosted.Value(),
		SendsComplete: n.m.sendsComplete.Value(),
		RecvsComplete: n.m.recvsComplete.Value(),
		RDMAWrites:    n.m.rdmaWrites.Value(),
		BytesSent:     n.m.bytesSent.Value(),
	}
}

// RegisterMemory registers buf for communication, returning the region.
// The buffer is owned by the region until DeregisterMemory.
func (n *NIC) RegisterMemory(buf []byte) (*MemoryRegion, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("via: cannot register empty buffer")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	n.nextHandle++
	r := &MemoryRegion{nic: n, handle: n.nextHandle, buf: buf}
	n.regions[r.handle] = r
	n.m.registered.Add(int64(len(buf)))
	return r, nil
}

// DeregisterMemory releases the region; subsequent transfers touching
// it fail.
func (n *NIC) DeregisterMemory(r *MemoryRegion) error {
	if r == nil || r.nic != n {
		return fmt.Errorf("via: region not registered with this NIC")
	}
	n.mu.Lock()
	delete(n.regions, r.handle)
	n.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return ErrRegionReleased
	}
	n.m.registered.Add(-int64(len(r.buf)))
	r.buf = nil
	return nil
}

// RegisteredBytes is the memory registered with the NIC and not yet
// deregistered: what the host would hold locked for it. With a registry
// attached it is also via_registered_bytes{nic=<addr>}.
func (n *NIC) RegisteredBytes() int64 { return n.m.registered.Value() }

// region resolves a handle for remote writes.
func (n *NIC) region(h Handle) (*MemoryRegion, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.regions[h]
	return r, ok
}

// CreateVI creates a communication end-point with the given service
// level, which must be ReliableDelivery, and receive-queue depth: how
// many receive descriptors may be posted at once. A send has no queue to
// size, for its post moves it. depth <= 0 uses the default of 64.
func (n *NIC) CreateVI(rel Reliability, depth int) (*VI, error) {
	if rel != ReliableDelivery {
		return nil, fmt.Errorf("via: unsupported service level %d (only reliable delivery is provided)", rel)
	}
	if depth <= 0 {
		depth = 64
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	n.nextVI++
	vi := newVI(n, n.nextVI, depth)
	n.vis[vi.id] = vi
	return vi, nil
}

func (n *NIC) vi(id uint32) (*VI, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.vis[id]
	return v, ok
}

// post rings the doorbell and moves the transfer on the calling
// goroutine: d is complete when post returns, and post returns its
// error. A slowed link's penalty is slept first with nothing locked, so
// a slowed peer delays only the goroutines that post to it; a NIC
// closed by then refuses the post.
func (n *NIC) post(vi *VI, d *Descriptor, op opcode) error {
	r := n.route(vi)
	if r.err == nil && r.up && r.slow > 0 {
		// Slow-node fault injection: the transfer succeeds, just late.
		sleep(r.slow)
	}
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		d.complete(0, ErrClosed)
		return ErrClosed
	}
	n.m.sendsPosted.Inc()
	var posted time.Time
	if n.m.sendLatency != nil {
		posted = time.Now()
	}
	n.xfer.Lock()
	defer n.xfer.Unlock()
	moved, err := n.carry(vi, d, op, r)
	d.complete(moved, err)
	n.m.sendsComplete.Inc()
	if n.m.sendLatency != nil {
		n.m.sendLatency.Observe(int64(time.Since(posted)))
	}
	return err
}

// carry moves d's payload to the peer r names and returns the bytes
// moved. A single segment to a NIC of this process is copied straight
// from the sender's region into the target; anything else is gathered
// into wire first.
func (n *NIC) carry(vi *VI, d *Descriptor, op opcode, r route) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if !r.up {
		err := fmt.Errorf("%w: %s <-> %s", ErrLinkDown, n.addr, r.peer.addr)
		//presslint:alloc-gated failure path: a transfer over a severed link breaks the connection
		vi.breakConn(err)
		return 0, err
	}
	p, err := n.payload(d, r.peer.fw == nil)
	if err != nil {
		return 0, err
	}
	switch {
	case op == opSend && r.peer.fw != nil:
		err = r.peer.deliverSend(r.peerVI, p.buf)
	case op == opSend:
		err = r.peer.receive(r.peerVI, p)
	case r.peer.fw != nil:
		err = r.peer.deliverRDMA(r.peerVI, d.remoteHandle, d.remoteOffset, p.buf)
	default:
		err = r.peer.remoteWrite(d.remoteHandle, d.remoteOffset, p)
	}
	if err == nil && op == opRDMA {
		n.m.rdmaWrites.Inc()
	}
	if err != nil {
		//presslint:alloc-gated failure path: a refused delivery breaks the connection
		vi.breakConn(err)
	}
	n.m.bytesSent.Add(int64(p.n))
	return p.n, err
}

// payload is what d carries, checked readable. With oneCopy a single
// segment stays where it is in the sender's registered memory;
// otherwise the segments are gathered into wire.
func (n *NIC) payload(d *Descriptor, oneCopy bool) (payload, error) {
	if oneCopy && len(d.segments) == 1 {
		s := d.segments[0]
		return payload{src: s.Region, off: s.Offset, n: s.Len}, s.Region.readable(s.Offset, s.Len)
	}
	b, err := d.gather(n.wire)
	if err != nil {
		return payload{}, err
	}
	n.wire = b
	return bytesPayload(b), nil
}

// forwarder intercepts a proxy NIC's deliveries (see NIC.fw).
type forwarder interface {
	// forwardSend relays a send addressed to proxy VI viID.
	forwardSend(viID uint32, payload []byte) error
	// forwardRDMA relays a remote write posted on proxy VI viID's channel.
	forwardRDMA(viID uint32, h Handle, off int, payload []byte) error
	// viBroken reports that proxy VI viID transitioned to broken, so
	// the real peer process can be told.
	viBroken(viID uint32, err error)
}

// deliverSend is the receive path of gathered bytes: on a proxy NIC
// they are forwarded to the real process; otherwise they are received
// into the target VI.
func (n *NIC) deliverSend(viID uint32, b []byte) error {
	if n.fw != nil {
		return n.fw.forwardSend(viID, b)
	}
	return n.receive(viID, bytesPayload(b))
}

// receive matches a message with the target VI's next receive
// descriptor and scatters the payload into it. It never takes the NIC's
// transfer lock: it runs on whatever goroutine moves the sender's
// transfer.
func (n *NIC) receive(viID uint32, p payload) error {
	vi, ok := n.vi(viID)
	if !ok {
		return fmt.Errorf("%w: VI %d gone", ErrBroken, viID)
	}
	d := vi.popRecv()
	if d == nil {
		vi.breakConn(ErrNoRecvDescriptor)
		return ErrNoRecvDescriptor
	}
	written, err := d.scatter(p)
	d.complete(written, err)
	n.m.recvsComplete.Inc()
	vi.recvCompleted(d)
	if err != nil {
		vi.breakConn(err)
	}
	return err
}

// deliverRDMA is the remote-memory-write path of gathered bytes. viID
// is the VI the write was posted to; on a proxy NIC the write is
// forwarded to the real process over that VI's channel.
func (n *NIC) deliverRDMA(viID uint32, h Handle, off int, b []byte) error {
	if n.fw != nil {
		return n.fw.forwardRDMA(viID, h, off, b)
	}
	return n.remoteWrite(h, off, bytesPayload(b))
}

// remoteWrite lands p directly in the registered region with no
// processor or descriptor involvement, and raises the doorbell. Like
// receive, it never takes the NIC's transfer lock.
func (n *NIC) remoteWrite(h Handle, off int, p payload) error {
	r, ok := n.region(h)
	if !ok {
		return fmt.Errorf("%w: unknown handle %d", ErrProtection, h)
	}
	if err := r.rdmaWrite(p, off); err != nil {
		return err
	}
	n.ringDoorbell(r)
	return nil
}

// Doorbell is raised after a remote write lands in this NIC's
// registered memory — the one event a remote write, which consumes no
// descriptor and completes nothing locally, otherwise leaves behind. It
// coalesces: any number of writes between two receives raise it once,
// and raising it never blocks the writer. A consumer parks on it and,
// on each signal, asks Written which regions to look at. Writes refused
// by the protection checks raise nothing.
func (n *NIC) Doorbell() <-chan struct{} { return n.bell }

// Written appends to buf the regions remotely written since the
// previous call, each once, and clears their marks. A region is marked
// before the doorbell is raised, so a consumer that calls Written after
// every signal misses no write.
func (n *NIC) Written(buf []*MemoryRegion) []*MemoryRegion {
	n.bellMu.Lock()
	for i, r := range n.written {
		r.written = false
		buf = append(buf, r)
		n.written[i] = nil
	}
	n.written = n.written[:0]
	n.bellMu.Unlock()
	return buf
}

func (n *NIC) ringDoorbell(r *MemoryRegion) {
	n.bellMu.Lock()
	if !r.written {
		r.written = true
		//presslint:alloc-gated amortized: Written empties the list in place, so it grows only to the most regions written between two looks
		n.written = append(n.written, r)
	}
	n.bellMu.Unlock()
	select {
	case n.bell <- struct{}{}:
	default:
	}
}

// Close shuts the NIC down: its connections and pending receive
// descriptors complete with ErrClosed, and later posts are refused.
func (n *NIC) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	vis := make([]*VI, 0, len(n.vis))
	for _, v := range n.vis {
		vis = append(vis, v)
	}
	listeners := make([]*Listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		listeners = append(listeners, l)
	}
	n.mu.Unlock()

	close(n.done)
	for _, l := range listeners {
		l.Close()
	}
	for _, v := range vis {
		v.Close()
	}
	n.fabric.remove(n.addr)
}

// sleep is a test seam for the slow-node delay.
var sleep = defaultSleep
