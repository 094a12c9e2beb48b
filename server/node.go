package server

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"press/cache"
	"press/core"
	"press/metrics"
	"press/telemetry"
	"press/trace"
	"press/tracing"
	"press/via"
)

// clientResult is a node's answer to one HTTP request. buf, when set,
// is the receive buffer data points into (a forwarded reply): whoever
// writes data to the client owns it and releases it after the write.
// clen is the file's Content-Length value from the node's table, nil
// when data is not the stored size (the handler then formats one).
type clientResult struct {
	data []byte
	clen []string
	buf  *recvBuf
	err  error
}

// clientRequest is an HTTP request handed to the main loop. span is the
// request's root trace span (nil when untraced); accept times the wait
// in httpCh until the main loop picks the request up. Spans cross
// goroutines only via channel hand-off, which orders their use.
// enqueued feeds the queue-delay shed check; deadline is the request's
// budget (RequestTimeout from accept) that every stage honors.
//
// A request is recycled (clientRequests) and owns resp, its clientTimeout
// timer (parked outside ServeHTTP's wait) and lookedUp, its directory
// callback, which goes on dispatching id at node under the span dsp.
type clientRequest struct {
	name     string
	resp     chan clientResult
	timer    *time.Timer
	lookedUp func(cachers cache.NodeSet, first bool)
	node     *Node
	id       cache.FileID
	dsp      *tracing.Span
	span     *tracing.Span
	accept   *tracing.Span
	enqueued time.Time
	deadline time.Time
}

var clientRequests = sync.Pool{New: func() any {
	r := &clientRequest{resp: make(chan clientResult, 1), timer: newStoppedTimer()}
	r.lookedUp = func(cachers cache.NodeSet, first bool) { r.node.dispatchDecided(r, r.id, cachers, first, r.dsp) }
	return r
}}

// newStoppedTimer returns a timer parked as a pooled request keeps it:
// stopped, channel empty.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// release recycles r. Only ServeHTTP calls it, and only after receiving
// from r.resp: the main loop's send there is its last touch of r, while
// on any other return (timeout, node stop, client gone, shed) it may
// still hold r, which is then the GC's. A timer that fired first keeps r
// out too: a pooled request's timer is never armed, its C never full.
func (r *clientRequest) release() {
	if !r.timer.Stop() {
		return
	}
	*r = clientRequest{resp: r.resp, timer: r.timer, lookedUp: r.lookedUp}
	clientRequests.Put(r)
}

// diskJob asks the disk helper threads to read a file.
type diskJob struct {
	name string
}

// diskDone reports a finished disk read back to the main loop.
type diskDone struct {
	name string
	data []byte
	err  error
}

// outMsg is a send-thread work item.
type outMsg struct {
	dst int
	msg Message
}

// diskWaiter is a party waiting for a disk read: a local client or a
// peer that forwarded a request here. span is the waiter's "disk" span;
// serve is the serve-remote span of a forwarded request, ended once the
// file reply has been queued. deadline, when set, drops the waiter
// unserved if the read completes too late (the file is still cached —
// the work is only wasted for this request).
type diskWaiter struct {
	local    *clientRequest
	peer     int
	reqID    uint64
	forServe bool
	span     *tracing.Span
	serve    *tracing.Span
	deadline time.Time
}

// pendingRemote awaits the file reply to a forwarded request. span
// is the "forward" span covering queue-to-wire, wire, remote service,
// and the reply's way back; it ends when the last chunk arrives. dst is
// the node currently serving the request; tried accumulates every node
// the request has been dispatched to so a failover never bounces back;
// deadline re-dispatches the request even without a detected death.
// A replica pull rides the same machinery with no client attached (req
// nil): nothing re-dispatches it, and finish lands it in the cache
// instead of an HTTP response. file is what was asked for, so a reply
// is checked against the size stored for it; buf is the reassembly
// buffer of a reply that comes in more than one chunk, of which
// received bytes are in place.
type pendingRemote struct {
	req      *clientRequest
	file     cache.FileID
	buf      *recvBuf
	received int
	span     *tracing.Span
	dst      int
	tried    cache.NodeSet
	deadline time.Time
	sentAt   time.Time // dispatch time of the current forward (brownout latency sample)
}

// sendFailure is the send thread's report of a delivery it gave up on,
// handed to the main loop which owns the health and failover state.
type sendFailure struct {
	dst int
	msg Message
	err error
}

// nodeInstruments are the node's counters. The first block is the
// node's account of its requests in the paper's terms: every event
// increments exactly one of these counters and nothing else. They live
// in the node's account registry, which exists with or without
// Config.Metrics, and Node.Stats and /_press/metrics are both reads of
// them. The fault-tolerance families have no NodeStats view; they are
// nil — their methods no-ops — without Config.Metrics.
type nodeInstruments struct {
	requests   *metrics.Counter // client requests the main loop dequeued
	localHit   *metrics.Counter // served here from the cache
	localMiss  *metrics.Counter // served here from the disk
	forward    *metrics.Counter // handed to a peer
	remoteHit  *metrics.Counter // a peer's forward served from the cache
	remoteMiss *metrics.Counter // a peer's forward served from the disk
	disk       *metrics.Counter // reads queued (coalesced waiters share one)
	errors     *metrics.Counter // requests or deliveries that failed

	// Replication: pushes requested, replicas pulled in, surplus
	// replicas dropped.
	replPushes *metrics.Counter
	replPulls  *metrics.Counter
	replDrops  *metrics.Counter

	// Fault-tolerance families. sendErrs is indexed by message type
	// (press_node_send_errors_total{node,type}); failovers by reason.
	sendErrs  [core.NumMsgTypes]*metrics.Counter
	failovers map[string]*metrics.Counter
	purged    *metrics.Counter
}

// The failover reasons press_failovers_total distinguishes.
const (
	failoverPeerDead  = "peer-dead"  // health declared the service node dead
	failoverSendError = "send-error" // the forward itself could not be delivered
	failoverTimeout   = "timeout"    // reply overdue past FailoverTimeout
	failoverPeerLeft  = "peer-left"  // the peer announced an orderly departure
)

func newNodeInstruments(account, r *metrics.Registry, id int) nodeInstruments {
	node := fmt.Sprintf("node=%d", id)
	ni := nodeInstruments{
		requests:   account.Counter("press_requests_total", node),
		localHit:   account.Counter("press_serve_local_total", node),
		localMiss:  account.Counter("press_serve_local_miss_total", node),
		forward:    account.Counter("press_serve_forward_total", node),
		remoteHit:  account.Counter("press_serve_remote_total", node),
		remoteMiss: account.Counter("press_serve_remote_miss_total", node),
		disk:       account.Counter("press_disk_reads_total", node),
		errors:     account.Counter("press_errors_total", node),
		replPushes: account.Counter("press_replica_pushes_total", node),
		replPulls:  account.Counter("press_replica_pulls_total", node),
		replDrops:  account.Counter("press_replica_drops_total", node),

		purged:    r.Counter("press_dir_purged_total", node),
		failovers: make(map[string]*metrics.Counter, 4),
	}
	for mt := core.MsgType(0); mt < core.NumMsgTypes; mt++ {
		ni.sendErrs[mt] = r.Counter("press_node_send_errors_total", node, "type="+mt.String())
	}
	for _, reason := range []string{failoverPeerDead, failoverSendError, failoverTimeout, failoverPeerLeft} {
		ni.failovers[reason] = r.Counter("press_failovers_total", node, "reason="+reason)
	}
	return ni
}

// NodeStats is a snapshot of one node's request accounting, in the
// paper's terms: a request is a local hit, a local miss, or forwarded
// (or fails); a forward is a remote hit or a remote miss at the peer
// that serves it. /_press/metrics serves the families each field is a
// read of.
type NodeStats struct {
	Requests    int64
	LocalHits   int64
	LocalMisses int64
	Forwarded   int64
	RemoteHits  int64 // served here for another node, from cache
	// Replicas counts remote misses: served here for another node, from
	// disk, which caches the file here too — how a second copy of a file
	// materializes without the replication layer.
	Replicas  int64
	DiskReads int64
	Errors    int64
	// Hot-object replication accounting: pushes requested of peers,
	// replica pulls completed here, surplus replicas dropped here.
	ReplicaPushes int64
	ReplicaPulls  int64
	ReplicaDrops  int64
	// Overload accounting: requests refused by admission control,
	// dropped past their deadline, and served within it (goodput).
	Shed            int64
	DeadlineExpired int64
	Goodput         int64
}

// add accumulates o into s.
func (s *NodeStats) add(o NodeStats) {
	s.Requests += o.Requests
	s.LocalHits += o.LocalHits
	s.LocalMisses += o.LocalMisses
	s.Forwarded += o.Forwarded
	s.RemoteHits += o.RemoteHits
	s.Replicas += o.Replicas
	s.DiskReads += o.DiskReads
	s.Errors += o.Errors
	s.ReplicaPushes += o.ReplicaPushes
	s.ReplicaPulls += o.ReplicaPulls
	s.ReplicaDrops += o.ReplicaDrops
	s.Shed += o.Shed
	s.DeadlineExpired += o.DeadlineExpired
	s.Goodput += o.Goodput
}

// Node is one PRESS server node: an event-driven main loop owning the
// cache and policy state, a send thread, disk threads, and the
// transport's receive machinery feeding it (Figure 2).
type Node struct {
	id  int
	cfg Config

	store     *Store
	transport Transport
	nic       *via.NIC // nil for TCP transport

	// Owned by the main loop.
	lru       *cache.LRU
	content   map[cache.FileID][]byte
	regions   map[cache.FileID]*via.MemoryRegion // zero-copy TX (V5)
	dir       Directory
	policy    *core.Policy
	load      core.LoadTracker
	peerLoad  []int
	nameToID  map[string]cache.FileID
	files     []trace.File
	clen      [][]string // per file, its Content-Length header value; immutable
	lv        lookupView // dispatchDecided's view of the file being dispatched
	pending   map[uint64]*pendingRemote
	nextReqID uint64
	waiting   map[string][]diskWaiter

	// Fault tolerance, owned by the main loop except where noted. Health
	// runs wherever there is a peer to forward to (healthOn): more than
	// one node.
	health   *healthTracker
	healthOn bool
	degraded bool // all peers dead: content-oblivious fallback
	probing  []bool
	degFlag  atomic.Bool // published copy of degraded

	// Overload control (admission, deadlines, brownout); see overload.go.
	ov overloadCtl

	// Hot-object replication: the policy machine, nil when the layer is
	// off; replication.go drives it.
	repl *core.Replicator

	httpCh     chan *clientRequest
	doneCh     chan struct{} // HTTP completion events (load decrement)
	diskQ      *workQueue[diskJob]
	diskDone   chan diskDone
	sendQ      *workQueue[outMsg]
	ctrlCh     chan func()      // closures run on the main loop
	sendFailCh chan sendFailure // send thread -> main loop

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// loadMirror lets the send thread stamp piggy-backed loads without
	// touching main-loop state.
	loadMirror atomic.Int64

	// account is the registry the node keeps its account in (the
	// request counters, the transport's message counts, shed, expired
	// and goodput): Config.Metrics when there is one, else a registry of
	// the node's own, so /_press/metrics always has it to serve.
	account *metrics.Registry
	m       nodeInstruments
	trc     *tracing.Collector
	tel     *telemetry.Plane // flight-recorder event sink; nil-safe
}

// view adapts the node's state to core.View.
type nodeView struct{ n *Node }

// Cachers masks dead nodes out of the directory view: the policy must
// never pick a node the cluster has routed around.
func (v nodeView) Cachers(id cache.FileID) cache.NodeSet {
	return v.n.dir.Cachers(id).Intersect(cache.NodeSetFromMask(v.n.health.AliveMask()))
}
func (v nodeView) Load(node int) int {
	if node == v.n.id {
		return v.n.load.Load()
	}
	if v.n.health.isDead(node) {
		return int(^uint(0) >> 1) // least-loaded search never lands here
	}
	return v.n.peerLoad[node]
}
func (v nodeView) LoadKnown() bool { return v.n.cfg.Dissemination.LoadAware() }
func (v nodeView) Nodes() int      { return v.n.cfg.Nodes }

// lookupView pins the dispatched file's cacher set to the directory
// lookup's result — by the time an asynchronous (sharded) lookup
// resolves, the live view may not cover the file at all.
type lookupView struct {
	nodeView
	id  cache.FileID
	set cache.NodeSet
}

func (v *lookupView) Cachers(id cache.FileID) cache.NodeSet {
	if id == v.id {
		return v.set
	}
	return v.nodeView.Cachers(id)
}

func newNode(id int, cfg Config, account *metrics.Registry, store *Store, tr Transport, nic *via.NIC) *Node {
	n := &Node{
		id:         id,
		cfg:        cfg,
		account:    account,
		store:      store,
		transport:  tr,
		nic:        nic,
		lru:        cache.NewLRU(cfg.CacheBytes),
		content:    make(map[cache.FileID][]byte),
		regions:    make(map[cache.FileID]*via.MemoryRegion),
		policy:     core.NewPolicy(cfg.Policy),
		load:       *core.NewLoadTracker(cfg.Dissemination),
		peerLoad:   make([]int, cfg.Nodes),
		nameToID:   make(map[string]cache.FileID, len(cfg.Trace.Files)),
		files:      cfg.Trace.Files,
		clen:       make([][]string, len(cfg.Trace.Files)),
		pending:    make(map[uint64]*pendingRemote),
		waiting:    make(map[string][]diskWaiter),
		httpCh:     make(chan *clientRequest, cfg.Overload.AcceptQueue),
		doneCh:     make(chan struct{}, 1024),
		diskQ:      newWorkQueue[diskJob](cfg.Overload.DiskQueue),
		diskDone:   make(chan diskDone, 256),
		sendQ:      newWorkQueue[outMsg](dispatchQueueLimit),
		ctrlCh:     make(chan func(), 64),
		sendFailCh: make(chan sendFailure, 256),
		probing:    make([]bool, cfg.Nodes),
		stop:       make(chan struct{}),
		m:          newNodeInstruments(account, cfg.Metrics, id),
		trc:        cfg.Tracer.Collector(id),
		tel:        cfg.Telemetry,
	}
	n.health = newHealthTracker(id, cfg.Nodes, cfg.Health, retrySeed, cfg.Metrics)
	n.healthOn = cfg.Nodes > 1
	n.ov = newOverloadCtl(cfg, account, id)
	n.repl = core.NewReplicator(cfg.Replication, id, cfg.Nodes, len(cfg.Trace.Files),
		cfg.Policy.LargeFileBytes, time.Now())
	for i, f := range cfg.Trace.Files {
		n.nameToID[f.Name] = cache.FileID(i)
		n.clen[i] = []string{strconv.FormatInt(f.Size, 10)} // sizes are fixed
	}
	n.dir = newDirectory(cfg.Dissemination, dirEnv{
		self:     id,
		nodes:    cfg.Nodes,
		files:    len(cfg.Trace.Files),
		send:     n.send,
		fileName: func(id cache.FileID) string { return n.files[id].Name },
		fileID: func(name string) (cache.FileID, bool) {
			id, ok := n.nameToID[name]
			return id, ok
		},
		localFiles: func(fn func(id cache.FileID)) {
			for id := range n.content {
				fn(id)
			}
		},
		alive: func() cache.NodeSet { return cache.NodeSetFromMask(n.health.AliveMask()) },
		event: func(typ telemetry.EventType, peer int, detail string, value int64) {
			n.tel.Event(typ, n.id, peer, detail, value)
		},
	})
	return n
}

func (n *Node) start() {
	n.wg.Add(2 + diskThreads)
	go n.mainLoop()
	go n.sendThread()
	for i := 0; i < diskThreads; i++ {
		go n.diskThread()
	}
}

// Stats reads the node's counters; callable from any goroutine. Each
// field is one atomic load (a labelled family's sum for the overload
// three), so the snapshot is not a consistent cut under load — it is
// exact once the requests it describes have been answered.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Requests:        n.m.requests.Value(),
		LocalHits:       n.m.localHit.Value(),
		LocalMisses:     n.m.localMiss.Value(),
		Forwarded:       n.m.forward.Value(),
		RemoteHits:      n.m.remoteHit.Value(),
		Replicas:        n.m.remoteMiss.Value(),
		DiskReads:       n.m.disk.Value(),
		Errors:          n.m.errors.Value(),
		ReplicaPushes:   n.m.replPushes.Value(),
		ReplicaPulls:    n.m.replPulls.Value(),
		ReplicaDrops:    n.m.replDrops.Value(),
		Shed:            sumCounters(n.ov.im.shed),
		DeadlineExpired: sumCounters(n.ov.im.expired),
		Goodput:         n.ov.im.goodput.Value(),
	}
}

// mainLoop is the event-driven heart of the node: it owns all policy
// and cache state and must never block (helper threads do the waiting).
func (n *Node) mainLoop() {
	defer n.wg.Done()
	inbound := n.transport.Inbound()
	var m Message // every message is received here; see handleMessage
	var ok bool
	// The periodic tick sweeps pending forwards (expired deadlines,
	// overdue replies) and drives failure detection (heartbeats, probes);
	// a nil channel (nothing ticks on this node) removes the case
	// entirely.
	var tickCh <-chan time.Time
	if interval := n.tickInterval(); interval > 0 {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tickCh = ticker.C
	}
	for {
		select {
		case <-n.stop:
			return
		case r := <-n.httpCh:
			n.handleClient(r)
		case <-n.doneCh:
			n.loadChange(-1)
		case m, ok = <-inbound:
			if !ok {
				return
			}
			n.handleMessage(&m)
		case d := <-n.diskDone:
			n.handleDiskDone(d)
		case f := <-n.ctrlCh:
			f()
		case sf := <-n.sendFailCh:
			n.handleSendFailure(sf)
		case now := <-tickCh:
			n.sweepPending(now)
			if n.healthOn {
				n.healthTick(now)
			}
			n.replTick(now)
			n.dir.Tick(now)
		}
	}
}

// tickInterval sizes the main-loop ticker: where there are peers to
// forward to, half the heartbeat interval for failure detection, and
// never slower than a quarter of the request timeout so expired pending
// forwards are swept promptly. Zero = no ticker.
func (n *Node) tickInterval() time.Duration {
	var interval time.Duration
	lower := func(d time.Duration) {
		if d > 0 && (interval == 0 || d < interval) {
			interval = d
		}
	}
	if n.healthOn {
		lower(n.cfg.Health.HeartbeatInterval / 2)
		lower(n.ov.cfg.RequestTimeout / 4)
	}
	if n.repl != nil {
		// Half the fold interval so rate folds land close to cadence.
		lower(n.cfg.Replication.Interval / 2)
	}
	// Sharded-directory lookup timeouts also ride the main-loop ticker.
	lower(n.dir.TickInterval())
	return interval
}

// handleClient's five budgeted sites: the directory's call of lookedUp
// (not followed into dispatchDecided), readDisk's two on a miss,
// loadChange's broadcast, shedClient's reason. Not budgeted: the 404's
// fmt.Errorf (error path), a full send queue, a sharded lookup (gated).
//
//presslint:hotpath budget=5
func (n *Node) handleClient(r *clientRequest) {
	r.accept.End()
	n.m.requests.Inc()
	n.loadChange(+1)
	// Dequeue-side admission: both checks run after loadChange(+1), so
	// the HTTP handler's completion event balances the books.
	now := time.Now()
	wait := now.Sub(r.enqueued)
	n.ov.im.acceptDelay.Observe(int64(wait))
	if now.After(r.deadline) {
		n.expireClient(r, dlStageAccept)
		return
	}
	if t := n.ov.cfg.QueueDelayTarget; t > 0 && wait > t {
		n.shedClient(r, ErrShed, shedQueueAccept, shedReasonQueueDelay)
		return
	}
	id, ok := n.nameToID[r.name]
	if !ok {
		n.m.errors.Inc()
		r.resp <- clientResult{err: fmt.Errorf("%w: %q", ErrNoSuchFile, r.name)}
		return
	}
	if n.degraded {
		// Graceful degradation: an isolated node keeps serving from its
		// own cache and disk.
		n.serveLocal(r, id)
		return
	}
	r.id, r.dsp = id, r.span.StartChild("dispatch")
	n.dir.Lookup(id, r.lookedUp)
}

// dispatchDecided is the second half of handleClient, entered through
// r.lookedUp once the directory has resolved the file's cacher set —
// immediately for a replicated directory, after a directed lookup for a
// sharded one. Runs on the main loop.
func (n *Node) dispatchDecided(r *clientRequest, id cache.FileID, cachers cache.NodeSet, first bool, dsp *tracing.Span) {
	if _, async := n.dir.(*shardedDirectory); async && time.Now().After(r.deadline) {
		// A sharded lookup can outlive the request's budget; a replicated
		// one ran inside handleClient, which has just checked it.
		dsp.End()
		n.expireClient(r, dlStageAccept)
		return
	}
	size := n.files[id].Size
	n.lv = lookupView{nodeView: nodeView{n}, id: id,
		set: cachers.Intersect(cache.NodeSetFromMask(n.health.AliveMask()))}
	d := n.policy.Decide(n.id, id, size, first, &n.lv)
	dsp.Annotate("service", int64(d.Service))
	dsp.End()
	dst := d.Service
	if dst != n.id && !n.health.isDead(dst) && !n.ovAllowForward(dst, time.Now()) {
		// The chosen service node is browned out (slow but alive): route
		// around it without touching its directory entries — next-best
		// healthy cacher, else local disk.
		r.span.Annotate("brownout-redirect", int64(dst))
		if dst = n.pickFailover(id, cache.NodeSetOf(n.id, dst)); dst < 0 || n.ovBrowned(dst) {
			dst = n.id
		}
	}
	if dst == n.id || n.health.isDead(dst) {
		n.serveLocal(r, id)
		return
	}
	n.m.forward.Inc()
	fwd := r.span.StartChild("forward")
	fwd.Annotate("dst", int64(dst))
	n.startForward(&pendingRemote{req: r, file: id, span: fwd, tried: cache.NodeSetOf(n.id)}, dst)
}

// fileResult answers with data as file id; bytes that are not the stored
// size go without the table's Content-Length.
func (n *Node) fileResult(id cache.FileID, data []byte, buf *recvBuf) clientResult {
	if int64(len(data)) != n.files[id].Size {
		return clientResult{data: data, buf: buf}
	}
	return clientResult{data: data, buf: buf, clen: n.clen[id]}
}

func (n *Node) serveLocal(r *clientRequest, id cache.FileID) {
	n.repl.NoteServe(id)
	if n.lru.Touch(id) {
		n.m.localHit.Inc()
		r.resp <- n.fileResult(id, n.content[id], nil)
		return
	}
	n.m.localMiss.Inc()
	n.readDisk(n.files[id].Name, diskWaiter{local: r, span: r.span.StartChild("disk"),
		deadline: r.deadline})
}

// readDisk queues a disk read, coalescing concurrent readers of the
// same file onto one disk access. A full disk queue sheds the waiter:
// a local client gets a prompt 503, a peer's forward is dropped and
// recovered by its failover timeout.
func (n *Node) readDisk(name string, w diskWaiter) {
	if ws, inFlight := n.waiting[name]; inFlight {
		n.waiting[name] = append(ws, w)
		return
	}
	if !n.diskQ.push(diskJob{name: name}) {
		w.span.End()
		w.serve.End()
		if w.local != nil {
			n.shedClient(w.local, ErrShed, shedQueueDisk, shedReasonFull)
			return
		}
		n.ov.im.shedInc(shedQueueDisk, shedReasonFull)
		return
	}
	n.waiting[name] = []diskWaiter{w}
	n.m.disk.Inc()
}

func (n *Node) handleDiskDone(d diskDone) {
	waiters := n.waiting[d.name]
	delete(n.waiting, d.name)
	if d.err != nil {
		n.m.errors.Inc()
		for _, w := range waiters {
			w.span.End()
			w.serve.End()
			if w.local != nil {
				w.local.resp <- clientResult{err: d.err}
			}
		}
		return
	}
	id := n.nameToID[d.name]
	n.insertCache(id, d.data)
	now := time.Now()
	for _, w := range waiters {
		w.span.Annotate("bytes", int64(len(d.data)))
		w.span.End()
		if !w.deadline.IsZero() && now.After(w.deadline) {
			// The read outlived the request: the file is cached, but
			// serving it now would not be goodput.
			if w.local != nil {
				n.expireClient(w.local, dlStageDisk)
			} else {
				n.ov.im.expiredInc(dlStageDisk)
				w.serve.AnnotateStr("deadline-expired", dlStageDisk)
				w.serve.End()
			}
			continue
		}
		if w.local != nil {
			w.local.resp <- n.fileResult(id, d.data, nil)
			continue
		}
		n.sendFile(w.peer, w.reqID, id, d.data, w.serve, w.deadline)
		w.serve.End()
	}
}

// insertCache caches the file, registers its pages for zero-copy
// transmit when configured, and broadcasts the caching-information
// changes (Section 2.2).
func (n *Node) insertCache(id cache.FileID, data []byte) {
	evicted, inserted := n.lru.Insert(id, int64(len(data)))
	for _, ev := range evicted {
		n.uncache(ev)
		n.repl.Evicted(ev)
	}
	if !inserted {
		return
	}
	n.content[id] = data
	if n.cfg.Version.ZeroCopyTX && n.nic != nil {
		// Version 5: all pages holding cached files are registered
		// with VIA so transmits need no staging copy (Section 3.4).
		if reg, err := n.nic.RegisterMemory(data); err == nil {
			n.regions[id] = reg
		}
	}
	n.dir.LocalCached(id, true)
}

// uncache forgets a file the LRU has let go of: its bytes, its zero-copy
// registration, and its entry in the cluster's caching view.
func (n *Node) uncache(id cache.FileID) {
	delete(n.content, id)
	if reg := n.regions[id]; reg != nil {
		_ = n.nic.DeregisterMemory(reg)
		delete(n.regions, id)
	}
	n.dir.LocalCached(id, false)
}

// sendFile queues a file reply; parent (the serve-remote span, nil when
// untraced) stamps the reply's trace context so transport-side spans
// attribute to the right request. deadline, when set, lets the send
// thread drop the reply if its budget runs out in the queue.
func (n *Node) sendFile(dst int, reqID uint64, id cache.FileID, data []byte, parent *tracing.Span, deadline time.Time) {
	n.send(dst, Message{Type: core.MsgFile, ReqID: reqID, Data: data, Total: uint32(len(data)),
		TraceID: parent.Trace(), ParentSpan: parent.ID(), deadline: deadline, SrcRegion: n.regions[id]})
}

// handleMessage dispatches one received message. m is the main loop's
// one Message, overwritten by the next receive: no handler keeps m; what
// outlives the call is copied out of it (Data, buf, Name, field values).
func (n *Node) handleMessage(m *Message) {
	// Every message from a peer is proof of life; a resurrection means
	// the peer must be re-integrated into the caching view.
	if n.healthOn && m.From != n.id {
		if n.health.noteRecv(m.From, time.Now()) {
			n.reintegrate(m.From)
		}
	}
	// Piggy-backed load information updates the sender's entry.
	if m.Load >= 0 && m.From != n.id {
		n.peerLoad[m.From] = int(m.Load)
	}
	switch m.Type {
	case core.MsgLoad:
		// A threshold broadcast or a heartbeat: its load is applied above.
	case core.MsgCaching, core.MsgDirLookup, core.MsgDirReply, core.MsgDirInval, core.MsgDirSync:
		n.dir.HandleMessage(m)
	case core.MsgReplicate:
		n.handleReplicate(m)
	case core.MsgForward:
		n.handleForward(m)
	case core.MsgFile:
		n.handleFileChunk(m)
	case core.MsgJoin:
		// A completed membership handshake, surfaced by the transport
		// (wire handshake frames never leave it). The proof-of-life
		// handling above has already reintegrated a resurrected peer and
		// replayed the directory; here we record the new life's epoch.
		if j, err := decodeJoinInfo(m.Data); err == nil {
			n.tel.Event(telemetry.EvPeerJoin, n.id, m.From, "", int64(j.Epoch))
		}
	case core.MsgLeave:
		n.peerLeft(m.From, decodeLeave(m.Data))
	}
}

// peerLeft handles an orderly-departure announcement: the peer is
// draining and about to exit, so the cluster routes around it now
// instead of waiting out the silence thresholds. The same dead-peer
// path as a detected failure runs — channel poisoned, directory
// purged, in-flight forwards failed over — just sooner.
func (n *Node) peerLeft(peer int, epoch uint64) {
	if peer < 0 || peer >= n.cfg.Nodes || peer == n.id {
		return
	}
	n.tel.Event(telemetry.EvPeerLeave, n.id, peer, "leave announced", int64(epoch))
	if n.health.markDead(peer, time.Now()) {
		n.onPeerDead(peer, failoverPeerLeft)
	}
}

// AnnounceLeave queues a leave announcement to every peer not already
// known dead (send skips those), then waits (bounded) so the send thread
// has a chance to put the messages on the wire before the caller tears
// the node down.
func (n *Node) AnnounceLeave(timeout time.Duration) {
	var epoch uint64
	if et, ok := n.transport.(epochTransport); ok {
		epoch = et.SelfEpoch()
	}
	queued := make(chan struct{})
	n.inject(func() {
		for p := 0; p < n.cfg.Nodes; p++ {
			if p != n.id {
				n.send(p, Message{Type: core.MsgLeave, Data: encodeLeave(epoch)})
			}
		}
		close(queued)
	})
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-queued:
	case <-deadline.C:
		return
	case <-n.stop:
		return
	}
	// The announcements sit in the send queue; poll it empty (or the
	// deadline) so they actually reach the wire.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for n.sendQ.len() > 0 {
		select {
		case <-tick.C:
		case <-deadline.C:
			return
		case <-n.stop:
			return
		}
	}
}

// handleForward services a request another node sent here: from cache
// if present, from the local disk otherwise (caching the file — this is
// how replication materializes).
func (n *Node) handleForward(m *Message) {
	// serve-remote parents to the initiator's forward span: the
	// cross-node edge every stitched trace hinges on.
	srv := n.trc.StartSpan("serve-remote", m.TraceID, m.ParentSpan)
	srv.AnnotateStr("file", m.Name)
	// The propagated budget anchors a local deadline at arrival: every
	// stage from here on — disk wait, reply queueing — honors it, so a
	// service node never burns work on a request the origin's client
	// has already given up on.
	var deadline time.Time
	if m.Budget > 0 {
		deadline = time.Now().Add(m.Budget)
	}
	id, ok := n.nameToID[m.Name]
	if !ok {
		srv.End()
		return
	}
	n.repl.NoteServe(id)
	if n.lru.Touch(id) {
		n.m.remoteHit.Inc()
		n.sendFile(m.From, m.ReqID, id, n.content[id], srv, deadline)
		srv.End()
		return
	}
	n.m.remoteMiss.Inc()
	n.readDisk(m.Name, diskWaiter{peer: m.From, reqID: m.ReqID, forServe: true,
		span: srv.StartChild("disk"), serve: srv, deadline: deadline})
}

// errCorruptReply ends a forward whose reply is not the stored file.
var errCorruptReply = errors.New("server: corrupt file reply")

// handleFileChunk takes in a file reply and answers the waiting client.
// A message that is the whole file — every RMW transfer, every regular
// or TCP reply of up to one chunk — is adopted: its receive buffer
// becomes the reply, not a byte moves. A reply in several chunks is
// reassembled in one buffer from the same pool, each chunk's frame going
// back once copied. The initial node does not cache the file, avoiding
// excessive replication (Section 2.2).
func (n *Node) handleFileChunk(m *Message) {
	p := n.pending[m.ReqID]
	if p == nil || m.From != p.dst {
		// Unknown request — a reply to a forward that has ended, or that
		// failed over and went out again under a fresh id — or a reply
		// from a node the forward was not sent to.
		return
	}
	// Total and Offset are socket input (TCP mesh, bridged VIA) and
	// the pending request knows its file: a reply must be exactly the
	// stored size, chunk following chunk with no gap or overlap, before
	// it sizes a buffer or completes a request.
	if int64(m.Total) != n.files[p.file].Size || int(m.Offset) != p.received ||
		len(m.Data) > int(m.Total)-p.received {
		n.m.errors.Inc()
		n.endForward(m.ReqID, p, clientResult{err: errCorruptReply})
		return
	}
	res := n.fileResult(p.file, m.Data, m.buf)
	if len(m.Data) < int(m.Total) {
		if p.buf == nil {
			p.buf = getRecvBuf(int(m.Total))
		}
		copy(p.buf.b[m.Offset:], m.Data)
		m.buf.release()
		p.received += len(m.Data)
		if p.received < int(m.Total) {
			return
		}
		res = n.fileResult(p.file, p.buf.b, p.buf)
	}
	n.endForward(m.ReqID, p, res)
}

// loadChange tracks open client connections, broadcasting under the
// threshold strategies.
func (n *Node) loadChange(delta int) {
	broadcast := n.load.Change(delta)
	n.loadMirror.Store(int64(n.load.Load()))
	if !broadcast {
		return
	}
	load := int32(n.load.Load())
	for p := 0; p < n.cfg.Nodes; p++ {
		if p == n.id {
			continue
		}
		n.send(p, Message{Type: core.MsgLoad, Load: load})
	}
}

// send queues a message, by value, for the send thread — unless dst is
// a peer this node has declared dead: routing already avoids it, its
// channel has been failed, and it comes back only through markAlive,
// after which PeerJoined replays the directory, so nothing queued for it
// meanwhile is owed. Any outbound message doubles as a heartbeat, so the
// tracker learns it was sent. A full dispatch queue sheds the message
// instead of growing without bound. queued reports whether the message
// went out; only startForward looks. The queue's growth and the shed
// are gated: no site is counted.
//
//presslint:hotpath budget=0
func (n *Node) send(dst int, m Message) (queued bool) {
	if n.health.isDead(dst) {
		return false
	}
	m.From = n.id
	n.health.noteSent(dst, time.Now())
	if !n.sendQ.push(outMsg{dst: dst, msg: m}) {
		n.ov.im.shedInc(shedQueueDispatch, shedReasonFull)
		return false
	}
	return true
}

// sendThread drains the send queue, stamping the piggy-backed load and
// calling the (possibly blocking) transport once per message: the
// transports' supersede bounce is the one retry. A failure is counted per
// message type and reported to the main loop, which owns the health
// state and fails the owning forward over instead of silently dropping
// it. Every message is popped into item, lent to Send.
func (n *Node) sendThread() {
	defer n.wg.Done()
	pb := n.cfg.Dissemination.Piggyback()
	var item outMsg
	for {
		var ok bool
		if item, ok = n.sendQ.pop(); !ok {
			return
		}
		if item.msg.Type != core.MsgLoad {
			if pb {
				item.msg.Load = int32(n.loadMirror.Load())
			} else {
				item.msg.Load = -1
			}
		}
		if !item.msg.deadline.IsZero() {
			// Stamp the remaining budget at the transport hand-off: time
			// spent waiting in the send queue erodes it. A message whose
			// budget ran out here is dropped, not sent — the main loop
			// answers the owning request instead of a slow wire.
			b := time.Until(item.msg.deadline)
			if b <= 0 {
				select {
				case n.sendFailCh <- sendFailure{dst: item.dst, msg: item.msg, err: ErrDeadlineExpired}:
				case <-n.stop:
					return
				}
				continue
			}
			item.msg.Budget = b
		}
		// net-send covers the transport call for traced messages: queue
		// drain to wire hand-off, including any flow-control wait inside.
		ns := n.trc.StartSpan("net-send", item.msg.TraceID, item.msg.ParentSpan)
		ns.AnnotateStr("type", item.msg.Type.String())
		err := n.transport.Send(item.dst, &item.msg)
		ns.End()
		if err == nil {
			continue
		}
		select {
		case <-n.stop:
			return
		default:
		}
		n.m.sendErrs[item.msg.Type].Inc()
		select {
		case n.sendFailCh <- sendFailure{dst: item.dst, msg: item.msg, err: err}:
		case <-n.stop:
			return
		}
	}
}

// handleSendFailure reacts to a message the send thread could not
// deliver, in this order. An expired one ran out of budget in our own
// send queue — not the peer's fault — and its forward ends. A hard
// channel fault (hardSendErr) is evidence of death; anything else is
// grounds for suspicion. A forward whose send failed then fails over:
// the client must not ride out its full timeout for a message that
// never left this node.
func (n *Node) handleSendFailure(sf sendFailure) {
	expired := errors.Is(sf.err, ErrDeadlineExpired)
	switch {
	case expired:
		n.ov.im.expiredInc(dlStageSend)
	case hardSendErr(sf.err):
		n.m.errors.Inc()
		if n.health.markDead(sf.dst, time.Now()) {
			n.onPeerDead(sf.dst, failoverSendError)
		}
	default:
		n.m.errors.Inc()
		n.health.noteSendFault(sf.dst)
	}
	p := n.pending[sf.msg.ReqID]
	if sf.msg.Type != core.MsgForward || p == nil || p.dst != sf.dst {
		// Not a forward (an expired file reply just vanishes; the origin's
		// own sweep covers it), or one the peer's death has failed over.
		return
	}
	if expired {
		n.endForward(sf.msg.ReqID, p, clientResult{err: fmt.Errorf("%w (%s)", ErrDeadlineExpired, dlStageSend)})
		return
	}
	n.failover(sf.msg.ReqID, p, failoverSendError)
}

// healthTick advances failure detection and everything driven by it:
// silence-based state transitions, idle heartbeats, and reconnect probes
// to dead peers.
func (n *Node) healthTick(now time.Time) {
	for _, tr := range n.health.tick(now) {
		switch tr.to {
		case StateSuspect:
			n.tel.Event(telemetry.EvPeerSuspect, n.id, tr.peer, "probe overdue", 0)
		case StateDead:
			n.onPeerDead(tr.peer, failoverPeerDead)
		}
	}
	for p := 0; p < n.cfg.Nodes; p++ {
		if p == n.id {
			continue
		}
		if n.health.heartbeatDue(p, now) {
			n.health.hbSent.Inc()
			n.send(p, Message{Type: core.MsgLoad, Load: int32(n.load.Load())})
		}
		if n.health.probeDue(p, now) {
			n.probe(p)
		}
	}
	n.updateDegraded()
}

// onPeerDead routes the cluster around a dead node: its channel fails
// fast (parked senders wake), its entries leave the caching view, and
// every request it was serving is re-dispatched.
func (n *Node) onPeerDead(peer int, reason string) {
	n.transport.PeerDown(peer, fmt.Errorf("health: declared dead (%s)", reason))
	n.tel.Event(telemetry.EvPeerDead, n.id, peer, reason, 0)
	purged := n.dir.PeerDead(peer)
	n.m.purged.Add(int64(purged))
	if purged > 0 {
		n.tel.Event(telemetry.EvDirPurge, n.id, peer, "", int64(purged))
	}
	n.peerLoad[peer] = 0
	n.ovResetPeer(peer)
	for reqID, p := range n.pending {
		if p.dst == peer {
			n.failover(reqID, p, failoverPeerDead)
		}
	}
	n.updateDegraded()
}

// A forward's life cycle: startForward is the one way one begins,
// endForward the one way one ends, and leavePending the one way one
// leaves n.pending — an ending, or a failover on its way to the next
// startForward. Between them sweepPending expires and fails over what
// waits too long.

// startForward sends p's request to dst: a client's dispatch, a replica
// pull, or a failover's re-dispatch. Each send gets a fresh request id,
// so a late reply from a node the request has since failed over away
// from matches nothing, and a half-received reply from it is discarded;
// dst joins p.tried, so a failover never bounces back. A forward the
// full dispatch queue sheds never starts: the request is served here.
func (n *Node) startForward(p *pendingRemote, dst int) {
	now := time.Now()
	n.nextReqID++
	p.dst, p.tried, p.sentAt = dst, p.tried.Add(dst), now
	p.deadline = now.Add(n.cfg.Health.FailoverTimeout)
	p.buf, p.received = nil, 0 // a partial buffer is the GC's (recvbuf.go)
	m := Message{Type: core.MsgForward, ReqID: n.nextReqID, Name: n.files[p.file].Name,
		TraceID: p.span.Trace(), ParentSpan: p.span.ID()}
	if p.req != nil {
		m.deadline = p.req.deadline
	}
	if !n.send(dst, m) {
		p.span.AnnotateStr("shed", shedQueueDispatch+"/"+shedReasonFull)
		n.serveHere(p)
		return
	}
	n.pending[n.nextReqID] = p
	n.ovForwardSent(dst, now)
}

// leavePending takes forward reqID out of n.pending and gives dst's pace
// its sample back: the wait for a reply, or for the failure that ended
// it — a peer that times requests out is slow by definition.
func (n *Node) leavePending(reqID uint64, p *pendingRemote) {
	delete(n.pending, reqID)
	now := time.Now()
	n.ovForwardDone(p.dst, now.Sub(p.sentAt), now)
}

// endForward ends forward reqID with res, a reply or why there is none:
// it leaves pending, its span records the outcome, and finish answers
// the client or lands the pull.
func (n *Node) endForward(reqID uint64, p *pendingRemote, res clientResult) {
	n.leavePending(reqID, p)
	if res.err != nil {
		p.span.AnnotateStr("error", res.err.Error())
	} else {
		p.span.Annotate("bytes", int64(len(res.data)))
	}
	p.finish(n, res)
}

// serveHere gives up forwarding p's request, whose span ends: a client
// is served from this node's cache or disk — the paper's locality goal
// yields to availability. A replica pull, which never fails over, gets
// here only when shed, and is abandoned.
func (n *Node) serveHere(p *pendingRemote) {
	p.span.End()
	if p.req == nil {
		p.finish(n, clientResult{err: ErrShed})
		return
	}
	n.serveLocal(p.req, p.file)
}

// sweepPending is the tick's one pass over pending. A forward whose
// client has given up (deadline passed) ends expired — it is not failed
// over first, to a peer whose reply nobody would wait for — and one
// whose reply is overdue past FailoverTimeout fails over.
func (n *Node) sweepPending(now time.Time) {
	for reqID, p := range n.pending {
		switch {
		case p.req != nil && !p.req.deadline.IsZero() && now.After(p.req.deadline):
			n.ov.im.expiredInc(dlStagePending)
			n.endForward(reqID, p, clientResult{err: fmt.Errorf("%w (%s)", ErrDeadlineExpired, dlStagePending)})
		case now.After(p.deadline):
			n.failover(reqID, p, failoverTimeout)
		}
	}
}

// failover re-dispatches a forwarded request: to the least-loaded alive
// cacher it has not tried yet, else to the local disk. A replica pull
// has no client to re-dispatch for and ends: the source died or
// stalled, and the pusher's policy re-triggers while the file stays hot.
func (n *Node) failover(reqID uint64, p *pendingRemote, reason string) {
	if p.req == nil {
		n.endForward(reqID, p, clientResult{err: fmt.Errorf("server: pull from node %d: %s", p.dst, reason)})
		return
	}
	n.leavePending(reqID, p)
	n.m.failovers[reason].Inc()
	n.tel.Event(telemetry.EvFailover, n.id, p.dst, reason, 0)
	p.span.AnnotateStr("failover", reason)
	dst := n.pickFailover(p.file, p.tried)
	if dst < 0 {
		p.span.Annotate("failover-dst", int64(n.id))
		n.serveHere(p)
		return
	}
	// A surviving cacher takes over: the request moves to another
	// replica of the file instead of falling back to local disk.
	n.tel.Event(telemetry.EvReplicaFailover, n.id, dst, p.req.name, 0)
	p.span.Annotate("failover-dst", int64(dst))
	n.startForward(p, dst)
}

// pickFailover returns the least-loaded alive cacher of the file not
// yet tried, -1 if none. Browned-out peers are passed over when a
// healthy candidate exists, but — unlike dead ones — remain eligible as
// a last resort: slow beats local disk when the disk path is the
// bottleneck being escaped. (A brownout redirect wants a healthy peer
// or none, and checks the answer.)
func (n *Node) pickFailover(id cache.FileID, tried cache.NodeSet) int {
	set := n.dir.Cachers(id).Intersect(cache.NodeSetFromMask(n.health.AliveMask()))
	best, bestLoad := -1, int(^uint(0)>>1)
	bestBrowned, bestBrownedLoad := -1, int(^uint(0)>>1)
	for _, c := range set.Nodes() {
		if c == n.id || tried.Has(c) {
			continue
		}
		if n.ovBrowned(c) {
			if l := n.peerLoad[c]; l < bestBrownedLoad {
				bestBrowned, bestBrownedLoad = c, l
			}
			continue
		}
		if l := n.peerLoad[c]; l < bestLoad {
			best, bestLoad = c, l
		}
	}
	if best < 0 {
		return bestBrowned
	}
	return best
}

// reintegrate welcomes a peer back from the dead: this node's view of
// it was purged, and a restarted process lost its directory, so
// re-announce everything cached here. The peer's own broadcasts rebuild
// this node's view of its cache.
func (n *Node) reintegrate(peer int) {
	n.tel.Event(telemetry.EvPeerAlive, n.id, peer, "reintegrated", 0)
	n.peerLoad[peer] = 0
	n.ovResetPeer(peer)
	n.dir.PeerJoined(peer)
	n.updateDegraded()
}

// updateDegraded recomputes the content-oblivious fallback flag: with
// every peer dead there is no cluster left to aggregate caches with.
func (n *Node) updateDegraded() {
	deg := n.healthOn && n.health.alivePeers() == 0
	if deg == n.degraded {
		return
	}
	n.degraded = deg
	n.degFlag.Store(deg)
	if deg {
		n.tel.Event(telemetry.EvDegradedEnter, n.id, -1, "all peers dead", 0)
	} else {
		n.tel.Event(telemetry.EvDegradedExit, n.id, -1, "", 0)
	}
}

// probe tries to re-establish the channel to a dead peer off the main
// loop. Whether this side is the one that should dial is the
// transport's call: TCP dials from either side (the dead side may be
// exactly the one a fixed role would have picked), VIA answers
// errPassiveRole on the higher-indexed side and recovers when the
// peer's dial lands. At most one probe per peer is in flight.
func (n *Node) probe(peer int) {
	if n.probing[peer] {
		return
	}
	n.probing[peer] = true
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		err := n.transport.Reconnect(peer)
		n.inject(func() {
			n.probing[peer] = false
			if err != nil {
				return // next probe is already scheduled with backoff
			}
			n.health.markAlive(peer, time.Now())
			n.reintegrate(peer)
		})
	}()
}

// inject runs f on the main loop; dropped when the node is stopping.
func (n *Node) inject(f func()) {
	select {
	case n.ctrlCh <- f:
	case <-n.stop:
	}
}

// crashLocalState models a process crash for the chaos harness: cache
// contents, directory knowledge, and in-flight forwarded requests all
// vanish, as they would across a real process restart. Runs on the main
// loop (via inject).
func (n *Node) crashLocalState() {
	n.tel.Event(telemetry.EvCrash, n.id, -1, "local state wiped", 0)
	for id := range n.content {
		delete(n.content, id)
	}
	for id, reg := range n.regions {
		_ = n.nic.DeregisterMemory(reg)
		delete(n.regions, id)
	}
	n.lru = cache.NewLRU(n.cfg.CacheBytes)
	n.dir.Crash()
	n.repl.Reset(time.Now())
	for reqID, p := range n.pending {
		n.endForward(reqID, p, clientResult{err: fmt.Errorf("server: node %d crashed", n.id)})
	}
}

// PeerState is this node's health verdict on a peer, readable from any
// goroutine; a node's verdict on itself is always StateAlive.
func (n *Node) PeerState(peer int) NodeState {
	if peer == n.id {
		return StateAlive
	}
	return n.health.State(peer)
}

// Degraded reports whether the node has fallen back to content-
// oblivious local service because every peer is dead.
func (n *Node) Degraded() bool { return n.degFlag.Load() }

// diskThreads is the number of disk helper threads per node.
const diskThreads = 2

// diskThread performs blocking disk reads so the main loop never does.
func (n *Node) diskThread() {
	defer n.wg.Done()
	for {
		job, ok := n.diskQ.pop()
		if !ok {
			return
		}
		data, err := n.store.read(job.name, n.cfg.DiskDelay)
		select {
		case n.diskDone <- diskDone{name: job.name, data: data, err: err}:
		case <-n.stop:
			return
		}
	}
}

func (n *Node) shutdown() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.sendQ.close()
		n.diskQ.close()
		n.transport.Close()
	})
	n.wg.Wait()
}

// ID returns the node's index.
func (n *Node) ID() int { return n.id }
