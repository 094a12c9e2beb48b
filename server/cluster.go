package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"press/core"
	"press/metrics"
	"press/netmodel"
	"press/telemetry"
	"press/trace"
	"press/tracing"
	"press/via"
)

// TransportKind selects the intra-cluster communication substrate.
type TransportKind int

const (
	// TransportTCP runs the complete kernel TCP stack over loopback.
	TransportTCP TransportKind = iota
	// TransportVIA uses the software VIA of internal/via.
	TransportVIA
)

// String names the transport.
func (k TransportKind) String() string {
	if k == TransportVIA {
		return "VIA"
	}
	return "TCP"
}

// Config describes one PRESS cluster.
type Config struct {
	// Nodes is the cluster size (>= 1).
	Nodes int
	// Trace supplies the file population the cluster serves; request
	// streams come from clients, not from here.
	Trace *trace.Trace
	// Transport picks TCP or VIA for intra-cluster communication.
	Transport TransportKind
	// Version selects the RMW/zero-copy style (Table 3); VIA only.
	Version netmodel.Version
	// Dissemination is the load-information strategy.
	Dissemination core.Strategy
	// Policy holds the distribution tunables; zero means defaults.
	Policy core.PolicyConfig
	// CacheBytes is each node's cache capacity (default 64 MB).
	CacheBytes int64
	// DiskDelay is the artificial per-read disk latency (default 2 ms).
	DiskDelay time.Duration
	// Metrics, when non-nil, collects the cluster's observability
	// counters: per-node/per-type message accounting, copied bytes,
	// credit stalls, NIC activity, and the request account. With nil
	// (the default) each node keeps its account — the counters Stats
	// reports — in a registry of its own, /_press/metrics serves that,
	// and nothing else is collected.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records end-to-end request traces: every
	// sampled HTTP request becomes a span tree that follows the request
	// through dispatch, the intra-cluster fabric, the remote node's
	// cache/disk path and back. Nil (the default) disables tracing on
	// every hot path at the cost of one pointer test.
	Tracer *tracing.Tracer
	// Telemetry, when non-nil, is the continuous-observability plane:
	// the nodes record cluster events (failover, brownout, peer state,
	// shed bursts, directory purges) into its flight recorder, and its
	// sampler turns the Metrics registry into time series. Nil (the
	// default) disables every hook at the cost of one pointer test.
	Telemetry *telemetry.Plane
	// Health tunes failure detection and failover; the zero value
	// selects the defaults.
	Health HealthConfig
	// Overload tunes admission control, deadline propagation, and
	// slow-peer brownout, which every node runs; the zero value selects
	// the defaults.
	Overload OverloadConfig
	// Replication tunes hot-object replication: popularity- and
	// load-triggered replica pushes, power-of-two-choices routing among
	// the replicas, and de-replication on decay. The zero value
	// (Enabled false) keeps single-cacher routing and costs one branch
	// on the serve path.
	Replication core.ReplicationConfig
	// Mesh places this process as ONE node of a multi-process cluster
	// (StartNode): peers live in other OS processes at Mesh.PeerAddrs
	// and membership is negotiated with the join/leave handshake. Start,
	// which runs all N nodes in-process, ignores it and places each node
	// on loopback itself.
	Mesh *MeshConfig
}

// MaxNodes is the largest cluster the real server supports. It is
// smaller than cache.MaxNodes (which the simulator uses to sweep to 256
// nodes) because the peer table publishes liveness as a single
// atomic 64-bit mask.
const MaxNodes = 64

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Nodes <= 0 || cfg.Nodes > MaxNodes {
		return cfg, fmt.Errorf("server: node count %d out of range 1..%d", cfg.Nodes, MaxNodes)
	}
	if cfg.Trace == nil || len(cfg.Trace.Files) == 0 {
		return cfg, fmt.Errorf("server: config needs a trace with files")
	}
	if cfg.Version.Name == "" {
		cfg.Version = netmodel.Versions()[0]
	}
	if cfg.Transport == TransportTCP {
		v0 := netmodel.Versions()[0]
		v0.Name = cfg.Version.Name
		cfg.Version = v0
	}
	if cfg.Policy == (core.PolicyConfig{}) {
		cfg.Policy = core.DefaultPolicy()
	}
	if cfg.Replication.Enabled {
		cfg.Replication = cfg.Replication.WithDefaults()
		// Replication makes multi-member cacher sets the norm; two
		// random choices spread them where deterministic least-loaded
		// herds every initial node onto one replica between load updates.
		cfg.Policy.PowerOfTwoChoices = true
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.CacheBytes < 0 {
		return cfg, fmt.Errorf("server: negative cache size")
	}
	if cfg.DiskDelay == 0 {
		cfg.DiskDelay = 2 * time.Millisecond
	}
	var err error
	if cfg.Health, err = cfg.Health.withDefaults(); err != nil {
		return cfg, err
	}
	if cfg.Overload, err = cfg.Overload.withDefaults(cfg.Health.FailoverTimeout); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Cluster is a running PRESS cluster serving HTTP on loopback: N
// ProcNodes in one process, on VIA sharing one fabric.
type Cluster struct {
	cfg       Config
	procs     []*ProcNode
	fabric    *via.Fabric // nil on TCP
	closeOnce sync.Once
}

// Start builds and launches the cluster: transports meshed, nodes
// running, HTTP listeners accepting. It is N StartNodes plus what one
// process changes: Start picks the loopback addresses (every
// intra-cluster listener is bound before the first dial), seats VIA
// nodes on one fabric instead of bridging N over TCP, gives every node
// the process's one Store, and returns only when every pair is
// connected.
func Start(c Config) (*Cluster, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	cl := &Cluster{cfg: cfg}
	if err := cl.start(); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

func (cl *Cluster) start() error {
	addrs := make([]string, cl.cfg.Nodes)
	store := NewStore(cl.cfg.Trace, cl.cfg.DiskDelay)
	for i := range addrs {
		pn := &ProcNode{cfg: cl.cfg, store: store}
		pn.cfg.Mesh = &MeshConfig{Self: i, PeerAddrs: addrs}
		cl.procs = append(cl.procs, pn)
		if cl.cfg.Transport == TransportTCP {
			var err error
			if pn.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				return fmt.Errorf("server: intra-cluster listener: %w", err)
			}
			addrs[i] = pn.ln.Addr().String()
		}
	}
	if cl.cfg.Transport == TransportVIA {
		cl.fabric = newFabric(cl.cfg)
	}
	return bringUp(cl.procs, cl.fabric)
}

// nodeHandler is the HTTP front end: it hands GET requests to the main
// loop and writes back the file content.
type nodeHandler struct {
	node *Node
}

// clientTimeout bounds how long a request may wait on the cluster.
const clientTimeout = 30 * time.Second

// metricsPath serves the node's account and state in the Prometheus
// text exposition format for operators, scrapers, press-top and tests;
// it bypasses the main loop.
const metricsPath = "/_press/metrics"

var octetStream = []string{"application/octet-stream"} // shared: net/http only copies header values

// ServeHTTP's one budgeted site (DESIGN.md "The request path's budget")
// is the "/"+name of a path without its slash; operator endpoints, error
// replies and the Content-Length fallback are gated out.
//
//presslint:hotpath budget=1
func (h *nodeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Path == metricsPath {
		h.serveMetrics(w)
		return
	}
	name := r.URL.Path
	if !strings.HasPrefix(name, "/") {
		name = "/" + name
	}
	req := clientRequests.Get().(*clientRequest)
	req.node, req.name = h.node, name
	req.span = h.node.trc.StartTrace("request")
	req.span.AnnotateStr("file", name)
	req.accept = req.span.StartChild("accept-queue")
	now := time.Now()
	req.enqueued = now
	req.deadline = now.Add(h.node.ov.cfg.RequestTimeout)
	select {
	case h.node.httpCh <- req:
	default:
		// Admission: a full accept queue sheds the newest arrival with a
		// prompt 503 instead of queueing it. The request is the GC's.
		req.accept.Cancel()
		req.span.AnnotateStr("shed", shedQueueAccept+"/"+shedReasonFull)
		req.span.End()
		h.node.ov.im.shedInc(shedQueueAccept, shedReasonFull)
		h.reject(w, "request shed: accept queue full")
		return
	}
	defer func() { // the load the main loop counts in at dequeue drops
		select {
		case h.node.doneCh <- struct{}{}:
		case <-h.node.stop:
		}
	}()
	// The safety net for a request the cluster never answers; release
	// stops it, for an armed timer stays live its whole 30 s.
	req.timer.Reset(clientTimeout)
	select {
	case res := <-req.resp:
		h.reply(w, r, req, res)
		req.release()
	case <-req.timer.C:
		req.span.AnnotateStr("error", "timeout")
		req.span.End()
		http.Error(w, "cluster timeout", http.StatusGatewayTimeout)
	}
}

// reply writes the main loop's answer and ends the request's root span.
func (h *nodeHandler) reply(w http.ResponseWriter, r *http.Request, req *clientRequest, res clientResult) {
	//presslint:alloc-gated error reply: every Error() and http.Error formats; the 200 path is below
	if res.err != nil {
		req.span.AnnotateStr("error", res.err.Error())
		req.span.End()
		// A name outside the file population is the client's 404; a
		// shed or expired request is back-pressure (503 + Retry-After);
		// anything else — a crashed service node, an exhausted
		// failover — is the cluster failing and must look like it
		// (5xx) so availability tooling classifies it as such.
		if errors.Is(res.err, ErrShed) || errors.Is(res.err, ErrDeadlineExpired) {
			h.reject(w, res.err.Error())
			return
		}
		code := http.StatusBadGateway
		if errors.Is(res.err, ErrNoSuchFile) {
			code = http.StatusNotFound
		}
		http.Error(w, res.err.Error(), code)
		return
	}
	//presslint:alloc-gated a late answer is refused: an error reply
	if time.Now().After(req.deadline) {
		// The answer exists but arrived too late to be goodput:
		// serving it would reward the queue, not the client.
		req.span.AnnotateStr("deadline-expired", dlStageReply)
		req.span.End()
		h.node.ov.im.expiredInc(dlStageReply)
		h.reject(w, ErrDeadlineExpired.Error())
		return
	}
	// Booked before the body goes out, so a client that has its answer
	// never finds it missing from the count.
	h.node.ov.im.goodput.Inc()
	rep := req.span.StartChild("reply")
	//presslint:alloc-gated never taken while served bytes are the stored size; BenchmarkLocalHit1K would show it
	if res.clen == nil {
		res.clen = []string{strconv.Itoa(len(res.data))}
	}
	w.Header()["Content-Length"] = res.clen
	w.Header()["Content-Type"] = octetStream
	if r.Method != http.MethodHead {
		_, _ = w.Write(res.data)
	}
	// Write may not retain data (io.Writer), so a forwarded reply's
	// receive buffer goes back here, its one release. Every return
	// above leaves it to the GC.
	res.buf.release()
	rep.Annotate("bytes", int64(len(res.data)))
	rep.End()
	req.span.End()
}

// reject writes a 503 with the Retry-After hint: the client should back
// off, not hammer an overloaded cluster.
func (h *nodeHandler) reject(w http.ResponseWriter, msg string) {
	w.Header()["Retry-After"] = retryAfter
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// serveMetrics renders the node's account registry as Prometheus
// exposition text, with the state only the live node can say read from
// its accessors at scrape time: press_node_state{peer} (a NodeState),
// press_degraded, press_browned_out{peer}, a press_strategy{name} info
// gauge and, on TCP, the membership epochs and the stale-epoch drops.
// An epoch is a UnixNano, past a float64 sample's 53-bit mantissa, so
// press_epoch and press_peer_epoch{peer} carry it as an epoch label.
// In-process clusters with Config.Metrics share that one registry, so
// every node's endpoint then serves the full cluster's families with
// node=N labels telling the series apart.
//
//presslint:alloc-gated operator endpoint, not the request path
func (h *nodeHandler) serveMetrics(w http.ResponseWriter) {
	n := h.node
	s := n.account.Snapshot()
	node := "node=" + strconv.Itoa(n.id)
	gauge := func(v int64, family string, labels ...string) {
		s.Gauges[metrics.Key(family, append(labels, node)...)] = v
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	et, epochs := n.transport.(epochTransport)
	gauge(1, "press_strategy", "name="+n.cfg.Dissemination.String())
	gauge(flag(n.Degraded()), "press_degraded")
	for p := 0; p < n.cfg.Nodes; p++ {
		peer := "peer=" + strconv.Itoa(p)
		gauge(int64(n.PeerState(p)), "press_node_state", peer)
		gauge(flag(n.PeerBrownedOut(p)), "press_browned_out", peer)
		if epochs {
			gauge(1, "press_peer_epoch", peer, "epoch="+strconv.FormatUint(et.PeerEpoch(p), 10))
		}
	}
	if epochs {
		gauge(1, "press_epoch", "epoch="+strconv.FormatUint(et.SelfEpoch(), 10))
		s.Counters[metrics.Key("press_stale_epoch_drops_total", node)] = et.StaleEpochDrops()
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	_ = telemetry.WriteProm(w, s)
}

// Addrs returns the nodes' HTTP addresses (host:port).
func (cl *Cluster) Addrs() []string {
	out := make([]string, len(cl.procs))
	for i, pn := range cl.procs {
		out[i] = pn.addr
	}
	return out
}

// URL returns node i's base URL.
func (cl *Cluster) URL(i int) string { return cl.procs[i].URL() }

// Nodes returns the cluster's nodes for inspection.
func (cl *Cluster) Nodes() []*Node {
	out := make([]*Node, len(cl.procs))
	for i, pn := range cl.procs {
		out[i] = pn.node
	}
	return out
}

// Stats aggregates node and message statistics.
type Stats struct {
	Nodes NodeStats
	Msgs  core.MsgStats
	// CopiedBytes is the transports' staging/receive copy volume; see
	// TransportMetrics.CopiedBytes.
	CopiedBytes int64
	// CreditStalls is the cluster-wide count of sends that blocked on
	// window-based flow control; see TransportMetrics.CreditStalls.
	CreditStalls int64
}

// Stats sums counters across the cluster.
func (cl *Cluster) Stats() Stats {
	var s Stats
	for _, pn := range cl.procs {
		s.Nodes.add(pn.node.Stats())
		tm := pn.node.transport.Metrics()
		s.Msgs.Merge(&tm.Msgs)
		s.CopiedBytes += tm.CopiedBytes
		s.CreditStalls += tm.CreditStalls
	}
	return s
}

// Close shuts the cluster down. It is also the unwind of a failed
// Start, so it copes with nodes at any stage of the bring-up.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		// Drain every HTTP server before stopping any node: a request in
		// flight on one node may be waiting on another node's backend.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for _, pn := range cl.procs {
			if pn.httpSrv != nil {
				_ = pn.httpSrv.Shutdown(ctx)
			}
		}
		for _, pn := range cl.procs {
			pn.Close()
		}
		if cl.fabric != nil {
			cl.fabric.Close()
		}
	})
}

// Fetch is a convenience for tests and examples: GET one file from one
// node and return the body.
func Fetch(baseURL, name string) ([]byte, error) {
	resp, err := http.Get(baseURL + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: GET %s%s: %s", baseURL, name, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
