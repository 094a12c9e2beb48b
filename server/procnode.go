package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"press/metrics"
	"press/via"
)

// One node, brought up one way. ProcNode is the unit of deployment:
// StartNode runs its bring-up once, for the paper's one-process-per-node
// model, and Start (cluster.go) runs the same bring-up N times inside
// one process for tests, experiments and benchmarks. Either way the
// node joins its peers with the membership handshake and can leave
// cleanly or crash and rejoin under a new epoch.

// MeshConfig places one process inside a multi-process cluster.
type MeshConfig struct {
	// Self is this process's node index in [0, Config.Nodes).
	Self int
	// PeerAddrs are the intra-cluster TCP listen addresses, indexed by
	// node; PeerAddrs[Self] is the address this process binds. On
	// TransportVIA the fabric bridge listens there: the software VIA
	// keeps its descriptor/credit/RMW semantics between processes, each
	// VI channel framed over its own TCP connection.
	PeerAddrs []string
	// HTTPAddr is the client-facing HTTP bind address; empty means an
	// ephemeral loopback port.
	HTTPAddr string
	// Epoch is the membership epoch of this process life; 0 derives one
	// from the wall clock. A restart must use a larger epoch than the
	// previous life so peers can tell the two apart.
	Epoch uint64
}

// ProcNode is one running node of a cluster.
type ProcNode struct {
	cfg   Config // cfg.Mesh places this node
	store *Store // the process's one Store: Start's nodes share it

	// Filled in bring-up order. Close releases whichever exist, so a
	// bring-up that fails half-way unwinds like a running node.
	ln        net.Listener   // intra-cluster listener (TCP)
	fabric    *via.Fabric    // only when this node owns it (StartNode on VIA)
	bridge    *via.UDPBridge // likewise
	nic       *via.NIC
	account   *metrics.Registry // see Node.account
	transport Transport
	node      *Node
	httpSrv   *http.Server
	addr      string

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// StartNode launches this process's node of a multi-process cluster:
// intra-cluster listener bound, membership dialers running, HTTP
// accepting. It returns as soon as the local node is up — peers may
// not exist yet (late join is the normal case) and connections
// complete in the background as they appear.
func StartNode(c Config) (*ProcNode, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	mesh := cfg.Mesh
	if mesh == nil {
		return nil, fmt.Errorf("server: StartNode needs Config.Mesh")
	}
	if mesh.Self < 0 || mesh.Self >= cfg.Nodes {
		return nil, fmt.Errorf("server: mesh self %d out of range 0..%d", mesh.Self, cfg.Nodes-1)
	}
	if len(mesh.PeerAddrs) != cfg.Nodes {
		return nil, fmt.Errorf("server: %d peer addresses for %d nodes", len(mesh.PeerAddrs), cfg.Nodes)
	}
	pn := &ProcNode{cfg: cfg, store: NewStore(cfg.Trace, cfg.DiskDelay)}
	if cfg.Transport == TransportTCP {
		if pn.ln, err = net.Listen("tcp", mesh.PeerAddrs[mesh.Self]); err != nil {
			return nil, fmt.Errorf("server: intra-cluster listener: %w", err)
		}
	}
	if err := bringUp([]*ProcNode{pn}, nil); err != nil {
		pn.Close()
		return nil, err
	}
	return pn, nil
}

// bringUp is the one way a node comes to serve: transport built, mesh
// connected, node started, HTTP accepting. StartNode passes its one
// node, Start all N; placement (cfg.Mesh) and the intra-cluster
// listener are already set, and a failure is unwound by the caller's
// Close.
//
// Build and connect are separate passes because of VIA: a vi.Connect to
// an address nobody listens on yet fails rather than retries, so on a
// shared fabric every NIC and listener must exist before the first
// connect. TCP's dialers retry, but ride the same sequence.
func bringUp(procs []*ProcNode, shared *via.Fabric) error {
	for _, pn := range procs {
		if err := pn.build(shared); err != nil {
			return err
		}
	}
	// With the whole cluster in this call every peer is certain to
	// exist, so connect may wait for them; a lone process must not.
	awaitPeers := len(procs) == procs[0].cfg.Nodes
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i, pn := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = pn.connect(awaitPeers)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, pn := range procs {
		if err := pn.serve(); err != nil {
			return err
		}
	}
	return nil
}

// newFabric makes the VIA fabric a cluster's NICs sit on.
func newFabric(cfg Config) *via.Fabric {
	return via.NewFabric(via.WithMetrics(cfg.Metrics))
}

// fabricAddr is node i's NIC address on the fabric.
func fabricAddr(i int) string { return fmt.Sprintf("node%d", i) }

// build constructs the node's transport end-point. shared is the fabric
// every node of an in-process Cluster sits on; nil means this node is
// alone in its process, so on VIA it makes its own fabric and bridges
// it to the peers'.
func (pn *ProcNode) build(shared *via.Fabric) error {
	cfg, mesh := pn.cfg, pn.cfg.Mesh
	if pn.account = cfg.Metrics; pn.account == nil {
		pn.account = metrics.NewRegistry()
	}
	names := make(nameTable, len(cfg.Trace.Files))
	for _, f := range cfg.Trace.Files {
		names[f.Name] = f.Name
	}
	switch cfg.Transport {
	case TransportTCP:
		info := JoinInfo{
			Node:      mesh.Self,
			Nodes:     cfg.Nodes,
			Epoch:     mesh.Epoch,
			Strategy:  cfg.Dissemination.String(),
			Transport: "tcp",
		}
		pn.transport = newMeshTCPTransport(pn.ln, info, mesh.PeerAddrs, names, pn.account, cfg.Tracer.Collector(mesh.Self))
	case TransportVIA:
		fabric := shared
		if fabric == nil {
			pn.fabric = newFabric(cfg)
			fabric = pn.fabric
		}
		var err error
		if pn.nic, err = fabric.CreateNIC(fabricAddr(mesh.Self)); err != nil {
			return err
		}
		if shared == nil {
			if pn.bridge, err = via.NewUDPBridge(fabric, mesh.PeerAddrs[mesh.Self]); err != nil {
				return err
			}
			for j := 0; j < cfg.Nodes; j++ {
				if j == mesh.Self {
					continue
				}
				// The remote node's transport listens on "press-<j>"; dials to
				// its proxy relay there.
				if err := pn.bridge.Proxy(fabricAddr(j), mesh.PeerAddrs[j], fmt.Sprintf("press-%d", j)); err != nil {
					return err
				}
			}
		}
		// The file ring is twice the large-file cutoff, so every file a
		// node forwards fits (1 MiB at the default policy).
		vt, err := newViaTransport(pn.nic, viaConfig{
			self: mesh.Self, nodes: cfg.Nodes, version: cfg.Version,
			window: viaWindow, batch: viaBatch, chunk: viaChunkBytes,
			fileRing: 2 * int(cfg.Policy.LargeFileBytes), account: pn.account, metrics: cfg.Metrics,
			trc: cfg.Tracer.Collector(mesh.Self), names: names,
		})
		if err != nil {
			return err
		}
		pn.transport = vt
	default:
		return fmt.Errorf("server: unknown transport %d", cfg.Transport)
	}
	return nil
}

// connect completes the node's side of the mesh: TCP has been dialing
// since build, VIA starts dialing here. With awaitPeers it returns once
// the channels are up; without, peers join as they appear.
func (pn *ProcNode) connect(awaitPeers bool) error {
	switch t := pn.transport.(type) {
	case *viaTransport:
		if err := t.connect(awaitPeers); err != nil {
			return fmt.Errorf("server: node %d mesh: %w", pn.cfg.Mesh.Self, err)
		}
	case *tcpTransport:
		if awaitPeers {
			return t.awaitSeated()
		}
	}
	return nil
}

// serve starts the node on its transport and opens the HTTP front end.
func (pn *ProcNode) serve() error {
	mesh := pn.cfg.Mesh
	pn.node = newNode(mesh.Self, pn.cfg, pn.account, pn.store, pn.transport, pn.nic)
	pn.node.start()

	httpAddr := mesh.HTTPAddr
	if httpAddr == "" {
		httpAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return err
	}
	pn.addr = ln.Addr().String()
	// ReadHeaderTimeout reaps connections that never send a request
	// (client transports open dial-race losers that sit in StateNew
	// forever); without it Shutdown waits up to 5s for each one, which
	// can eat the whole drain budget.
	pn.httpSrv = &http.Server{
		Handler:           &nodeHandler{node: pn.node},
		ReadHeaderTimeout: 2 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	pn.wg.Add(1)
	go func() {
		defer pn.wg.Done()
		_ = pn.httpSrv.Serve(ln)
	}()
	return nil
}

// HTTPAddr returns the node's client-facing address (host:port).
func (pn *ProcNode) HTTPAddr() string { return pn.addr }

// URL returns the node's base URL.
func (pn *ProcNode) URL() string { return "http://" + pn.addr }

// Node exposes the running node for in-process callers (tests).
func (pn *ProcNode) Node() *Node { return pn.node }

// Epoch returns the membership epoch this process life runs under
// (0 on transports without the membership plane).
func (pn *ProcNode) Epoch() uint64 {
	if et, ok := pn.node.transport.(epochTransport); ok {
		return et.SelfEpoch()
	}
	return 0
}

// Drain performs a graceful shutdown within the deadline: announce the
// departure so peers route around this node immediately, stop
// accepting clients and wait for in-flight requests, then tear the
// node down. A drained node causes zero client errors.
func (pn *ProcNode) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	announce := timeout / 4
	if announce > time.Second {
		announce = time.Second
	}
	pn.node.AnnounceLeave(announce)
	var err error
	pn.closeOnce.Do(func() {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		err = pn.httpSrv.Shutdown(ctx)
		pn.shutdownBackend()
		pn.wg.Wait()
	})
	return err
}

// Close hard-stops the node: in-flight clients are cut. It is also the
// unwind of a failed bring-up, so every layer is optional.
func (pn *ProcNode) Close() {
	pn.closeOnce.Do(func() {
		if pn.httpSrv != nil {
			pn.httpSrv.Close()
		}
		pn.shutdownBackend()
		pn.wg.Wait()
	})
}

// shutdownBackend releases everything below the HTTP server. Each layer
// closes what it took ownership of and every Close here is idempotent,
// so closing all that exist is right at any stage of the bring-up.
func (pn *ProcNode) shutdownBackend() {
	if pn.node != nil {
		pn.node.shutdown()
	}
	if pn.transport != nil {
		pn.transport.Close()
	}
	if pn.ln != nil {
		pn.ln.Close()
	}
	if pn.bridge != nil {
		pn.bridge.Close()
	}
	if pn.fabric != nil {
		pn.fabric.Close()
	}
}
