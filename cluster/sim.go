package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"press/cache"
	"press/core"
	"press/eventsim"
	"press/metrics"
	"press/netmodel"
	"press/stats"
	"press/tracing"
)

// CPU busy-time classes for the Figure 1 breakdown.
const (
	classComm    = 0 // intra-cluster communication
	classService = 1 // external communication + request service
)

type node struct {
	id     int
	cpu    *eventsim.Resource
	disk   *eventsim.Resource
	intTX  *eventsim.Resource
	intRX  *eventsim.Resource
	extTX  *eventsim.Resource
	extRX  *eventsim.Resource
	cache  *cache.LRU
	policy *core.Policy
	load   core.LoadTracker
	// peerLoad is this node's (possibly stale) view of peer loads,
	// updated by load broadcasts or piggy-backed values.
	peerLoad []int
	// repl is the node's hot-object replication policy, nil when off;
	// the simulator only costs and schedules what it decides.
	repl *core.Replicator
	// dir is the node's half of the sharded directory, nil under the
	// replicated one: every directory read and change of this node goes
	// through it, and the simulator only costs and schedules its messages.
	dir *core.ShardDir
}

type simState struct {
	cfg eventsimConfig
	sim *eventsim.Sim
	rng *rand.Rand

	nodes []*node
	// dir is the replicated directory, one instantaneous global copy (the
	// paper's figures are calibrated on it); nil under directory sharding,
	// where each node's ShardDir holds what that node knows.
	dir *cache.Directory
	fc  *core.FlowControl

	// Hot-object replication activity in the measured window.
	replicaPushes int64
	replicaDrops  int64

	// measurement
	measuring     bool
	completed     int64
	measStart     eventsim.Time
	measEnd       eventsim.Time
	measCompleted int64
	msgs          core.MsgStats
	reasons       [core.NumReasons]int64
	localHits     int64
	remoteHits    int64
	diskReads     int64
	forwarded     int64
	copiedBytes   int64
	rmwCount      int64
	baseline      []snapshot
	latency       stats.Welford
	latencyMax    float64
	latHist       *metrics.Histogram // completion latency, log buckets

	ins []simNodeInstruments // indexed by node; nil instruments when off
	trc []*tracing.Collector // indexed by node; all nil when tracing off

	cursor int // next trace request to issue
}

// simNodeInstruments are one simulated node's registry instruments.
// With no registry every field is nil, and the nil-safe instrument
// methods make the recording sites no-ops.
type simNodeInstruments struct {
	msgCount [core.NumMsgTypes]*metrics.Counter
	msgBytes [core.NumMsgTypes]*metrics.Counter
	copied   *metrics.Counter
	rmw      *metrics.Counter
	latency  *metrics.Histogram
	cpuUtil  *metrics.FloatGauge
	diskUtil *metrics.FloatGauge
	nicUtil  *metrics.FloatGauge
}

func newSimNodeInstruments(r *metrics.Registry, id int) simNodeInstruments {
	if !r.Enabled() {
		return simNodeInstruments{}
	}
	node := fmt.Sprintf("node=%d", id)
	var ins simNodeInstruments
	for t := core.MsgType(0); t < core.NumMsgTypes; t++ {
		typ := "type=" + t.String()
		ins.msgCount[t] = r.Counter("sim_msgs_total", node, typ)
		ins.msgBytes[t] = r.Counter("sim_msg_bytes", node, typ)
	}
	ins.copied = r.Counter("sim_copied_bytes", node)
	ins.rmw = r.Counter("sim_rmw_total", node)
	ins.latency = r.Histogram("sim_request_latency_ns", node)
	ins.cpuUtil = r.FloatGauge("sim_cpu_util", node)
	ins.diskUtil = r.FloatGauge("sim_disk_util", node)
	ins.nicUtil = r.FloatGauge("sim_nic_util", node)
	return ins
}

// copyBytes records payload bytes copied at node nid beyond the
// transfer itself (staging at senders, buffer copies at receivers).
func (s *simState) copyBytes(nid int, n int64) {
	if !s.measuring || n <= 0 {
		return
	}
	s.copiedBytes += n
	s.ins[nid].copied.Add(n)
}

// rmwWrite records one remote memory write issued by node src.
func (s *simState) rmwWrite(src int) {
	if !s.measuring {
		return
	}
	s.rmwCount++
	s.ins[src].rmw.Inc()
}

// isRMW reports whether messages of the given style cross the wire as
// remote memory writes under the configured protocol.
func (s *simState) isRMW(style netmodel.Style) bool {
	return style == netmodel.StyleRMW && s.cfg.Combo.Protocol == netmodel.ProtoVIA
}

// eventsimConfig is Config after defaulting, kept under a distinct name
// so call sites read unambiguously.
type eventsimConfig = Config

// nodeView adapts simulator state to core.View for one node.
type nodeView struct {
	s  *simState
	id int
}

func (v nodeView) Cachers(id cache.FileID) cache.NodeSet {
	if d := v.s.nodes[v.id].dir; d != nil {
		return d.Cachers(id)
	}
	return v.s.dir.Cachers(id)
}

func (v nodeView) Load(n int) int {
	if n == v.id {
		return v.s.nodes[n].load.Load()
	}
	return v.s.nodes[v.id].peerLoad[n]
}

func (v nodeView) LoadKnown() bool {
	return v.s.cfg.Dissemination.LoadAware()
}

func (v nodeView) Nodes() int { return v.s.cfg.Nodes }

// lookupView pins the dispatched file's cacher set to the directory
// lookup's result, as the server's does: by the time a sharded lookup
// resolves, the node's live view may not cover the file at all.
type lookupView struct {
	nodeView
	file cache.FileID
	set  cache.NodeSet
}

func (v lookupView) Cachers(id cache.FileID) cache.NodeSet {
	if id == v.file {
		return v.set
	}
	return v.nodeView.Cachers(id)
}

// replView adapts one node to core.ReplicaView. The simulator models no
// failures and no brownout, so every peer is eligible.
type replView struct{ nodeView }

func (v replView) Cached() []cache.FileID     { return v.s.nodes[v.id].cache.Files() }
func (v replView) Eligible(int) bool          { return true }
func (v replView) Size(id cache.FileID) int64 { return v.s.cfg.Trace.Files[id].Size }

// newSimState builds the simulated cluster for a defaulted Config:
// nodes (each with its replication policy) and the directory, one
// global replica or a ShardDir per node.
// It schedules nothing; Run launches the workload on it.
func newSimState(cfg Config) *simState {
	s := &simState{
		cfg: cfg,
		sim: eventsim.New(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		fc:  core.NewFlowControl(max(cfg.Nodes, 2), cfg.FlowWindow, cfg.FlowBatch),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			id:       i,
			cpu:      s.sim.NewResource("cpu"),
			disk:     s.sim.NewResource("disk"),
			intTX:    s.sim.NewResource("int-tx"),
			intRX:    s.sim.NewResource("int-rx"),
			extTX:    s.sim.NewResource("ext-tx"),
			extRX:    s.sim.NewResource("ext-rx"),
			cache:    cache.NewLRU(cfg.CacheBytes),
			policy:   core.NewPolicy(cfg.Policy),
			load:     *core.NewLoadTracker(cfg.Dissemination),
			peerLoad: make([]int, cfg.Nodes),
		}
		if !cfg.ContentOblivious {
			n.repl = core.NewReplicator(cfg.Replication, i, cfg.Nodes, len(cfg.Trace.Files),
				cfg.Policy.LargeFileBytes, s.instant())
		}
		s.nodes = append(s.nodes, n)
		s.ins = append(s.ins, newSimNodeInstruments(cfg.Metrics, i))
		s.trc = append(s.trc, cfg.Tracing.Collector(i))
	}
	if cfg.Dissemination.Dir != core.DirSharded || cfg.ContentOblivious {
		s.dir = cache.NewDirectory(cfg.Nodes, len(cfg.Trace.Files))
		return s
	}
	ring := core.NewShardRing(cfg.Nodes, len(cfg.Trace.Files),
		func(id cache.FileID) string { return cfg.Trace.Files[id].Name })
	// The simulator models no failures: every node stays alive, and
	// nothing ever re-announces a cache (ShardEnv.Cached).
	var all cache.NodeSet
	for i := range s.nodes {
		all = all.Add(i)
	}
	for _, n := range s.nodes {
		src := n.id
		n.dir = core.NewShardDir(src, ring, core.ShardEnv{
			Emit:  func(m core.DirMsg) { s.dirSend(src, m) },
			Alive: func() cache.NodeSet { return all },
		})
	}
	return s
}

// Run simulates the configured experiment to completion and returns its
// measurements. Runs are deterministic for a given Config.
func Run(c Config) (*Result, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	s := newSimState(cfg)
	// Span timestamps must read simulated time, not the wall clock.
	cfg.Tracing.SetClock(s.sim.NowNanos)
	// Telemetry series likewise: the plane samples the registry every
	// plane interval of simulated time, stopping with the workload.
	if cfg.Telemetry.Enabled() {
		cfg.Telemetry.SetClock(s.sim.NowNanos)
		s.sim.Every(cfg.Telemetry.Interval(), func() bool {
			s.cfg.Telemetry.Poll(s.sim.NowNanos())
			return !s.workloadDrained()
		})
	}
	s.latHist = metrics.NewHistogram()
	if !cfg.NoPrewarm {
		s.prewarm()
	}
	if cfg.WarmupRequests == 0 {
		s.beginMeasurement()
	}

	// Launch the closed-loop clients.
	clients := cfg.Concurrency
	if clients > len(cfg.Trace.Requests) {
		clients = len(cfg.Trace.Requests)
	}
	for i := 0; i < clients; i++ {
		s.issueNext()
	}
	if s.nodes[0].repl != nil {
		s.sim.Every(cfg.Replication.Interval, func() bool {
			if s.workloadDrained() {
				return false
			}
			s.replScan()
			return true
		})
	}
	s.sim.Run()
	if cfg.Telemetry.Enabled() {
		// One final sample so the series cover the workload's tail even
		// when the run ends mid-interval.
		cfg.Telemetry.Poll(s.sim.NowNanos())
	}

	return s.result(), nil
}

func (s *simState) beginMeasurement() {
	s.measuring = true
	s.measStart = s.sim.Now()
	s.measCompleted = 0
	s.msgs = core.MsgStats{}
	s.reasons = [core.NumReasons]int64{}
	s.localHits, s.remoteHits, s.diskReads, s.forwarded = 0, 0, 0, 0
	s.copiedBytes, s.rmwCount = 0, 0
	s.replicaPushes, s.replicaDrops = 0, 0
	s.latency = stats.Welford{}
	s.latencyMax = 0
	s.latHist = metrics.NewHistogram()
	s.baseline = s.baseline[:0]
	for _, n := range s.nodes {
		// Busy-time baselines: snapshot now, subtract at the end.
		s.baseline = append(s.baseline, busySnapshot(n))
	}
}

// prewarm pre-populates the node caches — the steady state the paper's
// 5-minute warmup reaches. The popular head is replicated at every node
// up to ReplicationFraction of its capacity (R in the analytical
// model); the remaining files get one copy each, round-robin, in
// popularity order, so that when the working set exceeds the aggregate
// cache the popular head is resident. Prewarmed files are marked
// already-seen so the first-request rule does not fire for them.
func (s *simState) prewarm() {
	order := s.cfg.Trace.PopularityOrder()
	n := s.cfg.Nodes
	if s.cfg.ContentOblivious {
		// Every node sees a uniform sample of the same Zipf stream, so
		// in steady state every cache independently converges on the
		// same popular head: fill each cache with it.
		for _, fi := range order {
			id := cache.FileID(fi)
			size := s.cfg.Trace.Files[fi].Size
			full := true
			for _, node := range s.nodes {
				if node.cache.Used()+size > node.cache.Capacity() {
					continue
				}
				node.cache.Insert(id, size)
				full = false
			}
			s.dir.FirstRequest(id)
			if full {
				break
			}
		}
		return
	}
	replicaBytes := int64(s.cfg.ReplicationFraction * float64(s.cfg.CacheBytes))
	replicated := 0
	var used int64
	for _, fi := range order {
		size := s.cfg.Trace.Files[fi].Size
		if used+size > replicaBytes {
			break
		}
		used += size
		replicated++
		id := cache.FileID(fi)
		for _, node := range s.nodes {
			if _, ok := node.cache.Insert(id, size); ok {
				s.seedCached(node.id, id)
			}
		}
	}
	for i, fi := range order[replicated:] {
		id := cache.FileID(fi)
		size := s.cfg.Trace.Files[fi].Size
		for try := 0; try < n; try++ {
			node := s.nodes[(i+try)%n]
			if node.cache.Used()+size > node.cache.Capacity() {
				continue
			}
			if _, ok := node.cache.Insert(id, size); ok {
				s.seedCached(node.id, id)
			}
			break
		}
	}
}

// seedCached records a prewarmed copy in the directory, already seen,
// at no cost: in the global replica, or in the shard of the file's
// owner.
func (s *simState) seedCached(nid int, id cache.FileID) {
	if d := s.nodes[nid].dir; d != nil {
		s.nodes[d.Owner(id)].dir.Seed(id, nid)
		return
	}
	s.dir.SetCached(id, nid, true)
	s.dir.MarkSeen(id)
}

// issueNext starts the next trace request on a random node, if any
// remain.
func (s *simState) issueNext() {
	if s.cursor >= len(s.cfg.Trace.Requests) {
		return
	}
	fileID := s.cfg.Trace.Requests[s.cursor]
	s.cursor++
	initial := s.rng.Intn(s.cfg.Nodes)
	s.startRequest(initial, fileID)
}

func (s *simState) startRequest(initial int, fileID cache.FileID) {
	n := s.nodes[initial]
	h := s.cfg.Host
	t0 := s.sim.Now()
	// Root trace span; children mirror the real server's phase names so
	// press-trace summarizes simulated and live dumps identically.
	root := s.trc[initial].StartTrace("request")
	root.Annotate("file", int64(fileID))
	acc := root.StartChild("accept-queue")
	// Client request crosses the external interface, then the CPU reads
	// and parses it.
	rxTime := h.ExtNICFixed + netmodel.DurationOver(h.RequestWireBytes, h.ExtWireRate)
	n.extRX.Acquire(0, rxTime, func() {
		acc.End()
		s.loadChange(initial, +1)
		dsp := root.StartChild("dispatch")
		n.cpu.Acquire(classService, h.ParseCPU, func() {
			s.distribute(initial, fileID, t0, root, dsp)
		})
	})
}

func (s *simState) distribute(initial int, fileID cache.FileID, t0 eventsim.Time,
	root, dsp *tracing.Span) {
	size := s.cfg.Trace.Files[fileID].Size
	if s.cfg.ContentOblivious {
		// Content-oblivious baseline: no distribution decision at all.
		dsp.End()
		s.serviceLocal(initial, fileID, size, t0, root)
		return
	}
	if d := s.nodes[initial].dir; d != nil {
		// Free when the initial node owns the entry or holds a read copy,
		// one lookup/reply round trip with the owner otherwise.
		d.Lookup(fileID, s.instant(), func(cachers cache.NodeSet, first bool) {
			s.decide(initial, fileID, size, cachers, first, t0, root, dsp)
		})
		return
	}
	s.decide(initial, fileID, size, s.dir.Cachers(fileID), s.dir.FirstRequest(fileID), t0, root, dsp)
}

// decide runs the distribution decision once directory information is at
// hand — immediately under a replicated directory, after the owner's
// reply under a sharded one — then routes the request.
func (s *simState) decide(initial int, fileID cache.FileID, size int64, cachers cache.NodeSet,
	first bool, t0 eventsim.Time, root, dsp *tracing.Span) {
	n := s.nodes[initial]
	d := n.policy.Decide(initial, fileID, size, first,
		lookupView{nodeView: nodeView{s: s, id: initial}, file: fileID, set: cachers})
	if s.measuring {
		s.reasons[d.Reason]++
	}
	dsp.Annotate("service", int64(d.Service))
	dsp.End()
	if d.Service == initial {
		s.serviceLocal(initial, fileID, size, t0, root)
		return
	}
	if s.measuring {
		s.forwarded++
	}
	s.forward(initial, d.Service, fileID, size, t0, root)
}

// serviceLocal satisfies the request at the initial node: from its cache
// if present, else from disk (caching the file afterwards).
func (s *simState) serviceLocal(nid int, fileID cache.FileID, size int64, t0 eventsim.Time,
	root *tracing.Span) {
	n := s.nodes[nid]
	n.repl.NoteServe(fileID)
	if n.cache.Touch(fileID) {
		if s.measuring {
			s.localHits++
		}
		s.replyToClient(nid, size, t0, root)
		return
	}
	dsk := root.StartChild("disk")
	s.readFromDisk(nid, fileID, size, func() {
		dsk.End()
		s.replyToClient(nid, size, t0, root)
	})
}

// forward sends the request to the service node, which returns the file
// over the internal network; the initial node then replies to the
// client. The forward span covers the round trip; the service node's
// work records under a serve-remote span parented to it — the
// cross-node edge trace stitching hinges on.
func (s *simState) forward(initial, svc int, fileID cache.FileID, size int64, t0 eventsim.Time,
	root *tracing.Span) {
	fwdSpan := root.StartChild("forward")
	fwdSpan.Annotate("dst", int64(svc))
	fwd := s.cfg.Combo.Cost(s.cfg.Version.Forward, core.ForwardMsgBytes, true, true)
	if s.isRMW(s.cfg.Version.Forward) {
		s.rmwWrite(initial)
	}
	s.sendMsg(initial, svc, core.MsgForward, core.ForwardMsgBytes, fwd.SendCPU, fwd.RecvCPU, func() {
		srv := s.trc[svc].StartSpan("serve-remote", fwdSpan.Trace(), fwdSpan.ID())
		n := s.nodes[svc]
		n.repl.NoteServe(fileID)
		if n.cache.Touch(fileID) {
			if s.measuring {
				s.remoteHits++
			}
			s.sendFile(svc, initial, size, t0, root, fwdSpan)
			srv.End()
			return
		}
		dsk := srv.StartChild("disk")
		s.readFromDisk(svc, fileID, size, func() {
			dsk.End()
			s.sendFile(svc, initial, size, t0, root, fwdSpan)
			srv.End()
		})
	})
}

// readFromDisk models a disk read followed by inserting the file into
// the node's cache, broadcasting the resulting caching-information
// changes.
func (s *simState) readFromDisk(nid int, fileID cache.FileID, size int64, done func()) {
	n := s.nodes[nid]
	if s.measuring {
		s.diskReads++
	}
	h := s.cfg.Host
	demand := h.DiskFixed + netmodel.DurationOver(size, h.DiskRate)
	n.disk.Acquire(0, demand, func() {
		s.cacheInsert(nid, fileID, size)
		done()
	})
}

// cacheInsert puts the file in node nid's cache and disseminates the
// caching-information changes, evictions first; it reports whether the
// file fit.
func (s *simState) cacheInsert(nid int, fileID cache.FileID, size int64) bool {
	n := s.nodes[nid]
	evicted, inserted := n.cache.Insert(fileID, size)
	for _, ev := range evicted {
		n.repl.Evicted(ev)
		s.cachingChange(nid, ev, false)
	}
	if inserted {
		s.cachingChange(nid, fileID, true)
	}
	return inserted
}

// cachingChange applies one caching-information change to the directory
// and models its dissemination: an N-1 broadcast under the replicated
// directory; under the sharded one whatever the node's ShardDir sends (a
// directed update to the entry's owner, invalidations to its readers).
func (s *simState) cachingChange(nid int, fileID cache.FileID, cached bool) {
	if d := s.nodes[nid].dir; d != nil {
		d.LocalCached(fileID, cached)
		return
	}
	s.dir.SetCached(fileID, nid, cached)
	if s.cfg.ContentOblivious {
		// No one consults the directory; no messages flow.
		return
	}
	s.broadcastCaching(nid)
}

// dirWireBytes is the modelled wire size of each sharded-directory
// message.
var dirWireBytes = [core.NumMsgTypes]int64{
	core.MsgCaching:   core.CachingMsgBytes,
	core.MsgDirLookup: core.DirLookupBytes,
	core.MsgDirReply:  core.DirReplyBytes,
	core.MsgDirInval:  core.DirInvalBytes,
}

// dirSend models one message of node src's ShardDir — all of them ride
// the caching path — and hands it to the destination's machine on
// arrival.
func (s *simState) dirSend(src int, m core.DirMsg) {
	style := s.cfg.Version.Caching
	c := s.cfg.Combo.Cost(style, dirWireBytes[m.Type], true, true)
	if s.isRMW(style) {
		s.rmwWrite(src)
	}
	s.sendMsg(src, m.To, m.Type, dirWireBytes[m.Type], c.SendCPU, c.RecvCPU, func() {
		s.nodes[m.To].dir.Handle(src, m)
	})
}

// broadcastCaching sends one caching-information message to every peer.
func (s *simState) broadcastCaching(from int) {
	c := s.cfg.Combo.Cost(s.cfg.Version.Caching, core.CachingMsgBytes, true, true)
	cachingRMW := s.isRMW(s.cfg.Version.Caching)
	for p := 0; p < s.cfg.Nodes; p++ {
		if p == from {
			continue
		}
		if cachingRMW {
			s.rmwWrite(from)
		}
		s.sendMsg(from, p, core.MsgCaching, core.CachingMsgBytes, c.SendCPU, c.RecvCPU, nil)
	}
}

// sendFile transfers file data from the service node back to the
// initial node: one or more segment messages, plus a metadata message
// under RMW (the two-messages-per-file cost the paper highlights for
// version 3). When the last message arrives, the initial node replies
// to the client.
func (s *simState) sendFile(svc, initial int, size int64, t0 eventsim.Time,
	root, fwdSpan *tracing.Span) {
	// The forward span ends when the file has fully arrived back at the
	// initial node, right before the reply to the client starts.
	s.transferFile(svc, initial, size, func() {
		fwdSpan.Annotate("bytes", size)
		fwdSpan.End()
		s.replyToClient(initial, size, t0, root)
	})
}

// transferFile models the file-data leg shared by request forwarding
// and replica pulls: segment messages from src to dst (plus the RMW
// metadata message where the version demands one), calling arrived at
// dst when the last byte is in.
func (s *simState) transferFile(src, dst int, size int64, arrived func()) {
	m := s.cfg.Combo
	v := s.cfg.Version
	seg := s.cfg.FileSegmentBytes
	remaining := size
	for remaining > 0 {
		payload := remaining
		if payload > seg {
			payload = seg
		}
		remaining -= payload
		last := remaining == 0
		var sendCPU, recvCPU time.Duration
		if v.File == netmodel.StyleRMW && m.Protocol == netmodel.ProtoVIA {
			// Pure remote memory write: no receiver CPU on data
			// segments; completion is discovered via the metadata
			// message below.
			sendCPU = m.SendFixed
			if !v.ZeroCopyTX {
				sendCPU += netmodel.DurationOver(payload, m.CopyRate)
				// Sender-side staging copy, eliminated by version 5.
				s.copyBytes(src, payload)
			}
			recvCPU = 0
			finishRecv := m.PollCost
			if !v.ZeroCopyRX {
				finishRecv += netmodel.DurationOver(size, m.CopyRate)
			}
			s.rmwWrite(src)
			if s.cfg.RMWSingleMessage {
				// Ablation: completion piggy-backs on the last data
				// write; no metadata message.
				var done func()
				if last {
					recvCPU = finishRecv
					if !v.ZeroCopyRX {
						// Receiver copies the file out of the data ring.
						s.copyBytes(dst, size)
					}
					done = arrived
				}
				s.sendMsg(src, dst, core.MsgFile, payload, sendCPU, recvCPU, done)
				continue
			}
			s.sendMsg(src, dst, core.MsgFile, payload, sendCPU, recvCPU, nil)
			if last {
				if !v.ZeroCopyRX {
					// Receiver copies the file out of the data ring.
					s.copyBytes(dst, size)
				}
				s.rmwWrite(src)
				s.sendMsg(src, dst, core.MsgFile, core.FileMetaBytes, m.SendFixed, finishRecv, arrived)
			}
			continue
		}
		// Regular messages: copies at both ends, interrupt + receive
		// thread at the receiver. The sender's staging copy is the one
		// the server-side accounting reports too.
		s.copyBytes(src, payload)
		c := m.Cost(netmodel.StyleRegular, payload, true, true)
		var done func()
		if last {
			done = arrived
		}
		s.sendMsg(src, dst, core.MsgFile, payload, c.SendCPU, c.RecvCPU, done)
	}
}

// replyToClient sends the file to the client through the kernel TCP
// stack and the external interface, then completes the request.
func (s *simState) replyToClient(nid int, size int64, t0 eventsim.Time, root *tracing.Span) {
	n := s.nodes[nid]
	h := s.cfg.Host
	rep := root.StartChild("reply")
	cpuTime := h.ClientSendFixed + netmodel.DurationOver(size, h.ClientSendRate)
	n.cpu.Acquire(classService, cpuTime, func() {
		wire := h.ExtNICFixed + netmodel.DurationOver(size+h.ReplyHeaderBytes, h.ExtWireRate)
		n.extTX.Acquire(0, wire, func() {
			rep.Annotate("bytes", size)
			rep.End()
			s.loadChange(nid, -1)
			s.finishRequest(nid, t0, root)
		})
	})
}

func (s *simState) finishRequest(nid int, t0 eventsim.Time, root *tracing.Span) {
	root.End()
	s.completed++
	if s.measuring {
		s.measCompleted++
		s.measEnd = s.sim.Now()
		d := (s.sim.Now() - t0).Seconds()
		s.latency.Add(d)
		if d > s.latencyMax {
			s.latencyMax = d
		}
		ns := int64(s.sim.Now() - t0)
		s.latHist.Observe(ns)
		s.ins[nid].latency.Observe(ns)
	} else if s.completed >= int64(s.cfg.WarmupRequests) {
		s.beginMeasurement()
	}
	s.issueNext()
}

// loadChange adjusts a node's open-connection count, broadcasting the
// new load if the dissemination strategy demands it.
func (s *simState) loadChange(nid, delta int) {
	n := s.nodes[nid]
	if !n.load.Change(delta) {
		return
	}
	style := netmodel.StyleRegular
	if s.cfg.LoadViaRMW {
		style = netmodel.StyleRMW
	}
	c := s.cfg.Combo.Cost(style, core.LoadMsgBytes, true, true)
	loadRMW := s.isRMW(style)
	load := n.load.Load()
	for p := 0; p < s.cfg.Nodes; p++ {
		if p == nid {
			continue
		}
		p := p
		if loadRMW {
			s.rmwWrite(nid)
		}
		s.sendMsg(nid, p, core.MsgLoad, core.LoadMsgBytes, c.SendCPU, c.RecvCPU, func() {
			s.nodes[p].peerLoad[nid] = load
		})
	}
}

// workloadDrained reports that the trace is exhausted and every issued
// request has completed — the stop condition shared by the periodic
// timers (replication scans, telemetry sampling).
func (s *simState) workloadDrained() bool {
	return s.cursor >= len(s.cfg.Trace.Requests) && s.completed >= int64(s.cursor)
}

// sendMsg models one intra-cluster message: sender CPU, sender NIC,
// propagation, receiver NIC, receiver CPU, then onRecv. Piggy-backing
// appends the sender's load; flow control may owe a credit message
// after data messages.
func (s *simState) sendMsg(src, dst int, mt core.MsgType, wireBytes int64,
	sendCPU, recvCPU time.Duration, onRecv func()) {

	m := s.cfg.Combo
	pb := s.cfg.Dissemination.Piggyback() && mt != core.MsgLoad
	if pb {
		wireBytes += core.PiggybackBytes
	}
	if s.measuring {
		s.msgs.Add(mt, wireBytes)
		s.ins[src].msgCount[mt].Inc()
		s.ins[src].msgBytes[mt].Add(wireBytes)
	}
	from, to := s.nodes[src], s.nodes[dst]
	deliver := func() {
		if pb {
			to.peerLoad[src] = from.load.Load()
		}
		if m.Protocol == netmodel.ProtoVIA && (mt == core.MsgForward || mt == core.MsgCaching || mt == core.MsgFile) {
			if s.fc.OnData(src, dst) {
				s.sendCredit(dst, src)
			}
		}
		if onRecv != nil {
			onRecv()
		}
	}
	nicTime := m.NICTime(wireBytes)
	from.cpu.Acquire(classComm, sendCPU, func() {
		from.intTX.Acquire(0, nicTime, func() {
			s.sim.After(m.PropDelay, func() {
				to.intRX.Acquire(0, nicTime, func() {
					if recvCPU > 0 {
						to.cpu.Acquire(classComm, recvCPU, deliver)
					} else {
						deliver()
					}
				})
			})
		})
	})
}

// instant is the simulated clock in the form core.Replicator takes.
func (s *simState) instant() time.Time { return time.Unix(0, s.sim.NowNanos()) }

// replScan runs every node's replication policy and models what each
// decides.
func (s *simState) replScan() {
	now := s.instant()
	for nid, n := range s.nodes {
		for _, a := range n.repl.Tick(now, replView{nodeView{s: s, id: nid}}) {
			if a.Drop {
				s.replDrop(nid, a.File, now)
			} else {
				s.replPush(nid, a.Dst, a.File)
			}
		}
	}
}

// replPush models one replica push: the hot cacher offers the file to
// the peer its policy picked, which — if its own policy accepts — pulls
// it back with an ordinary forward plus file transfer and installs the
// copy.
func (s *simState) replPush(src, dst int, fileID cache.FileID) {
	if s.measuring {
		s.replicaPushes++
	}
	size := s.cfg.Trace.Files[fileID].Size
	style := s.cfg.Version.Forward
	pc := s.cfg.Combo.Cost(style, core.ReplicateMsgBytes, true, true)
	fc := s.cfg.Combo.Cost(style, core.ForwardMsgBytes, true, true)
	if s.isRMW(style) {
		s.rmwWrite(src)
	}
	from, to := s.nodes[src], s.nodes[dst]
	s.sendMsg(src, dst, core.MsgReplicate, core.ReplicateMsgBytes, pc.SendCPU, pc.RecvCPU, func() {
		if !to.repl.Offer(fileID, to.cache.Contains(fileID), true) {
			return
		}
		if s.isRMW(style) {
			s.rmwWrite(dst)
		}
		s.sendMsg(dst, src, core.MsgForward, core.ForwardMsgBytes, fc.SendCPU, fc.RecvCPU, func() {
			// The source serves the pull as it serves any forward.
			from.repl.NoteServe(fileID)
			from.cache.Touch(fileID)
			s.transferFile(src, dst, size, func() {
				s.replInstall(dst, fileID, size)
			})
		})
	})
}

// replInstall lands a pulled replica in the target's cache and
// announces the caching change, exactly as a disk read would — unless a
// local disk read cached the file first or the copy does not fit.
func (s *simState) replInstall(dst int, fileID cache.FileID, size int64) {
	n := s.nodes[dst]
	if !n.cache.Contains(fileID) && s.cacheInsert(dst, fileID, size) {
		n.repl.Installed(fileID, s.instant())
		return
	}
	n.repl.Aborted(fileID)
}

// replDrop evicts a cold pulled copy and announces the change.
func (s *simState) replDrop(nid int, fileID cache.FileID, now time.Time) {
	n := s.nodes[nid]
	if !n.cache.Remove(fileID) {
		return
	}
	n.repl.Dropped(fileID, now)
	if s.measuring {
		s.replicaDrops++
	}
	s.cachingChange(nid, fileID, false)
}

// sendCredit returns flow-control credits from a receiver to a sender.
func (s *simState) sendCredit(src, dst int) {
	c := s.cfg.Combo.Cost(s.cfg.Version.Flow, core.FlowMsgBytes, true, true)
	if s.isRMW(s.cfg.Version.Flow) {
		s.rmwWrite(src)
	}
	s.sendMsg(src, dst, core.MsgFlow, core.FlowMsgBytes, c.SendCPU, c.RecvCPU, nil)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
