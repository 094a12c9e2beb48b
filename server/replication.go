package server

import (
	"time"

	"press/cache"
	"press/core"
	"press/telemetry"
)

// Hot-object replication eliminates the single-cacher hotspot: PRESS
// routes every request for a cached file to *the* caching node, so the
// head of a Zipf distribution turns one node into both a load hotspot
// (the overload layer can only shed) and a single point of failure (the
// failover layer can only fall back to disk). The replication policy
// watches per-file request rates on the serving node and, when a file
// is hot while the node itself is loaded, asks a lightly loaded peer to
// pull a replica over the ordinary forward/file-transfer path — the
// same zero-copy machinery client requests ride. Multi-member cacher
// sets are then spread by power-of-two-choices routing (core.Policy),
// and a cacher death fails requests over to the surviving replicas
// instead of local disk.
//
// The whole layer is dark when disabled: replNoteServe is one branch on
// the serve path (check.sh gates it at 0 allocs/op), and no tick work
// runs.

// replMaxConcurrentPulls caps in-flight replica pulls per node so a
// burst of pushes cannot crowd out client traffic on the file rings.
const replMaxConcurrentPulls = 4

// replicationCtl is the per-node replication state, owned by the main
// loop. on is false when the layer is disabled and every hook guards on
// it first.
type replicationCtl struct {
	on  bool
	cfg core.ReplicationConfig

	// counts accumulates serves per file since the last fold; rates is
	// the per-file request-rate EWMA (req/s) the trigger compares
	// against. Both are full-population slices so the hot path is one
	// bounds-checked increment.
	counts   []uint32
	rates    []float64
	lastFold time.Time

	// lastAction stamps the most recent push or drop per file; the
	// cooldown bounds churn under a noisy rate signal.
	lastAction map[cache.FileID]time.Time
	// pulling dedupes in-flight replica pulls on the receiving side.
	pulling map[cache.FileID]bool
	// pulled marks files whose local copy exists because this node
	// pulled a replica. Only pulled copies are de-replication
	// candidates: the original cacher never drops its copy, so a file's
	// replica count decays back toward one, never to zero.
	pulled map[cache.FileID]bool
}

func newReplicationCtl(cfg Config) replicationCtl {
	if !cfg.Replication.Enabled || cfg.ContentOblivious || cfg.Nodes < 2 {
		return replicationCtl{}
	}
	return replicationCtl{
		on:         true,
		cfg:        cfg.Replication,
		counts:     make([]uint32, len(cfg.Trace.Files)),
		rates:      make([]float64, len(cfg.Trace.Files)),
		lastAction: make(map[cache.FileID]time.Time),
		pulling:    make(map[cache.FileID]bool),
		pulled:     make(map[cache.FileID]bool),
	}
}

// replNoteServe counts one request for the file against the replication
// rate tracker; runs on every serve, so the disabled path must be free.
//
//presslint:hotpath budget=0
func (n *Node) replNoteServe(id cache.FileID) {
	if !n.repl.on {
		return
	}
	n.repl.counts[id]++
}

// replTick folds the tick window's counts into the per-file rate EWMA
// and walks the locally cached files for hot/cold transitions. Runs on
// the main-loop ticker.
func (n *Node) replTick(now time.Time) {
	r := &n.repl
	if r.lastFold.IsZero() {
		r.lastFold = now
		return
	}
	dt := now.Sub(r.lastFold)
	if dt < r.cfg.Interval {
		return
	}
	r.lastFold = now
	alpha := float64(dt) / float64(r.cfg.HalfLife+dt)
	sec := dt.Seconds()
	for id := range r.rates {
		if r.counts[id] == 0 && r.rates[id] == 0 {
			continue
		}
		inst := float64(r.counts[id]) / sec
		r.counts[id] = 0
		r.rates[id] += alpha * (inst - r.rates[id])
	}
	load := n.diss.Load()
	for id := range n.content {
		switch rate := r.rates[id]; {
		case rate >= r.cfg.HotRate && load >= r.cfg.MinLoad:
			n.replMaybePush(id, now)
		case rate < r.cfg.DecayRate && r.pulled[id]:
			n.replMaybeDrop(id, now)
		}
	}
}

// replMaybePush asks a lightly loaded peer to pull a replica of a hot
// file this node caches, if the replica set has room.
func (n *Node) replMaybePush(id cache.FileID, now time.Time) {
	r := &n.repl
	if last, ok := r.lastAction[id]; ok && now.Sub(last) < r.cfg.Cooldown {
		return
	}
	if n.files[id].Size >= n.cfg.Policy.LargeFileBytes {
		return // large files are always serviced by the initial node
	}
	alive := cache.NodeSetFromMask(n.health.AliveMask())
	// A stale (sharded) view may not list this node yet; Add keeps the
	// target pick and the size cap honest either way.
	cachers := n.dir.Cachers(id).Add(n.id)
	if cachers.Intersect(alive).Len() >= r.cfg.MaxReplicas {
		return
	}
	dst := n.replPickTarget(cachers, alive)
	if dst < 0 {
		return
	}
	r.lastAction[id] = now
	n.m.replPushes.Inc()
	n.send(dst, &Message{Type: core.MsgReplicate, Name: n.files[id].Name})
}

// replPickTarget places a replica: the least-loaded alive, non-browned
// peer outside the current cacher set; -1 if none qualifies.
func (n *Node) replPickTarget(cachers, alive cache.NodeSet) int {
	best, bestLoad := -1, int(^uint(0)>>1)
	for p := 0; p < n.cfg.Nodes; p++ {
		if p == n.id || !alive.Has(p) || cachers.Has(p) || n.ovBrowned(p) {
			continue
		}
		if l := n.peerLoad[p]; l < bestLoad {
			best, bestLoad = p, l
		}
	}
	return best
}

// replMaybeDrop de-replicates a cold pulled copy so yesterday's hot set
// does not permanently dilute the aggregate cache. The eviction is a
// read-modify-write against the directory view: re-read the live cacher
// set immediately before dropping (never go from one copy to zero),
// evict the local copy, then announce the change over the caching
// (RMW) path. A transient stale view can at worst leave a brief window
// where the last announced cacher dies and a request re-replicates the
// file from disk.
func (n *Node) replMaybeDrop(id cache.FileID, now time.Time) {
	r := &n.repl
	if last, ok := r.lastAction[id]; ok && now.Sub(last) < r.cfg.Cooldown {
		return
	}
	live := n.dir.Cachers(id).Intersect(cache.NodeSetFromMask(n.health.AliveMask()))
	if live.Remove(n.id).Empty() {
		return // we are the last live cacher
	}
	if !n.lru.Remove(id) {
		return // pinned (a send in flight): retry next tick
	}
	delete(n.content, id)
	if reg := n.regions[id]; reg != nil {
		_ = n.nic.DeregisterMemory(reg)
		delete(n.regions, id)
	}
	delete(r.pulled, id)
	r.lastAction[id] = now
	n.m.replDrops.Inc()
	n.dir.LocalCached(id, false)
	n.tel.Event(telemetry.EvReplicaDrop, n.id, -1, n.files[id].Name, n.files[id].Size)
}

// handleReplicate is the pull side of a replica push: a peer believes
// this node should hold a copy of a hot file. The pull is an ordinary
// MsgForward back to the pusher, tracked as a pendingRemote with no
// client attached — the reply reassembles through handleFileChunk and
// lands in the cache instead of an HTTP response.
func (n *Node) handleReplicate(m *Message) {
	r := &n.repl
	if !r.on || n.degraded {
		return
	}
	id, ok := n.nameToID[m.Name]
	if !ok || n.lru.Contains(id) || r.pulling[id] {
		return
	}
	if len(r.pulling) >= replMaxConcurrentPulls {
		return // the pusher re-triggers after its cooldown if still hot
	}
	if n.health.isDead(m.From) {
		return
	}
	r.pulling[id] = true
	n.nextReqID++
	reqID := n.nextReqID
	p := &pendingRemote{replicate: true, replID: id, dst: m.From,
		tried: cache.NodeSetOf(n.id, m.From)}
	now := time.Now()
	p.sentAt = now
	if n.healthActive() {
		p.deadline = now.Add(n.cfg.Health.FailoverTimeout)
	}
	n.pending[reqID] = p
	n.ovForwardSent(m.From, now)
	n.send(m.From, &Message{Type: core.MsgForward, ReqID: reqID, Name: m.Name})
}

// replFinishPull installs a completed replica pull: into the cache
// (registering pages for zero-copy transmit, announcing the caching
// change) exactly as a disk read would.
func (n *Node) replFinishPull(p *pendingRemote, data []byte) {
	delete(n.repl.pulling, p.replID)
	if n.lru.Contains(p.replID) {
		return // raced with a local disk read; already a cacher
	}
	n.insertCache(p.replID, data)
	if !n.lru.Contains(p.replID) {
		return // did not fit (everything pinned): no replica after all
	}
	n.repl.pulled[p.replID] = true
	n.repl.lastAction[p.replID] = time.Now()
	// Seed the replica's rate EWMA at the trigger threshold: the pull
	// happened because the file runs at least that hot somewhere, but
	// this node has measured none of it yet. Left at zero, the copy
	// reads as cold the moment the cooldown expires and is dropped
	// before traffic ever reaches it — create/drop churn exactly when
	// the set should be stabilizing (say, re-replication after a cacher
	// death). Seeded, it instead decays toward the truth over HalfLife.
	if n.repl.rates[p.replID] < n.repl.cfg.HotRate {
		n.repl.rates[p.replID] = n.repl.cfg.HotRate
	}
	n.m.replPulls.Inc()
	n.tel.Event(telemetry.EvReplicaCreate, n.id, p.dst, n.files[p.replID].Name, int64(len(data)))
}

// replAbortPull abandons an in-flight pull (source died, send failed,
// reply corrupt). No retry: the pusher's policy re-triggers while the
// file stays hot, and no client is waiting.
func (n *Node) replAbortPull(p *pendingRemote) {
	delete(n.repl.pulling, p.replID)
}

// replCrash wipes the replication state alongside the cache for the
// chaos harness's process-restart model.
func (n *Node) replCrash() {
	r := &n.repl
	if !r.on {
		return
	}
	clear(r.counts)
	clear(r.rates)
	clear(r.lastAction)
	clear(r.pulling)
	clear(r.pulled)
	r.lastFold = time.Time{}
}
