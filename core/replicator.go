package core

import (
	"time"

	"press/cache"
)

const (
	// replMinLoad gates pushes on the cacher's own load (open
	// connections): a hot file on an idle node is left alone.
	replMinLoad = 1
	// replMaxConcurrentPulls caps in-flight replica pulls per node so a
	// burst of pushes cannot crowd client traffic off the file path.
	replMaxConcurrentPulls = 4
)

// ReplicaView is the world as one node sees it when its Replicator
// decides: the View request distribution uses (Load of self is the
// node's open connections; Cachers the live cacher set as this node
// believes it, which under a sharded directory may not list the node
// itself yet) plus the three facts only replication asks for.
type ReplicaView interface {
	View
	// Cached lists the files in this node's cache: the scan's domain.
	Cached() []cache.FileID
	// Eligible reports whether a peer may be handed a replica: alive
	// and not browned out.
	Eligible(node int) bool
	// Size returns the file's size in bytes.
	Size(id cache.FileID) int64
}

// ReplicaAction is one decision of a Tick for the driver to carry out:
// offer a replica of File to Dst, or (Drop) evict the local pulled copy
// and confirm with Dropped.
type ReplicaAction struct {
	File cache.FileID
	Drop bool
	Dst  int
}

// Replicator is one node's hot-object replication policy, the single
// implementation the real server and the simulator both drive.
//
// PRESS routes every request for a cached file to *the* caching node,
// so the head of a Zipf distribution turns one node into a load hotspot
// (the overload layer can only shed) and a single point of failure (the
// failover layer can only fall back to disk). The Replicator watches
// per-file request rates on the serving node and, when a cached file is
// hot while the node itself is loaded, offers a replica to the least-
// loaded eligible peer outside the live cacher set, up to MaxReplicas
// copies; the peer pulls the file over the ordinary forward/file-
// transfer path. Power-of-two-choices routing (Policy) then spreads
// requests over the set, and a cacher death fails them over to the
// surviving replicas. Once the rate decays below DecayRate the copy is
// dropped again — but only a copy this node pulled, and never the last
// live one, so a file's replica count decays toward one, never to zero,
// and yesterday's hot set does not dilute the aggregate cache for good.
//
// The machine knows no clock and no transport: time is the now
// argument (any monotonic instants; the constructor is told the first)
// and the world a ReplicaView. A driver feeds it NoteServe per request
// served, Tick periodically and Offer per replica offer received,
// carries out what Tick decides, and confirms what became of the cache:
// Installed or Aborted for a pull it accepted, Dropped for a drop it
// performed, Evicted for any other eviction, Reset after a crash. The
// state belongs to the goroutine that drives it (a node's main loop). A
// nil *Replicator is the disabled layer: the hooks a driver calls
// unconditionally (NoteServe, Tick, Offer, Evicted, Reset) are no-ops
// on it — Offer refuses, so no confirmation is ever owed — and
// NoteServe stays free on the serve path (check.sh gates it at 0
// allocs/op).
type Replicator struct {
	cfg       ReplicationConfig
	self      int
	largeFile int64

	// counts accumulates serves per file since the last fold; rates is
	// the per-file request-rate EWMA (req/s). Full-population slices, so
	// the hot path is one bounds-checked increment.
	counts   []uint32
	rates    []float64
	lastFold time.Time

	lastAction map[cache.FileID]time.Time // latest push, install or drop: the cooldown
	pulling    map[cache.FileID]bool      // pulls accepted and in flight
	// pulled marks files whose local copy exists because this node
	// pulled a replica: the only de-replication candidates.
	pulled map[cache.FileID]bool

	acts []ReplicaAction // Tick's result, reused across ticks
}

// NewReplicator returns node self's policy over a population of files,
// rate tracking starting at start; cfg carries its defaults already. It
// returns nil, the disabled layer, unless replication is enabled and
// there is a peer to replicate to. Files of largeFileBytes or more are
// never replicated: the initial node always serves those.
func NewReplicator(cfg ReplicationConfig, self, nodes, files int, largeFileBytes int64, start time.Time) *Replicator {
	if !cfg.Enabled || nodes < 2 {
		return nil
	}
	return &Replicator{
		cfg:        cfg,
		self:       self,
		largeFile:  largeFileBytes,
		counts:     make([]uint32, files),
		rates:      make([]float64, files),
		lastFold:   start,
		lastAction: make(map[cache.FileID]time.Time),
		pulling:    make(map[cache.FileID]bool),
		pulled:     make(map[cache.FileID]bool),
	}
}

// NoteServe counts one request for the file served by this node.
//
//presslint:hotpath budget=0
func (r *Replicator) NoteServe(id cache.FileID) {
	if r == nil {
		return
	}
	r.counts[id]++
}

// Tick folds the serves counted since the last fold into the rate EWMAs
// over the window actually measured (a late tick must not inflate a
// rate), then scans the cached files for hot and cold ones. Called more
// often than Interval it does nothing in between. The returned slice is
// valid until the next Tick.
func (r *Replicator) Tick(now time.Time, v ReplicaView) []ReplicaAction {
	if r == nil {
		return nil
	}
	dt := now.Sub(r.lastFold)
	if dt < r.cfg.Interval {
		return nil
	}
	r.lastFold = now
	alpha := float64(dt) / float64(r.cfg.HalfLife+dt)
	sec := dt.Seconds()
	for id, rate := range r.rates {
		if r.counts[id] == 0 && rate == 0 {
			continue
		}
		inst := float64(r.counts[id]) / sec
		r.counts[id] = 0
		r.rates[id] += alpha * (inst - rate)
	}
	r.acts = r.acts[:0]
	loaded := v.Load(r.self) >= replMinLoad
	for _, id := range v.Cached() {
		if last, ok := r.lastAction[id]; ok && now.Sub(last) < r.cfg.Cooldown {
			continue
		}
		switch rate := r.rates[id]; {
		case rate >= r.cfg.HotRate && loaded:
			if dst := r.placeReplica(id, v); dst >= 0 {
				r.lastAction[id] = now
				r.acts = append(r.acts, ReplicaAction{File: id, Dst: dst})
			}
		case rate < r.cfg.DecayRate && r.pulled[id]:
			// Never from one copy to zero. A view stale for a moment can
			// at worst lose the last announced cacher in that window; the
			// next request then re-reads the file from disk.
			if !v.Cachers(id).Remove(r.self).Empty() {
				r.acts = append(r.acts, ReplicaAction{File: id, Drop: true})
			}
		}
	}
	return r.acts
}

// placeReplica picks where a hot file's next replica goes: the least-
// loaded eligible peer outside the live cacher set, -1 when the file is
// too large to replicate, the set is full, or nobody qualifies.
func (r *Replicator) placeReplica(id cache.FileID, v ReplicaView) int {
	if v.Size(id) >= r.largeFile {
		return -1
	}
	live := v.Cachers(id).Add(r.self)
	if live.Len() >= r.cfg.MaxReplicas {
		return -1
	}
	var candidates cache.NodeSet
	for p := 0; p < v.Nodes(); p++ {
		if !live.Has(p) && v.Eligible(p) {
			candidates = candidates.Add(p)
		}
	}
	return leastLoaded(v, candidates)
}

// Offer is the receiving side of a push. The driver says whether the
// file is cached here already and whether it considers the offering peer
// alive; Offer also refuses a pull already in flight and any beyond the
// concurrency cap (the pusher re-offers after its cooldown if the file
// is still hot). On true the driver starts the pull and owes exactly
// one Installed or Aborted.
func (r *Replicator) Offer(id cache.FileID, cached, srcAlive bool) bool {
	if r == nil || cached || !srcAlive || r.pulling[id] || len(r.pulling) >= replMaxConcurrentPulls {
		return false
	}
	r.pulling[id] = true
	return true
}

// Installed confirms an accepted pull landed in the cache. The copy's
// rate is seeded at the trigger threshold: the file runs at least that
// hot somewhere, but this node has measured none of it yet. Left at
// zero the copy reads as cold the moment its cooldown expires and is
// dropped before routing sent it any traffic — churn exactly when the
// set should be settling. Seeded, it decays toward the truth.
func (r *Replicator) Installed(id cache.FileID, now time.Time) {
	delete(r.pulling, id)
	r.pulled[id] = true
	r.lastAction[id] = now
	if r.rates[id] < r.cfg.HotRate {
		r.rates[id] = r.cfg.HotRate
	}
}

// Aborted ends an accepted pull that left no replica behind (source
// died, reply corrupt or late, no room, a local disk read got there
// first). Nothing retries: the pusher re-triggers while the file is hot.
func (r *Replicator) Aborted(id cache.FileID) {
	delete(r.pulling, id)
}

// Evicted tells the machine the cache pushed the file out on its own.
// "Pulled" marks the copy, not the file: a copy the node later reads
// from its own disk is an original, which must never be dropped.
func (r *Replicator) Evicted(id cache.FileID) {
	if r == nil {
		return
	}
	delete(r.pulled, id)
}

// Dropped confirms the driver carried out a drop decision. A driver
// whose cache refused the drop simply does not confirm, and the copy is
// a candidate again at the next scan.
func (r *Replicator) Dropped(id cache.FileID, now time.Time) {
	delete(r.pulled, id)
	r.lastAction[id] = now
}

// Reset forgets everything, as a process restart would; rate tracking
// starts over at now.
func (r *Replicator) Reset(now time.Time) {
	if r == nil {
		return
	}
	clear(r.counts)
	clear(r.rates)
	clear(r.lastAction)
	clear(r.pulling)
	clear(r.pulled)
	r.lastFold = now
}

// Pulled reports whether the local copy of the file is a pulled replica.
func (r *Replicator) Pulled(id cache.FileID) bool { return r != nil && r.pulled[id] }

// Rate returns the file's request-rate EWMA in requests per second.
func (r *Replicator) Rate(id cache.FileID) float64 { return r.rates[id] }
