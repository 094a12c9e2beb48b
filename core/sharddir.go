package core

import (
	"time"

	"press/cache"
)

// Sharded-directory timing: a lookup that outlives ShardLookupTimeout is
// answered with an empty set (the request is serviced locally — the
// availability fallback), and a driver ticks at ShardTickInterval, often
// enough to notice.
const (
	ShardLookupTimeout = 250 * time.Millisecond
	ShardTickInterval  = 50 * time.Millisecond
)

// ShardRing is the immutable half of a sharded directory: the
// consistent-hash ring over the cluster's nodes and every file's key on
// it. It is the only per-file memory the sharded directory allocates up
// front (8 B/file), and every ShardDir of one process shares one.
type ShardRing struct {
	hash *cache.Ring
	keys []uint64 // per file, the ring key of its name
}

// NewShardRing builds the ring for a cluster of nodes over a population
// of files. Keys derive from file names, the one identifier every node
// agrees on.
func NewShardRing(nodes, files int, name func(cache.FileID) string) *ShardRing {
	r := &ShardRing{hash: cache.NewRing(nodes, 0), keys: make([]uint64, files)}
	for id := range r.keys {
		r.keys[id] = cache.KeyForName(name(cache.FileID(id)))
	}
	return r
}

// Owner returns the file's shard owner among the alive nodes, -1 when
// none is.
func (r *ShardRing) Owner(id cache.FileID, alive cache.NodeSet) int {
	return r.hash.Owner(r.keys[id], alive)
}

// DirMsg is one sharded-directory message as a value. To is the
// destination of a message the machine emits (unused on one handed to
// Handle, whose sender is an argument). Cached is a MsgCaching's new
// state and a MsgDirReply's first-request verdict; Set is a MsgDirReply's
// cacher set.
type DirMsg struct {
	To     int
	Type   MsgType
	File   cache.FileID
	Cached bool
	Set    cache.NodeSet
}

// ShardEnv is what a driver lends the machine.
type ShardEnv struct {
	// Emit carries one message toward m.To; delivery is the driver's
	// business (the server encodes and queues it, the simulator costs and
	// schedules it). It must not call back into the machine.
	Emit func(m DirMsg)
	// Alive is the current non-dead node set, self always included. All
	// ownership is computed over it.
	Alive func() cache.NodeSet
	// Cached iterates the files in this node's cache: what a membership
	// change re-announces.
	Cached func(fn func(id cache.FileID))
}

// shardEntry is the authoritative record of one file in this node's
// shard. Its presence is the first-request bit: an entry exists from
// the first lookup or change the owner sees.
type shardEntry struct {
	cachers  cache.NodeSet
	interest cache.NodeSet // readers holding a cached copy of the entry
}

// pendingLookup is one dispatch decision waiting on a shard owner.
type pendingLookup struct {
	done     func(cache.NodeSet, bool)
	deadline time.Time
}

// ShardDir is one node's half of the sharded caching directory, the
// single implementation the real server and the simulator both drive.
//
// Directory ownership is partitioned over a consistent-hash ring: the
// owner of a file's key holds the authoritative cacher set and the
// first-request bit. Reads are one MsgDirLookup/MsgDirReply exchange,
// cached by the reader until the owner invalidates (MsgDirInval); writes
// are one directed MsgCaching to the owner. Per-node directory traffic
// is O(1) per event instead of broadcast's O(N).
//
// The machine knows no clock and no transport: time is the now argument
// of Lookup and Tick, messages leave as DirMsg values through
// ShardEnv.Emit and arrive through Handle, and lookups resolve through
// their done callback — at once when this node owns the entry or holds a
// read copy, on the owner's reply, a timeout or a membership change
// otherwise. State is sparse: maps keyed by the files this node has an
// entry for, has read-cached or is waiting on. All of it belongs to the
// goroutine that drives the machine (a node's main loop).
type ShardDir struct {
	self int
	ring *ShardRing
	env  ShardEnv

	// Authoritative shard state. Ownership moves with membership, so an
	// entry can outlive this node's ownership of it (a peer whose view of
	// the membership runs ahead may also announce to us early); only the
	// current owner's entry is ever consulted, and a rejoin drops the
	// entries it took away.
	owned map[cache.FileID]shardEntry
	// Read-side cache of other owners' entries; a present key is a valid
	// copy.
	rc      map[cache.FileID]cache.NodeSet
	pending map[cache.FileID][]pendingLookup
}

// NewShardDir returns node self's machine over ring.
func NewShardDir(self int, ring *ShardRing, env ShardEnv) *ShardDir {
	return &ShardDir{
		self:    self,
		ring:    ring,
		env:     env,
		owned:   make(map[cache.FileID]shardEntry),
		rc:      make(map[cache.FileID]cache.NodeSet),
		pending: make(map[cache.FileID][]pendingLookup),
	}
}

// Owner returns the file's current shard owner among alive nodes.
func (s *ShardDir) Owner(id cache.FileID) int {
	return s.ring.Owner(id, s.env.Alive())
}

// owns reports whether this node answers for the file: it is the owner,
// or no node is left to be.
func (s *ShardDir) owns(own int) bool { return own == s.self || own < 0 }

// Lookup resolves the file's cacher set and first-request verdict for a
// dispatch decision. The verdict is consumed: the first lookup
// cluster-wide gets first=true, every later one false.
func (s *ShardDir) Lookup(id cache.FileID, now time.Time, done func(cachers cache.NodeSet, first bool)) {
	own := s.Owner(id)
	if s.owns(own) {
		e, seen := s.owned[id]
		if !seen {
			s.owned[id] = e
		}
		done(e.cachers, !seen)
		return
	}
	if set, ok := s.rc[id]; ok {
		done(set, false)
		return
	}
	waiters := s.pending[id]
	s.pending[id] = append(waiters, pendingLookup{done: done, deadline: now.Add(ShardLookupTimeout)})
	if len(waiters) == 0 {
		s.env.Emit(DirMsg{To: own, Type: MsgDirLookup, File: id})
	}
}

// Cachers returns the best locally known cacher set without messaging.
func (s *ShardDir) Cachers(id cache.FileID) cache.NodeSet {
	if s.owns(s.Owner(id)) {
		return s.owned[id].cachers
	}
	return s.rc[id] // unknown (empty) beats stale: callers fall back to local
}

// LocalCached records that this node started (cached=true) or stopped
// caching the file and tells the owner.
func (s *ShardDir) LocalCached(id cache.FileID, cached bool) {
	own := s.Owner(id)
	if s.owns(own) {
		s.applyOwned(id, s.self, cached)
		return
	}
	if set, ok := s.rc[id]; ok {
		// Keep the read copy coherent with our own change; the owner's
		// invalidation for it is redundant but harmless.
		if cached {
			s.rc[id] = set.Add(s.self)
		} else {
			s.rc[id] = set.Remove(s.self)
		}
	}
	s.env.Emit(DirMsg{To: own, Type: MsgCaching, File: id, Cached: cached})
}

// Seed records node as a cacher in this node's shard without messaging:
// how a driver starts a run from an already-warm cluster.
func (s *ShardDir) Seed(id cache.FileID, node int) {
	e := s.owned[id]
	e.cachers = e.cachers.Add(node)
	s.owned[id] = e
}

// applyOwned mutates an entry of this node's shard and invalidates
// every reader holding a cached copy.
func (s *ShardDir) applyOwned(id cache.FileID, node int, cached bool) {
	e := s.owned[id]
	if cached {
		e.cachers = e.cachers.Add(node)
	} else {
		e.cachers = e.cachers.Remove(node)
	}
	readers := e.interest
	e.interest = cache.NodeSet{} // readers re-register on next lookup
	s.owned[id] = e
	readers.ForEach(func(reader int) {
		s.env.Emit(DirMsg{To: reader, Type: MsgDirInval, File: id})
	})
}

// Handle consumes one directory message from a peer. A sender or file
// outside the cluster's ranges, or a type that is not the sharded
// directory's, is ignored.
func (s *ShardDir) Handle(from int, m DirMsg) {
	if from < 0 || from >= s.ring.hash.Nodes() || m.File < 0 || int(m.File) >= len(s.ring.keys) {
		return
	}
	id := m.File
	switch m.Type {
	case MsgCaching:
		// Directed update from a peer to the shard owner (us — or a
		// stale view of us; recording it is harmless either way).
		s.applyOwned(id, from, m.Cached)
	case MsgDirLookup:
		e, seen := s.owned[id]
		e.interest = e.interest.Add(from)
		s.owned[id] = e
		s.env.Emit(DirMsg{To: from, Type: MsgDirReply, File: id, Cached: !seen, Set: e.cachers})
	case MsgDirReply:
		// Only the current owner registered our interest under the
		// current membership; a former owner's late answer still resolves
		// the waiters but must not be kept, nobody would invalidate it.
		if from == s.Owner(id) {
			s.rc[id] = m.Set
		}
		waiters := s.pending[id]
		delete(s.pending, id)
		for i, w := range waiters {
			// Only the lookup that reached the owner first can be the
			// file's first request.
			w.done(m.Set, m.Cached && i == 0)
		}
	case MsgDirInval:
		delete(s.rc, id)
	}
}

// PeerDead routes the directory around a dead node, returning how many
// cacher entries were dropped.
func (s *ShardDir) PeerDead(peer int) int {
	purged := 0
	for id, e := range s.owned {
		if e.cachers.Has(peer) {
			purged++
		}
		e.cachers = e.cachers.Remove(peer)
		e.interest = e.interest.Remove(peer)
		s.owned[id] = e
	}
	// Ownership arcs moved: every cached read may now name the wrong
	// owner, and entries the dead node owned are gone. Drop the read
	// cache, fail pending lookups fast (local service), and re-announce
	// our own cache so the new owners rebuild their shards.
	clear(s.rc)
	s.flushPending()
	s.reannounce()
	return purged
}

// PeerJoined re-announces this node's cache after a peer came back: the
// rejoined node reclaims its arcs (with empty shard state) and every
// other owner's arc boundaries shifted back.
func (s *ShardDir) PeerJoined(peer int) {
	// What the peer reclaimed is its to rebuild. Kept, our copy would go
	// stale unseen and come back as truth if the peer died again.
	for id := range s.owned {
		if !s.owns(s.Owner(id)) {
			delete(s.owned, id)
		}
	}
	clear(s.rc)
	s.reannounce()
}

// Crash models a process restart: all directory state vanishes, and
// every waiting lookup is answered with an empty set.
func (s *ShardDir) Crash() {
	clear(s.owned)
	clear(s.rc)
	s.flushPending()
}

// Tick answers every lookup whose deadline has passed with an empty set
// and returns how many there were.
func (s *ShardDir) Tick(now time.Time) (timedOut int) {
	for id, waiters := range s.pending {
		kept := waiters[:0]
		for _, w := range waiters {
			if now.After(w.deadline) {
				timedOut++
				w.done(cache.NodeSet{}, false)
			} else {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			delete(s.pending, id)
		} else {
			s.pending[id] = kept
		}
	}
	return timedOut
}

// flushPending answers every waiting lookup with an empty set: the
// dispatch falls back to local service, trading a cache miss for not
// stalling the request on a directory in flux.
func (s *ShardDir) flushPending() {
	if len(s.pending) == 0 {
		return
	}
	flushed := s.pending
	s.pending = make(map[cache.FileID][]pendingLookup)
	for _, waiters := range flushed {
		for _, w := range waiters {
			w.done(cache.NodeSet{}, false)
		}
	}
}

// reannounce re-registers this node's cache contents with the current
// shard owners, rebuilding entries lost to an ownership change.
func (s *ShardDir) reannounce() {
	s.env.Cached(func(id cache.FileID) { s.LocalCached(id, true) })
}
