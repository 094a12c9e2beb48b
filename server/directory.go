package server

import (
	"time"

	"press/cache"
	"press/core"
	"press/telemetry"
)

// Directory is the pluggable caching-state ownership policy: who holds
// the mapping from files to cacher sets, and what it costs to read or
// change it. The replicated form is the paper's design — every node
// holds the full directory, every change is broadcast. The sharded form
// partitions ownership over a consistent-hash ring so both reads and
// writes become single directed messages, the property that lets the
// directory scale past broadcast's O(N²) traffic.
//
// All methods run on the owning node's main loop; done callbacks fire
// there too (synchronously for a replicated directory, on message
// arrival or timeout for a sharded one).
type Directory interface {
	// Lookup resolves the file's cacher set and first-request verdict
	// for a dispatch decision. The verdict is consumed: the first
	// lookup cluster-wide returns first=true, every later one false.
	Lookup(id cache.FileID, done func(cachers cache.NodeSet, first bool))
	// Cachers returns the best locally known cacher set without
	// messaging — the failover and redirect paths' view, allowed to be
	// stale or empty (callers fall back to local service).
	Cachers(id cache.FileID) cache.NodeSet
	// LocalCached records that this node started (cached=true) or
	// stopped caching the file, and propagates the change.
	LocalCached(id cache.FileID, cached bool)
	// HandleMessage consumes a directory-related message (caching
	// updates, sharded lookups/replies/invalidations); false means the
	// message is not the directory's.
	HandleMessage(m *Message) bool
	// PeerDead routes the directory around a dead node, returning how
	// many cacher entries were dropped.
	PeerDead(peer int) int
	// PeerJoined re-announces this node's cache to a peer that came
	// back (replicated: to the peer; sharded: to the current owners,
	// whose arcs the rejoin reshaped).
	PeerJoined(peer int)
	// Crash models a process restart: all directory state vanishes.
	Crash()
	// Tick advances time-based machinery (sharded lookup timeouts).
	Tick(now time.Time)
	// TickInterval is the cadence Tick needs, 0 for none.
	TickInterval() time.Duration
}

// dirEnv is the narrow slice of node state a Directory runs against,
// kept as funcs so the implementations never reach into Node.
type dirEnv struct {
	self     int
	nodes    int
	files    int
	send     func(dst int, m Message) bool
	fileName func(id cache.FileID) string
	fileID   func(name string) (cache.FileID, bool)
	// localFiles iterates the node's currently cached files.
	localFiles func(fn func(id cache.FileID))
	// alive is the health tracker's current non-dead set (self always
	// included).
	alive func() cache.NodeSet
	// event feeds the telemetry flight recorder (nil-safe through the
	// owning node's plane); peer is -1 when no single peer is at fault.
	event func(typ telemetry.EventType, peer int, detail string, value int64)
}

// newDirectory builds the Directory the strategy asks for.
func newDirectory(s core.Strategy, env dirEnv) Directory {
	if s.Dir == core.DirSharded {
		return newShardedDirectory(env)
	}
	return newReplicatedDirectory(env)
}

// replicatedDirectory is the paper's design: a full local replica fed
// by caching-information broadcasts from every peer (Section 2.2).
type replicatedDirectory struct {
	env dirEnv
	d   *cache.Directory
}

func newReplicatedDirectory(env dirEnv) *replicatedDirectory {
	return &replicatedDirectory{env: env, d: cache.NewDirectory(env.nodes, env.files)}
}

func (r *replicatedDirectory) Lookup(id cache.FileID, done func(cache.NodeSet, bool)) {
	done(r.d.Cachers(id), r.d.FirstRequest(id))
}

func (r *replicatedDirectory) Cachers(id cache.FileID) cache.NodeSet { return r.d.Cachers(id) }

func (r *replicatedDirectory) LocalCached(id cache.FileID, cached bool) {
	r.d.SetCached(id, r.env.self, cached)
	name := r.env.fileName(id)
	for p := 0; p < r.env.nodes; p++ {
		if p != r.env.self {
			r.env.send(p, Message{Type: core.MsgCaching, Name: name, Cached: cached})
		}
	}
}

func (r *replicatedDirectory) HandleMessage(m *Message) bool {
	switch m.Type {
	case core.MsgCaching:
		if id, ok := r.env.fileID(m.Name); ok {
			r.d.SetCached(id, m.From, m.Cached)
			// A file cached elsewhere is no first request here.
			r.d.MarkSeen(id)
		}
		return true
	case core.MsgDirSync:
		// Re-integration replay: the first segment is authoritative for
		// the sender's whole cache, so stale membership from before the
		// death is dropped before the fresh entries land. A healed node
		// must never keep routing to entries the peer no longer has.
		if m.Offset == 0 {
			r.d.PurgeNode(m.From)
		}
		for _, name := range splitNames(m.Data) {
			if id, ok := r.env.fileID(name); ok {
				r.d.SetCached(id, m.From, true)
				r.d.MarkSeen(id)
			}
		}
		return true
	}
	return false
}

func (r *replicatedDirectory) PeerDead(peer int) int { return r.d.PurgeNode(peer) }

// dirSyncSegBytes caps one MsgDirSync segment's payload. Segments ride
// the VIA regular channel whole (only MsgFile is transport-chunked), and
// that channel's frame bound is derived from this cap (peerLayout): on
// V3-V5, where no file rides it, the segment is its largest payload.
const dirSyncSegBytes = 16 << 10

// PeerJoined replays this node's cache to a peer back from the dead as
// batched MsgDirSync segments — one message per ~16 KB of names instead
// of one per file — and always sends at least one (possibly empty)
// segment so the peer reconciles: its stale view of this node's cache
// is purged even when nothing is cached here anymore.
func (r *replicatedDirectory) PeerJoined(peer int) {
	var seg []byte
	offset := uint32(0)
	flush := func() {
		r.env.send(peer, Message{Type: core.MsgDirSync, Data: seg, Offset: offset})
		offset++
		seg = nil
	}
	r.env.localFiles(func(id cache.FileID) {
		name := r.env.fileName(id)
		if len(seg)+len(name)+1 > dirSyncSegBytes {
			flush()
		}
		if len(seg) > 0 {
			seg = append(seg, '\n')
		}
		seg = append(seg, name...)
	})
	flush()
}

// splitNames parses a MsgDirSync payload: file names joined by '\n'.
// It never allocates the slice header twice for the common small case
// and tolerates an empty payload (a cache-empty reconcile segment).
func splitNames(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	out := make([]string, 0, 8)
	start := 0
	for i, b := range data {
		if b == '\n' {
			out = append(out, string(data[start:i]))
			start = i + 1
		}
	}
	return append(out, string(data[start:]))
}

func (r *replicatedDirectory) Crash() {
	r.d = cache.NewDirectory(r.env.nodes, r.env.files)
}

func (r *replicatedDirectory) Tick(time.Time) {}

func (r *replicatedDirectory) TickInterval() time.Duration { return 0 }

// shardedDirectory drives core.ShardDir, which holds the sharded
// directory's every rule and all of its state: this driver supplies the
// wall clock, translates file IDs to names and DirMsg values to
// *Message, and raises the lookup-timeout event. Cachers, LocalCached,
// PeerDead, PeerJoined and Crash are the machine's own.
type shardedDirectory struct {
	*core.ShardDir
	env dirEnv
}

func newShardedDirectory(env dirEnv) *shardedDirectory {
	ring := core.NewShardRing(env.nodes, env.files, env.fileName)
	return &shardedDirectory{env: env, ShardDir: core.NewShardDir(env.self, ring, core.ShardEnv{
		Emit: func(m core.DirMsg) {
			// A reply reuses the Cached header byte for the first-request
			// verdict and carries the cacher set in the dir extension.
			env.send(m.To, Message{Type: m.Type, Name: env.fileName(m.File), Cached: m.Cached,
				DirSet: m.Set, DirSetValid: m.Type == core.MsgDirReply})
		},
		Alive:  env.alive,
		Cached: env.localFiles,
	})}
}

//presslint:alloc-gated a sharded lookup is a message; the request path's budget is the replicated default's
func (s *shardedDirectory) Lookup(id cache.FileID, done func(cache.NodeSet, bool)) {
	s.ShardDir.Lookup(id, time.Now(), done)
}

func (s *shardedDirectory) HandleMessage(m *Message) bool {
	switch m.Type {
	case core.MsgCaching, core.MsgDirLookup, core.MsgDirInval:
	case core.MsgDirReply:
		if !m.DirSetValid {
			return true // a reply without its set answers nothing
		}
	default:
		return false
	}
	if id, ok := s.env.fileID(m.Name); ok {
		s.Handle(m.From, core.DirMsg{Type: m.Type, File: id, Cached: m.Cached, Set: m.DirSet})
	}
	return true
}

func (s *shardedDirectory) Tick(now time.Time) {
	if n := s.ShardDir.Tick(now); n > 0 {
		s.env.event(telemetry.EvDirLookupTimeout, -1, "lookups fell back to local service", int64(n))
	}
}

func (s *shardedDirectory) TickInterval() time.Duration { return core.ShardTickInterval }
