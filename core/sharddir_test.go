package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"press/cache"
)

// shardNet captures a machine's outbound messages.
type shardNet struct{ sent []DirMsg }

func (f *shardNet) send(m DirMsg) { f.sent = append(f.sent, m) }

func (f *shardNet) drain() []DirMsg {
	out := f.sent
	f.sent = nil
	return out
}

func testShardRing(nodes, files int) *ShardRing {
	return NewShardRing(nodes, files, func(id cache.FileID) string { return fmt.Sprintf("/f%03d.html", id) })
}

func allNodes(nodes int) cache.NodeSet {
	var s cache.NodeSet
	for n := 0; n < nodes; n++ {
		s = s.Add(n)
	}
	return s
}

// newTestShardDir builds the machine for `self` in a cluster of `nodes`
// over a synthetic file population, plus the knobs the tests poke: the
// fake network, a mutable alive set and the node's cache contents.
func newTestShardDir(self, nodes, files int) (*ShardDir, *shardNet, *cache.NodeSet, map[cache.FileID]bool) {
	net := &shardNet{}
	alive := new(cache.NodeSet)
	*alive = allNodes(nodes)
	content := make(map[cache.FileID]bool)
	return NewShardDir(self, testShardRing(nodes, files), ShardEnv{
		Emit:  net.send,
		Alive: func() cache.NodeSet { return *alive },
		Cached: func(fn func(cache.FileID)) {
			for id := range content {
				fn(id)
			}
		},
	}), net, alive, content
}

// fileOwnedBy finds a file whose shard owner is (or is not) `self`.
func fileOwnedBy(s *ShardDir, self int, want bool) cache.FileID {
	for id := range s.ring.keys {
		if (s.Owner(cache.FileID(id)) == self) == want {
			return cache.FileID(id)
		}
	}
	panic("no file with requested ownership in test population")
}

func TestShardDirLookupOwnedResolvesLocally(t *testing.T) {
	s, net, _, _ := newTestShardDir(0, 4, 64)
	id := fileOwnedBy(s, 0, true)
	var gotFirst []bool
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) {
		if !set.Empty() {
			t.Errorf("fresh entry has cachers %v", set.Nodes())
		}
		gotFirst = append(gotFirst, first)
	})
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) { gotFirst = append(gotFirst, first) })
	if len(gotFirst) != 2 || !gotFirst[0] || gotFirst[1] {
		t.Fatalf("first verdicts = %v, want [true false]", gotFirst)
	}
	if len(net.drain()) != 0 {
		t.Fatal("owned lookup sent messages")
	}
}

func TestShardDirLookupRemoteRoundTrip(t *testing.T) {
	s, net, _, _ := newTestShardDir(0, 4, 64)
	id := fileOwnedBy(s, 0, false)
	own := s.Owner(id)

	resolved := 0
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) {
		if !first || !set.Has(3) || set.Len() != 1 {
			t.Errorf("resolved set=%v first=%v", set.Nodes(), first)
		}
		resolved++
	})
	// A second waiter coalesces onto the in-flight lookup and must not
	// get the first-request verdict.
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) {
		if first {
			t.Error("coalesced waiter got the first verdict")
		}
		resolved++
	})
	sent := net.drain()
	if len(sent) != 1 || sent[0].To != own || sent[0].Type != MsgDirLookup || sent[0].File != id {
		t.Fatalf("lookup traffic = %+v", sent)
	}
	if resolved != 0 {
		t.Fatal("resolved before the reply")
	}
	s.Handle(own, DirMsg{Type: MsgDirReply, File: id, Cached: true, Set: cache.NodeSetOf(3)})
	if resolved != 2 {
		t.Fatalf("resolved %d of 2 waiters", resolved)
	}
	// The reply populated the read cache: the next lookup is free.
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) {
		if first || !set.Has(3) {
			t.Errorf("cached read: set=%v first=%v", set.Nodes(), first)
		}
		resolved++
	})
	if resolved != 3 || len(net.drain()) != 0 {
		t.Fatal("read-cache hit still sent a lookup")
	}
	// An invalidation from the owner forces the next lookup remote.
	s.Handle(own, DirMsg{Type: MsgDirInval, File: id})
	s.Lookup(id, t0, func(cache.NodeSet, bool) {})
	if sent := net.drain(); len(sent) != 1 || sent[0].Type != MsgDirLookup {
		t.Fatalf("post-inval traffic = %+v", sent)
	}
}

func TestShardDirOwnerInvalidatesReaders(t *testing.T) {
	s, net, _, _ := newTestShardDir(0, 4, 64)
	id := fileOwnedBy(s, 0, true)

	// Reader 2 looks the entry up: it gets a reply and is registered.
	s.Handle(2, DirMsg{Type: MsgDirLookup, File: id})
	sent := net.drain()
	if len(sent) != 1 || sent[0].To != 2 || sent[0].Type != MsgDirReply || sent[0].File != id ||
		!sent[0].Cached || !sent[0].Set.Empty() {
		t.Fatalf("reply = %+v", sent)
	}
	// A directed caching update from node 1 changes the entry: reader 2
	// must be invalidated, and only reader 2.
	s.Handle(1, DirMsg{Type: MsgCaching, File: id, Cached: true})
	sent = net.drain()
	if len(sent) != 1 || sent[0].To != 2 || sent[0].Type != MsgDirInval || sent[0].File != id {
		t.Fatalf("invalidation traffic = %+v", sent)
	}
	if !s.owned[id].cachers.Has(1) {
		t.Fatal("owner did not record the update")
	}
	// Interest was cleared: another change invalidates no one.
	s.Handle(3, DirMsg{Type: MsgCaching, File: id, Cached: true})
	if sent := net.drain(); len(sent) != 0 {
		t.Fatalf("second change re-invalidated: %+v", sent)
	}
	// The owner's own lookups never see a first request again.
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) {
		if first || !set.Has(1) || !set.Has(3) {
			t.Errorf("owner view: set=%v first=%v", set.Nodes(), first)
		}
	})
}

func TestShardDirLocalCachedGoesToOwnerOnly(t *testing.T) {
	s, net, _, _ := newTestShardDir(0, 4, 64)
	id := fileOwnedBy(s, 0, false)
	s.LocalCached(id, true)
	sent := net.drain()
	if len(sent) != 1 || sent[0].To != s.Owner(id) || sent[0].Type != MsgCaching || !sent[0].Cached {
		t.Fatalf("caching update traffic = %+v", sent)
	}
	s.LocalCached(id, false)
	sent = net.drain()
	if len(sent) != 1 || sent[0].Cached {
		t.Fatalf("evict update traffic = %+v", sent)
	}
}

func TestShardDirLookupTimeoutFallsBackLocal(t *testing.T) {
	s, net, _, _ := newTestShardDir(0, 4, 64)
	id := fileOwnedBy(s, 0, false)
	resolved := 0
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) {
		if !set.Empty() || first {
			t.Errorf("timeout resolution: set=%v first=%v", set.Nodes(), first)
		}
		resolved++
	})
	net.drain()
	if n := s.Tick(t0.Add(ShardLookupTimeout)); n != 0 || resolved != 0 { // deadline not yet passed
		t.Fatal("resolved before the timeout")
	}
	if n := s.Tick(t0.Add(2 * ShardLookupTimeout)); n != 1 || resolved != 1 {
		t.Fatalf("timeout resolved %d lookups, Tick reported %d", resolved, n)
	}
	if len(s.pending) != 0 {
		t.Fatal("pending entry leaked")
	}
}

func TestShardDirPeerDeadReownsAndReannounces(t *testing.T) {
	s, net, alive, content := newTestShardDir(0, 4, 128)
	// This node caches a file owned by a peer that is about to die.
	victimFile := fileOwnedBy(s, 0, false)
	victim := s.Owner(victimFile)
	content[victimFile] = true
	s.LocalCached(victimFile, true)
	net.drain()

	// Populate the read cache for the victim's file, then kill it.
	s.Handle(victim, DirMsg{Type: MsgDirReply, File: victimFile, Set: cache.NodeSetOf(0)})
	if _, ok := s.rc[victimFile]; !ok {
		t.Fatal("owner's reply not read-cached")
	}
	*alive = alive.Remove(victim)
	s.PeerDead(victim)

	// The read cache must be dropped (ownership moved) and the local
	// content re-announced to the file's new owner.
	if _, ok := s.rc[victimFile]; ok {
		t.Fatal("read cache survived an ownership change")
	}
	newOwner := s.Owner(victimFile)
	if newOwner == victim {
		t.Fatal("dead node still owns its arc")
	}
	foundAnnounce := false
	for _, m := range net.drain() {
		if m.Type == MsgCaching && m.File == victimFile {
			if m.To != newOwner || !m.Cached {
				t.Fatalf("re-announce went to %d (cached=%v), owner is %d", m.To, m.Cached, newOwner)
			}
			foundAnnounce = true
		}
	}
	if !foundAnnounce && newOwner != 0 {
		t.Fatal("local content not re-announced to the new owner")
	}
}

func TestShardDirPeerDeadPurgesCachers(t *testing.T) {
	s, _, alive, _ := newTestShardDir(0, 4, 64)
	id := fileOwnedBy(s, 0, true)
	s.Handle(2, DirMsg{Type: MsgCaching, File: id, Cached: true})
	s.Handle(3, DirMsg{Type: MsgCaching, File: id, Cached: true})
	*alive = alive.Remove(2)
	if purged := s.PeerDead(2); purged != 1 {
		t.Fatalf("purged = %d", purged)
	}
	if set := s.owned[id].cachers; set.Has(2) || !set.Has(3) {
		t.Fatalf("cachers after death = %v", set.Nodes())
	}
}

// TestShardDirPeerDeadFlushesPending: a membership change answers every
// waiting lookup at once with the local-service fallback.
func TestShardDirPeerDeadFlushesPending(t *testing.T) {
	s, _, alive, _ := newTestShardDir(0, 4, 64)
	id := fileOwnedBy(s, 0, false)
	resolved := 0
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) {
		if !set.Empty() || first {
			t.Errorf("flushed lookup: set=%v first=%v", set.Nodes(), first)
		}
		resolved++
	})
	victim := s.Owner(id)
	*alive = alive.Remove(victim)
	s.PeerDead(victim)
	if resolved != 1 || len(s.pending) != 0 {
		t.Fatalf("resolved %d, %d files still pending", resolved, len(s.pending))
	}
}

// TestShardDirFormerOwnersReplyNotCached: a lookup in flight across a
// rejoin is answered by the node that owned the entry when it was sent.
// The answer resolves the waiters, but the new owner never registered
// this reader, so nobody would invalidate a kept copy.
func TestShardDirFormerOwnersReplyNotCached(t *testing.T) {
	s, net, alive, _ := newTestShardDir(0, 4, 128)
	// A file whose ownership moves between two peers when one rejoins.
	var id cache.FileID = -1
	var returning, interim int
	for f := range s.ring.keys {
		before := s.Owner(cache.FileID(f))
		if before == 0 {
			continue
		}
		if after := s.ring.Owner(cache.FileID(f), alive.Remove(before)); after != 0 {
			id, returning, interim = cache.FileID(f), before, after
			break
		}
	}
	if id < 0 {
		t.Fatal("no file moves between two peers")
	}
	*alive = alive.Remove(returning)
	s.PeerDead(returning)
	resolved := 0
	s.Lookup(id, t0, func(set cache.NodeSet, first bool) {
		if !set.Has(2) {
			t.Errorf("resolved with %v", set.Nodes())
		}
		resolved++
	})
	*alive = alive.Add(returning)
	s.PeerJoined(returning)
	net.drain()
	s.Handle(interim, DirMsg{Type: MsgDirReply, File: id, Set: cache.NodeSetOf(2)})
	if resolved != 1 {
		t.Fatal("former owner's reply did not resolve the waiter")
	}
	if _, ok := s.rc[id]; ok {
		t.Fatal("former owner's reply was read-cached")
	}
	s.Lookup(id, t0, func(cache.NodeSet, bool) {})
	if sent := net.drain(); len(sent) != 1 || sent[0].To != returning || sent[0].Type != MsgDirLookup {
		t.Fatalf("next lookup traffic = %+v, want one lookup to node %d", sent, returning)
	}
}

// TestShardDirPeerJoinedDropsReclaimedEntries: entries a rejoined node
// took back are its to rebuild; the interim owner's copy would otherwise
// go stale unseen and resurface as truth at the node's next death.
func TestShardDirPeerJoinedDropsReclaimedEntries(t *testing.T) {
	s, _, alive, _ := newTestShardDir(0, 4, 128)
	const victim = 1
	*alive = alive.Remove(victim)
	s.PeerDead(victim)
	var inherited, own cache.FileID = -1, -1
	for f := range s.ring.keys {
		id := cache.FileID(f)
		if s.Owner(id) != 0 {
			continue
		}
		if s.ring.Owner(id, allNodes(4)) == victim {
			inherited = id
		} else {
			own = id
		}
	}
	if inherited < 0 || own < 0 {
		t.Fatal("population lacks an inherited or an own file")
	}
	s.Handle(2, DirMsg{Type: MsgCaching, File: inherited, Cached: true})
	s.Handle(2, DirMsg{Type: MsgCaching, File: own, Cached: true})
	*alive = alive.Add(victim)
	s.PeerJoined(victim)
	if _, ok := s.owned[inherited]; ok {
		t.Error("entry the rejoined node reclaimed was kept")
	}
	if !s.owned[own].cachers.Has(2) {
		t.Error("entry this node still owns was dropped")
	}
}

// TestShardDirCrashForgetsEverything: after a crash the machine answers
// as a fresh one, and lookups that were waiting are not left hanging.
func TestShardDirCrashForgetsEverything(t *testing.T) {
	s, _, _, _ := newTestShardDir(0, 4, 64)
	mine, theirs := fileOwnedBy(s, 0, true), fileOwnedBy(s, 0, false)
	s.Handle(2, DirMsg{Type: MsgCaching, File: mine, Cached: true})
	s.Handle(s.Owner(theirs), DirMsg{Type: MsgDirReply, File: theirs, Set: cache.NodeSetOf(3)})
	other := theirs + 1
	for s.Owner(other) == 0 {
		other++
	}
	resolved := 0
	s.Lookup(other, t0, func(cache.NodeSet, bool) { resolved++ })
	s.Crash()
	if resolved != 1 || len(s.owned)+len(s.rc)+len(s.pending) != 0 {
		t.Fatalf("after crash: resolved %d, owned %d, rc %d, pending %d",
			resolved, len(s.owned), len(s.rc), len(s.pending))
	}
	s.Lookup(mine, t0, func(set cache.NodeSet, first bool) {
		if !first || !set.Empty() {
			t.Errorf("restarted owner: set=%v first=%v", set.Nodes(), first)
		}
	})
}

// TestShardDirStateIsSparse: what a machine holds grows with the files
// it touched, not with the population. The shared ring keys are the only
// per-file memory.
func TestShardDirStateIsSparse(t *testing.T) {
	const population, touched = 1_000_000, 100
	s, net, _, _ := newTestShardDir(0, 8, population)
	if len(s.ring.keys) != population {
		t.Fatalf("ring holds %d keys", len(s.ring.keys))
	}
	for i := 0; i < touched; i++ {
		id := cache.FileID(i * (population / touched))
		s.Lookup(id, t0, func(cache.NodeSet, bool) {})
		s.LocalCached(id, true)
		s.Handle(1, DirMsg{Type: MsgDirLookup, File: id})
		s.Handle(1, DirMsg{Type: MsgCaching, File: id, Cached: true})
		if own := s.Owner(id); own != 0 {
			s.Handle(own, DirMsg{Type: MsgDirReply, File: id, Set: cache.NodeSetOf(0, 1)})
		}
	}
	net.drain()
	if len(s.owned) > touched || len(s.rc) > touched || len(s.pending) > touched {
		t.Fatalf("touched %d of %d files; owned %d, rc %d, pending %d entries",
			touched, population, len(s.owned), len(s.rc), len(s.pending))
	}
	if len(s.owned) == 0 || len(s.rc) == 0 {
		t.Fatalf("scenario exercised nothing: owned %d, rc %d", len(s.owned), len(s.rc))
	}
}

// shardCluster runs N machines over a lossless in-memory network with
// one FIFO queue per ordered pair of nodes, which is what every
// transport here provides, and keeps the ground truth the directory is
// to converge on: which node caches what, and who is alive. Membership
// is one shared view changed at an instant: a death takes the node's
// cache, its machine's state and every message to or from it along.
type shardCluster struct {
	t      *testing.T
	rng    *rand.Rand
	files  int
	dirs   []*ShardDir
	alive  cache.NodeSet
	cached []map[cache.FileID]bool
	queue  [][]DirMsg // [from*N+to], each FIFO
	now    time.Time
	owed   int // lookups not yet resolved
}

func newShardCluster(t *testing.T, nodes, files int, seed int64) *shardCluster {
	c := &shardCluster{t: t, rng: rand.New(rand.NewSource(seed)), files: files,
		alive: allNodes(nodes), queue: make([][]DirMsg, nodes*nodes), now: t0}
	ring := testShardRing(nodes, files)
	for n := 0; n < nodes; n++ {
		n := n
		c.cached = append(c.cached, make(map[cache.FileID]bool))
		c.dirs = append(c.dirs, NewShardDir(n, ring, ShardEnv{
			Emit: func(m DirMsg) {
				if m.To == n || !c.alive.Has(n) || !c.alive.Has(m.To) {
					t.Errorf("node %d sent %+v with alive = %v", n, m, c.alive.Nodes())
				}
				c.queue[n*nodes+m.To] = append(c.queue[n*nodes+m.To], m)
			},
			Alive: func() cache.NodeSet { return c.alive },
			Cached: func(fn func(cache.FileID)) {
				for id := range c.cached[n] {
					fn(id)
				}
			},
		}))
	}
	return c
}

// pick returns a random member of the set.
func (c *shardCluster) pick(set cache.NodeSet) int {
	nodes := set.Nodes()
	return nodes[c.rng.Intn(len(nodes))]
}

// deliver hands the head of a randomly chosen non-empty pair queue to
// its destination, reporting false when nothing is in flight.
func (c *shardCluster) deliver() bool {
	var busy []int
	for i, q := range c.queue {
		if len(q) > 0 {
			busy = append(busy, i)
		}
	}
	if len(busy) == 0 {
		return false
	}
	i := busy[c.rng.Intn(len(busy))]
	m := c.queue[i][0]
	c.queue[i] = c.queue[i][1:]
	c.dirs[m.To].Handle(i/len(c.dirs), m)
	return true
}

func (c *shardCluster) lookup(n int, id cache.FileID) {
	c.owed++
	resolved := false
	c.dirs[n].Lookup(id, c.now, func(cache.NodeSet, bool) {
		if resolved {
			c.t.Errorf("lookup of file %d at node %d resolved twice", id, n)
		}
		resolved = true
		c.owed--
	})
}

func (c *shardCluster) toggleCached(n int, id cache.FileID) {
	if c.cached[n][id] {
		delete(c.cached[n], id)
	} else {
		c.cached[n][id] = true
	}
	c.dirs[n].LocalCached(id, c.cached[n][id])
}

func (c *shardCluster) kill(x int) {
	c.alive = c.alive.Remove(x)
	clear(c.cached[x])
	for p := range c.dirs {
		c.queue[x*len(c.dirs)+p], c.queue[p*len(c.dirs)+x] = nil, nil
	}
	c.dirs[x].Crash()
	c.alive.ForEach(func(y int) { c.dirs[y].PeerDead(x) })
}

// rejoin brings x back with empty state. The network drains first: a
// restart and its join handshake take orders of magnitude longer than a
// message in flight, and the protocol leans on that. What crosses a
// rejoin in flight was addressed under the old arcs — an update lands at
// the interim owner instead of the returning node, and a reply that also
// crosses the node's next death is kept by its reader although the entry
// it read was dropped and rebuilt, the reader's interest with it.
func (c *shardCluster) rejoin(x int) {
	for c.deliver() {
	}
	peers := c.alive
	c.alive = c.alive.Add(x)
	peers.ForEach(func(y int) { c.dirs[y].PeerJoined(x) })
}

// tick moves the fake clock and ticks every alive machine.
func (c *shardCluster) tick(d time.Duration) {
	c.now = c.now.Add(d)
	c.alive.ForEach(func(n int) { c.dirs[n].Tick(c.now) })
}

// garbage feeds a machine a message no cluster member could have sent
// and checks nothing came of it.
func (c *shardCluster) garbage(n int) {
	d := c.dirs[n]
	owned, rc, pending, inFlight := len(d.owned), len(d.rc), len(d.pending), c.inFlight()
	types := []MsgType{MsgCaching, MsgDirLookup, MsgDirReply, MsgDirInval, MsgForward}
	for _, bad := range []struct {
		from int
		file cache.FileID
	}{
		{-1, 0}, {len(c.dirs), 0}, {65535, 0}, {0, -1}, {0, cache.FileID(c.files)}, {1 << 20, 1 << 30},
	} {
		d.Handle(bad.from, DirMsg{Type: types[c.rng.Intn(len(types))], File: bad.file, Cached: true})
	}
	d.Handle((n+1)%len(c.dirs), DirMsg{Type: MsgForward, File: 0}) // in range, not the directory's
	if len(d.owned) != owned || len(d.rc) != rc || len(d.pending) != pending || c.inFlight() != inFlight {
		c.t.Errorf("node %d: garbage input changed state or was answered", n)
	}
}

// inFlight counts the messages queued between all pairs.
func (c *shardCluster) inFlight() (n int) {
	for _, q := range c.queue {
		n += len(q)
	}
	return n
}

// checkQuiesced drains the network, lets every outstanding lookup time
// out, and asserts the directory's invariants against ground truth.
func (c *shardCluster) checkQuiesced(step int) {
	for c.deliver() {
	}
	c.tick(2 * ShardLookupTimeout)
	for c.deliver() {
	}
	if c.owed != 0 {
		c.t.Fatalf("step %d: %d lookups never resolved", step, c.owed)
	}
	c.alive.ForEach(func(n int) {
		d := c.dirs[n]
		if len(d.pending) != 0 {
			c.t.Fatalf("step %d: node %d still has %d files pending after the deadline", step, n, len(d.pending))
		}
		for id, set := range d.rc {
			// Over alive nodes: a reply that crossed a death in flight may
			// still list the dead node, which every reader of a cacher set
			// masks out and the node's return wipes.
			own := d.Owner(id)
			if truth := c.dirs[own].owned[id].cachers; set.Intersect(c.alive) != truth {
				c.t.Fatalf("step %d: node %d read-caches file %d as %v, owner %d says %v",
					step, n, id, set.Nodes(), own, truth.Nodes())
			}
		}
	})
	for f := 0; f < c.files; f++ {
		id := cache.FileID(f)
		var want cache.NodeSet
		c.alive.ForEach(func(n int) {
			if c.cached[n][id] {
				want = want.Add(n)
			}
		})
		own := c.dirs[c.pick(c.alive)].Owner(id)
		if got := c.dirs[own].owned[id].cachers; got != want {
			c.t.Fatalf("step %d: owner %d records file %d cached at %v, truth is %v (alive %v)",
				step, own, id, got.Nodes(), want.Nodes(), c.alive.Nodes())
		}
	}
}

// TestShardDirConvergesUnderChurn is the directory's property test:
// a seeded random interleaving of caching changes, lookups, message
// deliveries, clock ticks, node deaths and rejoins, and hostile input,
// checked at every quiesce point: (a) every alive owner's cacher set is
// the ground truth over alive nodes, (b) no read-cached entry differs
// from its owner's, (c) nothing is pending after the deadline and every
// lookup resolved exactly once, (d) out-of-range input is a no-op.
func TestShardDirConvergesUnderChurn(t *testing.T) {
	const nodes, files, steps = 5, 24, 4000
	for seed := int64(1); seed <= 20; seed++ {
		c := newShardCluster(t, nodes, files, seed)
		for step := 0; step < steps && !t.Failed(); step++ {
			n := c.pick(c.alive)
			id := cache.FileID(c.rng.Intn(files))
			switch r := c.rng.Intn(100); {
			case r < 40:
				c.deliver()
			case r < 62:
				c.toggleCached(n, id)
			case r < 84:
				c.lookup(n, id)
			case r < 88:
				c.tick(ShardTickInterval)
			case r < 91:
				c.garbage(n)
			case r < 94:
				if c.alive.Len() > 2 {
					c.kill(n)
				}
			case r < 97:
				dead := allNodes(nodes)
				c.alive.ForEach(func(n int) { dead = dead.Remove(n) })
				if !dead.Empty() {
					c.rejoin(c.pick(dead))
				}
			default:
				c.checkQuiesced(step)
			}
		}
		c.checkQuiesced(steps)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}
