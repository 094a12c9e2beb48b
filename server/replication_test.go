package server

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"press/cache"
	"press/core"
	"press/telemetry"
)

func TestReplicationConfigDefaults(t *testing.T) {
	c := core.ReplicationConfig{Enabled: true}.WithDefaults()
	if c.HotRate != 100 || c.DecayRate != 25 || c.HalfLife != 2*time.Second {
		t.Errorf("trigger defaults: %+v", c)
	}
	if c.MaxReplicas != 3 {
		t.Errorf("placement defaults: %+v", c)
	}
	if c.Interval != 100*time.Millisecond || c.Cooldown != time.Second {
		t.Errorf("cadence defaults: %+v", c)
	}
	// The hysteresis default tracks an explicit HotRate.
	if c2 := (core.ReplicationConfig{HotRate: 40}).WithDefaults(); c2.DecayRate != 10 {
		t.Errorf("DecayRate = %v with HotRate 40", c2.DecayRate)
	}
}

// replTestKnobs is the replication policy on fast-converging settings:
// a file counts as hot at 20 req/s, the rate EWMA reacts within a few
// hundred milliseconds, and the per-file cooldown allows one action per
// 150 ms — so tests observe push, failover, and decay within seconds.
func replTestKnobs() core.ReplicationConfig {
	return core.ReplicationConfig{
		Enabled:     true,
		HotRate:     20,
		HalfLife:    300 * time.Millisecond,
		Interval:    25 * time.Millisecond,
		Cooldown:    150 * time.Millisecond,
		MaxReplicas: 3,
	}
}

// onMainLoop runs f on the node's main loop, which owns the cache,
// directory and replication state, and returns its result.
func onMainLoop[T any](t testing.TB, n *Node, f func() T) T {
	t.Helper()
	ch := make(chan T, 1)
	n.inject(func() { ch <- f() })
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("main-loop inspection did not run")
		panic("unreachable")
	}
}

// dirCachers reads a node's directory view of a file.
func dirCachers(t testing.TB, n *Node, id cache.FileID) cache.NodeSet {
	t.Helper()
	return onMainLoop(t, n, func() cache.NodeSet { return n.dir.Cachers(id) })
}

// pendingForwardsTo counts, across the given nodes, forwarded client
// requests still awaiting a reply from dst. Entries older than maxAge
// are not counted: their reply may be moments from delivery, and the
// caller is about to act on the promise that the forward is still in
// flight. Replica pulls are excluded — they abandon on failure instead
// of failing over.
func pendingForwardsTo(t *testing.T, cl *Cluster, nodes []int, dst int, maxAge time.Duration) int {
	t.Helper()
	total := 0
	for _, i := range nodes {
		n := cl.Nodes()[i]
		total += onMainLoop(t, n, func() int {
			c := 0
			now := time.Now()
			for _, p := range n.pending {
				if p.dst == dst && p.req != nil && now.Sub(p.sentAt) < maxAge {
					c++
				}
			}
			return c
		})
	}
	return total
}

// nodeCaches reports whether the node's LRU truly holds the file.
func nodeCaches(t *testing.T, n *Node, id cache.FileID) bool {
	t.Helper()
	return onMainLoop(t, n, func() bool { return n.lru.Contains(id) })
}

// driver is a closed-loop load generator hammering a file set through
// a set of target nodes; counts can be snapshotted mid-run so a test
// can measure a window (e.g. post-crash) of a continuous drive.
type driver struct {
	okN, errN atomic.Int64
	stopCh    chan struct{}
	wg        sync.WaitGroup
}

func startDrive(cl *Cluster, targets []int, names []string, workers int) *driver {
	d := &driver{stopCh: make(chan struct{})}
	for w := 0; w < workers; w++ {
		d.wg.Add(1)
		go func(w int) {
			defer d.wg.Done()
			for i := 0; ; i++ {
				select {
				case <-d.stopCh:
					return
				default:
				}
				url := cl.URL(targets[(w+i)%len(targets)])
				if _, err := Fetch(url, names[(w+i)%len(names)]); err != nil {
					d.errN.Add(1)
				} else {
					d.okN.Add(1)
				}
			}
		}(w)
	}
	return d
}

func (d *driver) counts() (ok, errs int64) { return d.okN.Load(), d.errN.Load() }

func (d *driver) stop() (ok, errs int64) {
	close(d.stopCh)
	d.wg.Wait()
	return d.counts()
}

// TestReplicationSpreadsAndDecays drives one file hot enough to trigger
// replication and checks the full life cycle: the cacher pushes, peers
// pull real copies over the file-transfer path, every node's directory
// view gains the replicas, content stays correct from every replica —
// and once the traffic stops, the pulled copies decay away again
// without ever dropping the last one.
func TestReplicationSpreadsAndDecays(t *testing.T) {
	const nodes = 4
	cfg, tr, _ := chaosClusterConfig(t, nodes)
	cfg.Replication = replTestKnobs()
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Warm up: file i lands in node (i mod nodes)'s cache.
	for i, f := range tr.Files {
		if _, err := Fetch(cl.URL(i%nodes), f.Name); err != nil {
			t.Fatalf("warmup %s: %v", f.Name, err)
		}
	}
	hot := tr.Files[0] // cached by node 0 after warmup
	hotID := cache.FileID(0)

	drv := startDrive(cl, []int{0, 1, 2, 3}, []string{hot.Name}, 8)
	waitFor(t, 15*time.Second, "a replica pull", func() bool {
		return cl.Stats().Nodes.ReplicaPulls >= 1
	})
	waitFor(t, 10*time.Second, "the replica to reach the directory views", func() bool {
		return dirCachers(t, cl.Nodes()[1], hotID).Len() >= 2
	})
	// The replica set never exceeds its cap, and every copy serves the
	// true bytes.
	set := dirCachers(t, cl.Nodes()[0], hotID)
	if set.Len() > cfg.Replication.MaxReplicas {
		t.Errorf("replica set %v exceeds MaxReplicas %d", set.Nodes(), cfg.Replication.MaxReplicas)
	}
	want := SynthesizeContent(hot.Name, hot.Size)
	for i := 0; i < nodes; i++ {
		got, err := Fetch(cl.URL(i), hot.Name)
		if err != nil {
			t.Fatalf("fetch via node %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %d served %d bytes, want %d", i, len(got), len(want))
		}
	}
	if ok, errs := drv.stop(); errs > 0 {
		t.Errorf("hot drive: %d failures (%d ok)", errs, ok)
	}

	// Popularity decay: with the traffic gone the pulled copies are
	// dropped, the original cacher keeps the last copy.
	waitFor(t, 15*time.Second, "de-replication back to one copy", func() bool {
		return dirCachers(t, cl.Nodes()[1], hotID).Len() == 1
	})
	if set := dirCachers(t, cl.Nodes()[1], hotID); set.Empty() {
		t.Error("decay dropped the last copy")
	}
	if st := cl.Stats().Nodes; st.ReplicaDrops < 1 {
		t.Errorf("no replica drops counted (stats: %+v)", st)
	}
}

// TestEvictedReplicaIsNotPulledAgain: "pulled" marks the copy, not the
// file. Once a pulled replica has been evicted, a later copy the node
// reads from its own disk is an original, and de-replication — which
// drops only pulled copies so a file's count never decays to zero —
// must not see it as droppable.
func TestEvictedReplicaIsNotPulledAgain(t *testing.T) {
	tr := serverTestTrace(t, 16)
	cfg := testClusterConfig(tr, TransportVIA)
	cfg.Nodes = 2
	cfg.CacheBytes = 64 << 10
	cfg.Replication = replTestKnobs()
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	n := cl.Nodes()[1]
	content := func(id cache.FileID) []byte {
		return SynthesizeContent(tr.Files[id].Name, tr.Files[id].Size)
	}
	type view struct{ pulled, evicted, after bool }
	v := onMainLoop(t, n, func() (v view) {
		n.repl.Offer(0, false, true)
		(&pendingRemote{file: 0}).finish(n, clientResult{data: content(0)})
		v.pulled = n.repl.Pulled(0)
		for id := cache.FileID(1); int(id) < len(tr.Files) && n.lru.Contains(0); id++ {
			n.insertCache(id, content(id))
		}
		v.evicted = !n.lru.Contains(0)
		n.insertCache(0, content(0)) // as handleDiskDone does
		v.after = n.repl.Pulled(0)
		return v
	})
	if !v.pulled || !v.evicted {
		t.Fatalf("setup: pulled %v, evicted %v", v.pulled, v.evicted)
	}
	if v.after {
		t.Error("a copy read from disk after the replica was evicted is still marked pulled")
	}
}

// runHotspotCrash is one arm of the acceptance scenario: an 8-node VIA
// cluster with an expensive disk is warmed, the four files homed on
// one node are driven hot, that node is crashed under load, and a
// fixed post-crash window of the continuous closed-loop drive is
// measured. Returns the window's successes and failures plus the
// telemetry plane for event assertions.
//
// The disk is deliberately slow (the regime the paper's cooperative
// cache exists for): without replication, the hot set dies with its
// only cacher and every survivor re-reads it from disk; with
// replication, the surviving replicas absorb the load and failover
// never touches a platter.
func runHotspotCrash(t *testing.T, replication bool) (ok, errs int64, plane *telemetry.Plane) {
	t.Helper()
	const nodes = 8
	const hotCacher = 5
	cfg, tr, reg := chaosClusterConfig(t, nodes)
	cfg.DiskDelay = 800 * time.Millisecond
	plane = telemetry.New(telemetry.Config{Registry: reg})
	cfg.Telemetry = plane
	if replication {
		k := replTestKnobs()
		// One extra copy over the production default spreads the hot
		// set without saturating the cluster: with eight nodes and four
		// replicas per file, several survivors always hold no copy and
		// keep forwarding — the pendings the crash converts into
		// replica failovers. (MaxReplicas high enough to give every
		// survivor a copy silences forwarding entirely and the failover
		// path never runs.) Decay is all but disabled: a fresh
		// replica's rate EWMA climbs from zero, and this scenario tests
		// failover, not decay (decay has its own test above).
		k.MaxReplicas = 4
		k.DecayRate = 0.01
		// The knobs' HotRate of 20 req/s assumes full-speed request
		// processing; under the race detector the closed-loop drive runs
		// an order of magnitude slower and per-file rates hover just
		// below it, so the trigger uses a floor the slowed drive still
		// clears decisively.
		k.HotRate = 5
		cfg.Replication = k
	}
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Parallel warmup — each node loads its own slice of the files —
	// so the slow disk does not serialize 32 reads.
	var wwg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			for j := i; j < len(tr.Files); j += nodes {
				if _, err := Fetch(cl.URL(i), tr.Files[j].Name); err != nil {
					t.Errorf("warmup %s: %v", tr.Files[j].Name, err)
				}
			}
		}(i)
	}
	wwg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var hotNames []string
	var hotIDs []cache.FileID
	for i, f := range tr.Files {
		if i%nodes == hotCacher {
			hotNames = append(hotNames, f.Name)
			hotIDs = append(hotIDs, cache.FileID(i))
		}
	}
	var survivors []int
	for i := 0; i < nodes; i++ {
		if i != hotCacher {
			survivors = append(survivors, i)
		}
	}

	// The main drive runs continuously across the crash so forwards to
	// the hot cacher are in flight when it dies — the replica-failover
	// path. It never targets the victim directly: post-crash successes
	// must all come from survivors. A small side loader on the victim
	// supplies the client load its replication trigger gates on
	// (MinLoad), and stops before the crash.
	// Eight victim-side workers, not one or two: the replication trigger
	// samples the cacher's in-flight request count (MinLoad) at tick
	// instants, and under the race detector client-side overhead dwarfs
	// service time — with too few workers the sampled load is almost
	// always zero and the trigger starves.
	main := startDrive(cl, survivors, hotNames, 16)
	vload := startDrive(cl, []int{hotCacher}, hotNames, 8)
	if replication {
		// Wait for the full complement, not just the first copy: a crash
		// that lands while a file still has one replica leaves a single
		// survivor absorbing that file's whole load, and the measured
		// goodput swings on how far replication happened to get.
		full := cfg.Replication.MaxReplicas
		waitFor(t, 20*time.Second, "every hot file to reach its replica cap", func() bool {
			for _, id := range hotIDs {
				if dirCachers(t, cl.Nodes()[0], id).Len() < full {
					return false
				}
			}
			return true
		})
	} else {
		time.Sleep(1200 * time.Millisecond)
	}
	vload.stop()
	// Let the victim's load-zero broadcast disseminate while its links
	// are still fast: routing between the victim and its replicas goes
	// by advertised load, and a stale nonzero entry for the victim
	// would steer every forward at the replicas — leaving nothing
	// pending at the victim for the crash to fail over.
	time.Sleep(150 * time.Millisecond)

	// Wedge forwards in flight on the victim before pulling the plug:
	// forward round trips on the fabric are microseconds, so at any
	// given instant nothing is pending at the victim and a bare crash
	// is detected by a failed heartbeat — routing quietly moves off the
	// dead node and the failover path never runs. Slowing the victim's
	// links parks every forward routed at it (now the least-loaded
	// choice) in the fabric; the crash then fails those transfers at
	// delivery time, and the resulting hard send errors sweep the
	// parked pendings onto surviving replicas. The delay is kept short:
	// each slowed transfer holds the goroutine that posts it for the
	// full delay, so a long wedge stalls the survivors' whole send pipes
	// deep into the measured window.
	if err := cl.SlowNode(hotCacher, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Crash only once a forward is verifiably parked at the victim — a
	// fixed wedge window is a coin flip: p2c samples the victim about
	// half the time, a replica-holding node serves locally without
	// forwarding at all, and under the race detector the drive delivers
	// just a few requests per 100 ms, so any window short enough not to
	// stall the measurement can close having routed nothing at the
	// victim. A pending younger than 50 ms still has the slowed reply
	// leg (>= 50 ms one way) ahead of it, so it cannot complete before
	// the crash lands.
	waitFor(t, 10*time.Second, "a forward parked at the victim", func() bool {
		return pendingForwardsTo(t, cl, survivors, hotCacher, 50*time.Millisecond) > 0
	})
	if err := cl.CrashNode(hotCacher); err != nil {
		t.Fatal(err)
	}
	// The measured window opens after the wedge drains (slow-delayed
	// transfers fail within ~250ms of the crash and their requests
	// re-dispatch), so both arms are compared on post-crash service:
	// replicas on one side, the baseline's disk storm on the other. The
	// victim's counters are snapshotted at the same point — nothing may
	// move them afterwards.
	time.Sleep(300 * time.Millisecond)
	okBase, errBase := main.counts()
	victimBefore := cl.Nodes()[hotCacher].Stats()
	diskBefore := cl.Stats().Nodes.DiskReads

	// The window is the recovery period, and it must close before the
	// baseline finishes healing: each survivor re-reads the hot set from
	// disk exactly once (coalesced), and from then on serves it locally —
	// faster than the replicated arm's forwarding mix — so a window that
	// runs deep into the baseline's steady state measures cache warmth,
	// not failover. With an 800 ms DiskDelay the storm (two rounds
	// across two disk threads) outlasts the 1.2 s window, so the
	// baseline is measured mid-recovery in both the full-speed and the
	// race-detector regime.
	time.Sleep(1200 * time.Millisecond)
	okEnd, errEnd := main.stop()
	ok, errs = okEnd-okBase, errEnd-errBase

	// No request was served by the dead replica: the crashed node's
	// counters must not move after the crash settles.
	victimAfter := cl.Nodes()[hotCacher].Stats()
	if victimAfter.Requests != victimBefore.Requests ||
		victimAfter.RemoteHits != victimBefore.RemoteHits ||
		victimAfter.LocalHits != victimBefore.LocalHits {
		t.Errorf("dead node served traffic: before %+v after %+v", victimBefore, victimAfter)
	}
	// With replicas alive, routing and failover never fall back to disk
	// for the hot set.
	if replication {
		if delta := cl.Stats().Nodes.DiskReads - diskBefore; delta != 0 {
			t.Errorf("%d disk reads during the crash window despite surviving replicas", delta)
		}
	}
	return ok, errs, plane
}

// TestHotspotCrashFailoverGoodput is the acceptance scenario of the
// replication layer: crash the hottest cacher mid-run and compare the
// post-crash goodput with and without hot-object replication. With
// replication the hot set survives on replicas — goodput must be
// strictly higher, availability at least 99%, zero requests served
// from the dead replica (asserted inside runHotspotCrash), and the
// flight recorder must show replica creation and replica failover.
func TestHotspotCrashFailoverGoodput(t *testing.T) {
	okOff, errsOff, _ := runHotspotCrash(t, false)
	okOn, errsOn, plane := runHotspotCrash(t, true)
	t.Logf("crash-window goodput: off %d ok / %d errs, on %d ok / %d errs",
		okOff, errsOff, okOn, errsOn)

	if okOn <= okOff {
		t.Errorf("goodput with replication (%d) does not beat without (%d)", okOn, okOff)
	}
	if total := okOn + errsOn; total == 0 || float64(okOn)/float64(total) < 0.99 {
		t.Errorf("availability %d/%d below 99%%", okOn, total)
	}
	var creates, failovers int
	hist := map[telemetry.EventType]int{}
	for _, ev := range plane.Events() {
		hist[ev.Type]++
		switch ev.Type {
		case telemetry.EvReplicaCreate:
			creates++
		case telemetry.EvReplicaFailover:
			failovers++
		}
	}
	if creates == 0 {
		t.Errorf("no replica-create events in the flight recorder (events: %v)", hist)
	}
	if failovers == 0 {
		t.Errorf("no replica-failover events in the flight recorder (events: %v)", hist)
	}
}

// TestChaosReplicaReconvergence checks replica-set correctness under
// the sharded directory: while a file is replicated, a replica holder
// is partitioned away and healed, then the original cacher is crashed.
// At every step no live node's directory view may
// route to a dead replica, the file keeps being served, and after the
// heal the views reconverge on nodes that truly cache it.
func TestChaosReplicaReconvergence(t *testing.T) {
	cases := []struct {
		name string
		diss core.Strategy
	}{
		{"SHARD", core.Sharded()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const nodes = 4
			cfg, tr, _ := chaosClusterConfig(t, nodes)
			cfg.Dissemination = tc.diss
			cfg.Replication = replTestKnobs()
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			for i, f := range tr.Files {
				if _, err := Fetch(cl.URL(i%nodes), f.Name); err != nil {
					t.Fatalf("warmup %s: %v", f.Name, err)
				}
			}
			hotID := cache.FileID(0)
			hotName := tr.Files[0].Name // cached by node 0 after warmup

			drv := startDrive(cl, []int{0, 1, 2, 3}, []string{hotName}, 8)
			defer drv.stop()

			// A replica materializes on some peer.
			holder := -1
			waitFor(t, 20*time.Second, "a replica pull on a peer", func() bool {
				for i, n := range cl.Nodes() {
					if i != 0 && n.Stats().ReplicaPulls > 0 && nodeCaches(t, n, hotID) {
						holder = i
						return true
					}
				}
				return false
			})

			// Partition the replica holder: every live view must stop
			// naming it, and the file keeps being served everywhere.
			if err := cl.PartitionNode(holder); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "holder declared dead", func() bool {
				for i, n := range cl.Nodes() {
					if i != holder && n.PeerState(holder) != StateDead {
						return false
					}
				}
				return true
			})
			waitFor(t, 10*time.Second, "dead holder purged from replica sets", func() bool {
				for i, n := range cl.Nodes() {
					if i != holder && dirCachers(t, n, hotID).Has(holder) {
						return false
					}
				}
				return true
			})
			for i := 0; i < nodes; i++ {
				if i == holder {
					continue
				}
				if _, err := Fetch(cl.URL(i), hotName); err != nil {
					t.Errorf("fetch via node %d with holder dead: %v", i, err)
				}
			}

			// Heal: the holder rejoins and its surviving copy re-enters
			// the views (directory replay / re-announce).
			if err := cl.HealNode(holder); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 15*time.Second, "holder re-integration", func() bool {
				for i, n := range cl.Nodes() {
					if i != holder && n.PeerState(holder) != StateAlive {
						return false
					}
				}
				return true
			})

			// Owner crash: kill the original cacher under load. The
			// surviving replicas keep serving; once the death is
			// detected, no live view routes to it.
			if err := cl.CrashNode(0); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "original cacher declared dead", func() bool {
				for i := 1; i < nodes; i++ {
					if cl.Nodes()[i].PeerState(0) != StateDead {
						return false
					}
				}
				return true
			})
			waitFor(t, 10*time.Second, "dead cacher purged from replica sets", func() bool {
				for i := 1; i < nodes; i++ {
					if dirCachers(t, cl.Nodes()[i], hotID).Has(0) {
						return false
					}
				}
				return true
			})
			for i := 1; i < nodes; i++ {
				if _, err := Fetch(cl.URL(i), hotName); err != nil {
					t.Errorf("fetch via node %d with origin dead: %v", i, err)
				}
			}
			// Reconvergence: every live recorded cacher truly caches the
			// file (no stale or dead members survive the fault cycle).
			waitFor(t, 15*time.Second, "views to match true cache contents", func() bool {
				for i := 1; i < nodes; i++ {
					ok := true
					dirCachers(t, cl.Nodes()[i], hotID).ForEach(func(m int) {
						if m == 0 || !nodeCaches(t, cl.Nodes()[m], hotID) {
							ok = false
						}
					})
					if !ok {
						return false
					}
				}
				return true
			})
		})
	}
}

// newTestReplicatedDir builds a replicated directory over a synthetic
// population wired to the fake network from directory_test.go.
func newTestReplicatedDir(self, nodes, files int) (*replicatedDirectory, *fakeDirNet, map[cache.FileID][]byte) {
	net := &fakeDirNet{}
	names := make([]string, files)
	ids := make(map[string]cache.FileID, files)
	for i := range names {
		names[i] = fmt.Sprintf("/f%05d.html", i)
		ids[names[i]] = cache.FileID(i)
	}
	content := make(map[cache.FileID][]byte)
	env := dirEnv{
		self: self, nodes: nodes, files: files,
		send:     net.send,
		fileName: func(id cache.FileID) string { return names[id] },
		fileID: func(name string) (cache.FileID, bool) {
			id, ok := ids[name]
			return id, ok
		},
		localFiles: func(fn func(id cache.FileID)) {
			for id := range content {
				fn(id)
			}
		},
		alive: func() cache.NodeSet {
			var s cache.NodeSet
			for n := 0; n < nodes; n++ {
				s = s.Add(n)
			}
			return s
		},
	}
	return newReplicatedDirectory(env), net, content
}

// TestReplicatedDirSyncReplay: the batched re-integration replay is
// authoritative — segment 0 purges the sender's stale membership before
// fresh entries land, later segments only add.
func TestReplicatedDirSyncReplay(t *testing.T) {
	r, _, _ := newTestReplicatedDir(0, 4, 8)
	name := func(id int) string { return r.env.fileName(cache.FileID(id)) }

	// Stale pre-death view: peer 2 caches files 0 and 1.
	r.HandleMessage(&Message{Type: core.MsgCaching, From: 2, Name: name(0), Cached: true})
	r.HandleMessage(&Message{Type: core.MsgCaching, From: 2, Name: name(1), Cached: true})

	// Replay says the peer now caches only file 1.
	r.HandleMessage(&Message{Type: core.MsgDirSync, From: 2, Offset: 0, Data: []byte(name(1))})
	if r.Cachers(0).Has(2) {
		t.Error("segment 0 did not purge stale membership")
	}
	if !r.Cachers(1).Has(2) {
		t.Error("replayed entry missing")
	}
	// A later segment must not re-purge what segment 0 installed.
	r.HandleMessage(&Message{Type: core.MsgDirSync, From: 2, Offset: 1, Data: []byte(name(3))})
	if !r.Cachers(1).Has(2) || !r.Cachers(3).Has(2) {
		t.Errorf("offset-1 segment purged earlier entries: f1=%v f3=%v",
			r.Cachers(1).Nodes(), r.Cachers(3).Nodes())
	}
	// An empty authoritative segment reconciles an emptied cache.
	r.HandleMessage(&Message{Type: core.MsgDirSync, From: 2, Offset: 0, Data: nil})
	for id := 0; id < 4; id++ {
		if r.Cachers(cache.FileID(id)).Has(2) {
			t.Errorf("empty reconcile left peer 2 on file %d", id)
		}
	}
}

// TestReplicatedDirPeerJoinedBatches: the rejoin replay batches names
// into bounded segments instead of one message per file, always sends
// at least one segment, and a receiver reconstructs the exact cache
// set from the stream.
func TestReplicatedDirPeerJoinedBatches(t *testing.T) {
	// Large cache: thousands of ~12-byte names overflow the 16 KB
	// segment bound several times over.
	const files = 4000
	r, net, content := newTestReplicatedDir(0, 4, files)
	for id := 0; id < files; id++ {
		content[cache.FileID(id)] = []byte("x")
	}
	r.PeerJoined(3)
	sent := net.drain()
	if len(sent) < 2 {
		t.Fatalf("replay of %d names used %d segment(s), want batching into several", files, len(sent))
	}
	recv, _, _ := newTestReplicatedDir(3, 4, files)
	total := 0
	for i, sm := range sent {
		if sm.dst != 3 || sm.m.Type != core.MsgDirSync {
			t.Fatalf("segment %d: dst=%d type=%v", i, sm.dst, sm.m.Type)
		}
		if sm.m.Offset != uint32(i) {
			t.Errorf("segment %d carries offset %d", i, sm.m.Offset)
		}
		if len(sm.m.Data) > dirSyncSegBytes {
			t.Errorf("segment %d is %d bytes, cap %d", i, len(sm.m.Data), dirSyncSegBytes)
		}
		total += len(splitNames(sm.m.Data))
		sm.m.From = 0 // the transport stamps the sender
		recv.HandleMessage(sm.m)
	}
	if total != files {
		t.Errorf("replay named %d files, want %d", total, files)
	}
	for id := 0; id < files; id++ {
		if !recv.Cachers(cache.FileID(id)).Has(0) {
			t.Fatalf("receiver missing file %d after replay", id)
		}
	}

	// Empty cache: exactly one authoritative segment, so the receiver
	// still reconciles away its stale view.
	r2, net2, _ := newTestReplicatedDir(0, 4, 8)
	r2.PeerJoined(1)
	sent = net2.drain()
	if len(sent) != 1 || sent[0].m.Offset != 0 || len(sent[0].m.Data) != 0 {
		t.Fatalf("empty-cache replay = %+v, want one empty offset-0 segment", sent)
	}
}

// BenchmarkReplicationOff proves the disabled replication layer costs
// nothing on the paths it instruments: the per-serve rate hook and the
// per-eviction hook are calls on the nil *core.Replicator a node holds
// when Enabled is false (the default), and must be allocation-free.
// check.sh gates on 0 allocs/op.
func BenchmarkReplicationOff(b *testing.B) {
	n := &Node{} // repl == nil, exactly as newNode leaves it when disabled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.repl.NoteServe(0)
		n.repl.Evicted(0)
	}
}
