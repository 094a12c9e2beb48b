package core

import (
	"testing"
	"time"

	"press/cache"
)

// The Replicator's rules, one row each, on a fake clock: t0 plus
// whatever the row adds. Nothing here sleeps or opens a socket.

var t0 = time.Unix(1000, 0)

func at(d time.Duration) time.Time { return t0.Add(d) }

// testReplCfg is the defaults with round numbers: hot at 100 req/s,
// cold under 25, fold every 100 ms over a 2 s time constant, 1 s cooldown,
// at most 3 copies.
func testReplCfg() ReplicationConfig {
	return ReplicationConfig{Enabled: true}.WithDefaults()
}

// fakeWorld is a ReplicaView over plain tables: 6 nodes, self is 0.
type fakeWorld struct {
	cached   []cache.FileID
	cachers  map[cache.FileID]cache.NodeSet
	loads    []int
	inelig   cache.NodeSet
	sizes    map[cache.FileID]int64
	ownLoad  int
	numNodes int
}

func newFakeWorld() *fakeWorld {
	return &fakeWorld{
		cachers:  map[cache.FileID]cache.NodeSet{},
		loads:    []int{0, 50, 40, 30, 20, 10},
		sizes:    map[cache.FileID]int64{},
		ownLoad:  5,
		numNodes: 6,
	}
}

func (w *fakeWorld) Cachers(id cache.FileID) cache.NodeSet { return w.cachers[id] }
func (w *fakeWorld) Load(n int) int {
	if n == 0 {
		return w.ownLoad
	}
	return w.loads[n]
}
func (w *fakeWorld) LoadKnown() bool        { return true }
func (w *fakeWorld) Nodes() int             { return w.numNodes }
func (w *fakeWorld) Cached() []cache.FileID { return w.cached }
func (w *fakeWorld) Eligible(n int) bool    { return !w.inelig.Has(n) }
func (w *fakeWorld) Size(id cache.FileID) int64 {
	if s, ok := w.sizes[id]; ok {
		return s
	}
	return 8 << 10
}

const testLargeFile = 512 << 10

func newTestReplicator() *Replicator {
	return NewReplicator(testReplCfg(), 0, 6, 16, testLargeFile, t0)
}

// heat makes file id read as hot (≥ HotRate) at the next fold.
func heat(r *Replicator, id cache.FileID) { r.rates[id] = 4 * r.cfg.HotRate }

func TestReplicatorDisabledIsNil(t *testing.T) {
	if r := NewReplicator(ReplicationConfig{}.WithDefaults(), 0, 4, 8, testLargeFile, t0); r != nil {
		t.Error("a disabled config built a Replicator")
	}
	if r := NewReplicator(testReplCfg(), 0, 1, 8, testLargeFile, t0); r != nil {
		t.Error("a one-node cluster built a Replicator")
	}
	// The nil machine is the disabled layer: every hook a driver calls
	// unconditionally is a no-op.
	var r *Replicator
	r.NoteServe(3)
	r.Evicted(3)
	r.Reset(t0)
	if r.Offer(3, false, true) || r.Pulled(3) || r.Tick(t0, newFakeWorld()) != nil {
		t.Error("the nil Replicator did something")
	}
	if n := testing.AllocsPerRun(100, func() { r.NoteServe(3); r.Evicted(3) }); n != 0 {
		t.Errorf("disabled hooks allocate %v times per call", n)
	}
}

// TestReplicatorPush is the trigger and placement table: file 1 is
// cached here and hot unless the row says otherwise, and one tick runs
// a full interval after start.
func TestReplicatorPush(t *testing.T) {
	rows := []struct {
		name  string
		setup func(r *Replicator, w *fakeWorld)
		want  int // target, -1 for no push
	}{
		{"hot, loaded, room: least-loaded peer", func(*Replicator, *fakeWorld) {}, 5},
		{"cold file", func(r *Replicator, _ *fakeWorld) { r.rates[1] = r.cfg.HotRate / 2 }, -1},
		{"idle node leaves a hot file alone", func(_ *Replicator, w *fakeWorld) { w.ownLoad = 0 }, -1},
		{"hot but no longer cached here", func(_ *Replicator, w *fakeWorld) { w.cached = nil }, -1},
		{"inside the cooldown", func(r *Replicator, _ *fakeWorld) {
			r.lastAction[1] = at(-r.cfg.Cooldown / 2)
		}, -1},
		{"cooldown just over", func(r *Replicator, _ *fakeWorld) {
			r.lastAction[1] = at(r.cfg.Interval - r.cfg.Cooldown)
		}, 5},
		{"at the large-file cutoff", func(_ *Replicator, w *fakeWorld) { w.sizes[1] = testLargeFile }, -1},
		{"just under the cutoff", func(_ *Replicator, w *fakeWorld) { w.sizes[1] = testLargeFile - 1 }, 5},
		{"MaxReplicas live copies", func(_ *Replicator, w *fakeWorld) {
			w.cachers[1] = cache.NodeSetOf(0, 4, 5)
		}, -1},
		{"MaxReplicas counts self when the view omits it", func(_ *Replicator, w *fakeWorld) {
			w.cachers[1] = cache.NodeSetOf(4, 5) // a sharded view not yet listing us
		}, -1},
		{"one below the cap, view omitting self", func(_ *Replicator, w *fakeWorld) {
			w.cachers[1] = cache.NodeSetOf(5)
		}, 4},
		{"least-loaded peer already caches it", func(_ *Replicator, w *fakeWorld) {
			w.cachers[1] = cache.NodeSetOf(0, 5)
		}, 4},
		{"least-loaded peer is dead or browned out", func(_ *Replicator, w *fakeWorld) {
			w.inelig = cache.NodeSetOf(5, 4)
		}, 3},
		{"no eligible peer", func(_ *Replicator, w *fakeWorld) {
			w.inelig = cache.NodeSetOf(1, 2, 3, 4, 5)
		}, -1},
		{"never self, even as the least loaded", func(_ *Replicator, w *fakeWorld) {
			w.ownLoad = 1
			w.inelig = cache.NodeSetOf(2, 3, 4, 5)
		}, 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r, w := newTestReplicator(), newFakeWorld()
			w.cached = []cache.FileID{1}
			w.cachers[1] = cache.NodeSetOf(0)
			heat(r, 1)
			row.setup(r, w)
			now := at(r.cfg.Interval)
			acts := r.Tick(now, w)
			if row.want < 0 {
				if len(acts) != 0 {
					t.Fatalf("decided %+v, want nothing", acts)
				}
				return
			}
			if len(acts) != 1 || acts[0] != (ReplicaAction{File: 1, Dst: row.want}) {
				t.Fatalf("decided %+v, want a push of file 1 to node %d", acts, row.want)
			}
			// A push stamps the cooldown when decided: the next scans stay
			// quiet until it runs out.
			if acts := r.Tick(now.Add(r.cfg.Interval), w); len(acts) != 0 {
				t.Errorf("pushed again inside the cooldown: %+v", acts)
			}
			heat(r, 1)
			if acts := r.Tick(now.Add(r.cfg.Cooldown), w); len(acts) != 1 {
				t.Errorf("no push once the cooldown ran out: %+v", acts)
			}
		})
	}
}

func TestReplicatorOffer(t *testing.T) {
	r := newTestReplicator()
	if r.Offer(1, true, true) {
		t.Error("accepted a file already cached here")
	}
	if r.Offer(1, false, false) {
		t.Error("accepted an offer from a dead source")
	}
	if !r.Offer(1, false, true) {
		t.Fatal("refused a good offer")
	}
	if r.Offer(1, false, true) {
		t.Error("accepted a duplicate of a pull in flight")
	}
	for id := cache.FileID(2); id <= replMaxConcurrentPulls; id++ {
		if !r.Offer(id, false, true) {
			t.Fatalf("refused pull %d of %d", id, replMaxConcurrentPulls)
		}
	}
	if r.Offer(9, false, true) {
		t.Errorf("accepted a pull beyond the cap of %d", replMaxConcurrentPulls)
	}
	// Either confirmation frees the slot, and the file may be offered
	// again.
	r.Aborted(1)
	if !r.Offer(9, false, true) {
		t.Error("an aborted pull did not free its slot")
	}
	r.Installed(2, t0)
	if !r.Offer(1, false, true) {
		t.Error("an installed pull did not free its slot")
	}
}

func TestReplicatorInstallSeedsRateAndCooldown(t *testing.T) {
	r, w := newTestReplicator(), newFakeWorld()
	r.Offer(1, false, true)
	r.Installed(1, t0)
	if !r.Pulled(1) {
		t.Fatal("installed copy not marked pulled")
	}
	if got := r.Rate(1); got != r.cfg.HotRate {
		t.Errorf("fresh replica's rate = %v, want the trigger threshold %v", got, r.cfg.HotRate)
	}
	if last, ok := r.lastAction[1]; !ok || !last.Equal(t0) {
		t.Errorf("install stamped the cooldown at %v (%v), want %v", last, ok, t0)
	}
	// A rate already above the threshold is measured truth: kept.
	heat(r, 2)
	r.Installed(2, t0)
	if got := r.Rate(2); got != 4*r.cfg.HotRate {
		t.Errorf("install lowered a measured rate to %v", got)
	}
	// Idle from here on, with another live copy elsewhere: nothing drops
	// inside the cooldown, nor for as long as the seeded rate takes to
	// decay from HotRate to below DecayRate — a factor of four, so ln 4
	// of the EWMA's time constant — and then the copy goes.
	w.cached = []cache.FileID{1}
	w.cachers[1] = cache.NodeSetOf(0, 3)
	var droppedAt time.Duration
	for d := r.cfg.Interval; d < time.Minute; d += r.cfg.Interval {
		if acts := r.Tick(at(d), w); len(acts) > 0 {
			if acts[0] != (ReplicaAction{File: 1, Drop: true}) {
				t.Fatalf("decided %+v, want a drop of file 1", acts)
			}
			droppedAt = d
			break
		}
	}
	if lo, hi := 13*r.cfg.HalfLife/10, 15*r.cfg.HalfLife/10; droppedAt < lo || droppedAt > hi {
		t.Errorf("seeded replica dropped after %v idle, want ln 4 x %v, within %v..%v", droppedAt, r.cfg.HalfLife, lo, hi)
	}
}

// TestReplicatorDrop is the de-replication table: file 1 is a cold
// pulled copy with another live copy at node 3 and its cooldown long
// over, unless the row says otherwise.
func TestReplicatorDrop(t *testing.T) {
	rows := []struct {
		name  string
		setup func(r *Replicator, w *fakeWorld)
		want  bool
	}{
		{"cold pulled copy with a live peer copy", func(*Replicator, *fakeWorld) {}, true},
		{"an original is never dropped", func(r *Replicator, _ *fakeWorld) { r.Evicted(1) }, false},
		{"never the last live copy", func(_ *Replicator, w *fakeWorld) {
			w.cachers[1] = cache.NodeSetOf(0)
		}, false},
		{"last live copy, stale view omitting self", func(_ *Replicator, w *fakeWorld) {
			w.cachers[1] = cache.NodeSet{}
		}, false},
		{"still warm", func(r *Replicator, _ *fakeWorld) { r.rates[1] = 2 * r.cfg.DecayRate }, false},
		{"inside the cooldown", func(r *Replicator, _ *fakeWorld) {
			r.lastAction[1] = at(r.cfg.Cooldown / 2)
		}, false},
		{"an idle node still drops", func(_ *Replicator, w *fakeWorld) { w.ownLoad = 0 }, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r, w := newTestReplicator(), newFakeWorld()
			w.cached = []cache.FileID{1}
			w.cachers[1] = cache.NodeSetOf(0, 3)
			r.Installed(1, at(-time.Minute))
			r.rates[1] = 0
			row.setup(r, w)
			acts := r.Tick(at(r.cfg.Cooldown), w)
			if got := len(acts) == 1 && acts[0] == (ReplicaAction{File: 1, Drop: true}); got != row.want {
				t.Fatalf("decided %+v, want drop = %v", acts, row.want)
			}
		})
	}
}

// TestReplicatorRefusedDropStaysCandidate: a drop is only real once the
// driver confirms it. A cache that refuses leaves the copy a candidate
// at the very next scan; a confirmed drop stamps the cooldown and clears
// the mark.
func TestReplicatorRefusedDropStaysCandidate(t *testing.T) {
	r, w := newTestReplicator(), newFakeWorld()
	w.cached = []cache.FileID{1}
	w.cachers[1] = cache.NodeSetOf(0, 3)
	r.Installed(1, at(-time.Minute))
	r.rates[1] = 0
	drop := ReplicaAction{File: 1, Drop: true}
	if acts := r.Tick(at(r.cfg.Interval), w); len(acts) != 1 || acts[0] != drop {
		t.Fatalf("first scan decided %+v", acts)
	}
	// Refused: the driver confirms nothing.
	if acts := r.Tick(at(2*r.cfg.Interval), w); len(acts) != 1 || acts[0] != drop {
		t.Fatalf("refused drop not retried at the next scan: %+v", acts)
	}
	r.Dropped(1, at(2*r.cfg.Interval))
	if r.Pulled(1) {
		t.Error("a confirmed drop left the copy marked pulled")
	}
	if _, ok := r.lastAction[1]; !ok {
		t.Error("a confirmed drop did not stamp the cooldown")
	}
}

// TestReplicatorEvictedMakesOriginal: "pulled" marks the copy, not the
// file. Once the cache has pushed the replica out on its own, whatever
// copy the node holds later came from its own disk.
func TestReplicatorEvictedMakesOriginal(t *testing.T) {
	r := newTestReplicator()
	r.Installed(1, t0)
	r.Evicted(1)
	if r.Pulled(1) {
		t.Error("an evicted replica is still marked pulled")
	}
	r.Evicted(7) // never pulled: nothing to forget
}

func TestReplicatorReset(t *testing.T) {
	r, w := newTestReplicator(), newFakeWorld()
	for i := 0; i < 50; i++ {
		r.NoteServe(1)
	}
	heat(r, 2)
	r.Installed(3, t0)
	r.Offer(4, false, true)
	w.cached = []cache.FileID{1, 2, 3}
	w.cachers[3] = cache.NodeSetOf(0, 5)
	restart := at(time.Hour)
	r.Reset(restart)
	if r.Pulled(3) || r.Rate(2) != 0 || r.Rate(3) != 0 || len(r.pulling) != 0 || len(r.lastAction) != 0 {
		t.Errorf("state survived a reset: %+v", r)
	}
	// Rate tracking restarts at the reset instant: no fold before a full
	// interval has passed again, and the pre-crash counts are gone.
	if acts := r.Tick(restart.Add(r.cfg.Interval/2), w); acts != nil {
		t.Errorf("ticked %+v half an interval after a reset", acts)
	}
	r.Tick(restart.Add(r.cfg.Interval), w)
	if r.Rate(1) != 0 {
		t.Errorf("pre-reset serves folded into a rate of %v", r.Rate(1))
	}
}

// TestReplicatorFoldsMeasuredWindow: the rate is serves over the time
// they really took. A tick arriving three intervals late must report
// the same rate for the same request stream as three punctual ticks,
// not three times as much, and a tick arriving early must not fold.
func TestReplicatorFoldsMeasuredWindow(t *testing.T) {
	w := newFakeWorld()
	cfg := testReplCfg()
	const perInterval = 30 // 300 req/s at the default 100 ms interval

	punctual := newTestReplicator()
	for i := 1; i <= 3; i++ {
		for k := 0; k < perInterval; k++ {
			punctual.NoteServe(1)
		}
		punctual.Tick(at(time.Duration(i)*cfg.Interval), w)
	}
	late := newTestReplicator()
	for k := 0; k < 3*perInterval; k++ {
		late.NoteServe(1)
	}
	if acts := late.Tick(at(cfg.Interval/2), w); acts != nil || late.Rate(1) != 0 {
		t.Fatalf("an early tick folded: rate %v", late.Rate(1))
	}
	late.Tick(at(3*cfg.Interval), w)

	// One fold over 3·Δ against three over Δ: the EWMA weights differ in
	// the second order only (Δ ≪ HalfLife).
	p, l := punctual.Rate(1), late.Rate(1)
	if l < 0.9*p || l > 1.1*p {
		t.Errorf("late fold rate %v, punctual %v: want within 10%%", l, p)
	}
	// And exactly: inst = 90 serves / 0.3 s, alpha = 0.3 / 2.3.
	want := (3 * perInterval / 0.3) * (0.3 / 2.3)
	if d := l - want; d < -1e-9 || d > 1e-9 {
		t.Errorf("late fold rate %v, want %v", l, want)
	}
}
