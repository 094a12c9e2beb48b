package cluster

import (
	"testing"

	"press/cache"
	"press/core"
	"press/trace"
)

// hotTrace synthesizes a strongly head-skewed workload: a 1.8 Zipf
// exponent concentrates most requests on a handful of files, the
// single-cacher regime the replication policy exists for.
func hotTrace(t testing.TB, requests int) *trace.Trace {
	t.Helper()
	tr, err := trace.Synthesize(trace.Spec{
		Name: "hot", NumFiles: 800, AvgFileKB: 14.2, Alpha: 1.8,
		NumRequests: requests, AvgReqKB: 9.7, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSimReplicationActivity checks the simulator's hot-object
// replication model end to end on a hotspot workload: the policy
// triggers (pushes happen), the run completes the same request count as
// the unreplicated baseline, and spreading the head across replicas
// takes disk pressure off the system — the baseline's overload-driven
// disk re-reads of hot files are replaced by cache-to-cache copies.
func TestSimReplicationActivity(t *testing.T) {
	tr := hotTrace(t, 20000)

	// Both arms start from unreplicated caches (no static head prewarm):
	// the point of comparison is what the dynamic policy does about the
	// single-cacher hotspot, so the baseline must actually have one.
	base := baseConfig(tr)
	base.ReplicationFraction = -1

	off, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if off.ReplicaPushes != 0 || off.ReplicaDrops != 0 {
		t.Fatalf("replication disabled but pushes=%d drops=%d",
			off.ReplicaPushes, off.ReplicaDrops)
	}

	cfg := base
	cfg.Replication = core.ReplicationConfig{Enabled: true}
	on, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Requests != off.Requests {
		t.Fatalf("replicated run measured %d requests, baseline %d",
			on.Requests, off.Requests)
	}
	if on.ReplicaPushes == 0 {
		t.Error("hotspot workload triggered no replica pushes")
	}
	if on.Throughput <= 0 {
		t.Fatalf("throughput = %v", on.Throughput)
	}
	if on.DiskReads >= off.DiskReads {
		t.Errorf("replication did not reduce disk reads: on %d, off %d",
			on.DiskReads, off.DiskReads)
	}
}

// TestSimReplicationDeterministic: two identical replicated runs agree
// exactly — the replication model rides the simulator clock, not wall
// time.
func TestSimReplicationDeterministic(t *testing.T) {
	tr := hotTrace(t, 20000)
	cfg := baseConfig(tr)
	cfg.ReplicationFraction = -1
	cfg.Replication = core.ReplicationConfig{Enabled: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.ReplicaPushes != b.ReplicaPushes ||
		a.ReplicaDrops != b.ReplicaDrops || a.DiskReads != b.DiskReads {
		t.Errorf("replicated runs diverged: %+v vs %+v", a, b)
	}
}

// replState is a two-node simulated cluster with replication on and
// room for three files per cache, for driving the replication model's
// transitions one at a time.
func replState(t *testing.T) *simState {
	t.Helper()
	cfg := baseConfig(hotTrace(t, 100))
	cfg.Nodes = 2
	cfg.Replication = core.ReplicationConfig{Enabled: true}
	var maxSize int64
	for _, f := range cfg.Trace.Files[:5] {
		if f.Size > maxSize {
			maxSize = f.Size
		}
	}
	cfg.CacheBytes = 3 * maxSize
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return newSimState(cfg)
}

// TestSimReplicationSeedsFreshReplica: a freshly installed replica's
// rate starts at the trigger threshold, as on the server, so the first
// scans after its cooldown do not read it as cold and drop it before
// routing has sent it any traffic.
func TestSimReplicationSeedsFreshReplica(t *testing.T) {
	s := replState(t)
	rc := s.cfg.Replication
	s.cacheInsert(0, 0, s.cfg.Trace.Files[0].Size) // the original
	s.replInstall(1, 0, s.cfg.Trace.Files[0].Size)
	if !s.nodes[1].repl.Pulled(0) {
		t.Fatal("replica not installed")
	}
	if got := s.nodes[1].repl.Rate(0); got < rc.HotRate {
		t.Errorf("fresh replica's rate = %v, want the trigger threshold %v", got, rc.HotRate)
	}
	// One idle scan past the cooldown: the seeded rate has decayed by one
	// fold, nowhere near DecayRate, and the copy stays.
	s.sim.After(rc.Cooldown+rc.Interval, s.replScan)
	s.sim.Run()
	if !s.nodes[1].cache.Contains(0) {
		t.Error("replica dropped on the first scan after its cooldown")
	}
}

// TestSimReplicationEvictionClearsPulled: "pulled" marks the copy, not
// the file — once a disk read has pushed the replica out of the cache,
// a copy the node later reads from its own disk is an original, which
// de-replication must not drop.
func TestSimReplicationEvictionClearsPulled(t *testing.T) {
	s := replState(t)
	files := s.cfg.Trace.Files
	s.replInstall(1, 0, files[0].Size)
	if !s.nodes[1].repl.Pulled(0) {
		t.Fatal("replica not installed")
	}
	for id := 1; id < 5; id++ {
		s.readFromDisk(1, cache.FileID(id), files[id].Size, func() {})
	}
	s.sim.Run()
	if s.nodes[1].cache.Contains(0) {
		t.Fatal("setup: four disk reads did not evict the replica")
	}
	s.readFromDisk(1, 0, files[0].Size, func() {})
	s.sim.Run()
	if s.nodes[1].repl.Pulled(0) {
		t.Error("a copy read from disk after the replica was evicted is still marked pulled")
	}
}
