package press

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"press/cache"
	"press/cluster"
	"press/core"
	"press/netmodel"
	"press/server"
	"press/trace"
)

// parityTrace is 256 files of 1 KiB and a seeded uniform request
// stream over them. A file is never requested again within 16 requests
// of its first: the real cluster announces a disk read's caching change
// asynchronously, and a second request racing that announcement on
// another node would read the disk twice — real behaviour, but timing,
// not policy.
func parityTrace(requests int, seed int64) (tr *trace.Trace, distinct int) {
	const files = 256
	tr = &trace.Trace{Name: "parity"}
	for i := 0; i < files; i++ {
		tr.Files = append(tr.Files, trace.File{Name: fmt.Sprintf("/parity/%03d", i), Size: 1 << 10})
	}
	rng := rand.New(rand.NewSource(seed))
	firstAt := make(map[cache.FileID]int)
	for len(tr.Requests) < requests {
		id := cache.FileID(rng.Intn(files))
		at, seen := firstAt[id]
		if seen && len(tr.Requests)-at < 16 {
			continue
		}
		if !seen {
			firstAt[id] = len(tr.Requests)
		}
		tr.Requests = append(tr.Requests, id)
	}
	return tr, len(firstAt)
}

// TestSimRealParity is the simulator↔real side of the paper's triangle
// (model, simulator, server): the same trace through the simulator and
// through a real 4-node cluster over VIA V0, replication off, one
// closed-loop client, caches that never evict — once under PB over the
// replicated directory, once under SHARD. Both stacks run core.Policy
// and, sharded, core.ShardDir, so they must make the same decisions and
// pay the same messages for them.
//
// The sharded directory adds asynchrony the trace must not let matter: a
// disk read's caching change travels to the entry's owner as one
// directed message, and the owner's invalidations to its readers as
// one more each, while the next request is already being served. A
// re-request decides on the old entry only if it overtakes those two
// hops — but parityTrace never repeats a file within 16 requests, each a
// full HTTP round trip (or, simulated, a full request service time) on a
// single sequential client, against two intra-cluster messages of tens
// of microseconds that were sent before the first of the 16 began.
func TestSimRealParity(t *testing.T) {
	for _, strategy := range []core.Strategy{core.PB(), core.Sharded()} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) { simRealParity(t, strategy) })
	}
}

func simRealParity(t *testing.T, strategy core.Strategy) {
	const (
		nodes    = 4
		requests = 4000
		seed     = 11
	)
	tr, distinct := parityTrace(requests, seed)
	v0 := netmodel.Versions()[0]

	sim, err := cluster.Run(cluster.Config{
		Nodes: nodes, Trace: tr, Combo: netmodel.VIAOverCLAN(), Version: v0,
		Dissemination: strategy, Seed: seed, CacheBytes: 64 << 20,
		NoPrewarm: true, WarmupRequests: -1, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	cl, err := server.Start(server.Config{
		Nodes: nodes, Trace: tr, Transport: server.TransportVIA, Version: v0,
		Dissemination: strategy, CacheBytes: 64 << 20, DiskDelay: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The simulator draws each request's initial node from
	// rand.NewSource(Seed); so does this driver.
	rng := rand.New(rand.NewSource(seed))
	for _, id := range tr.Requests {
		if _, err := server.Fetch(cl.URL(rng.Intn(nodes)), tr.Files[id].Name); err != nil {
			t.Fatal(err)
		}
	}
	real := cl.Stats()

	if sim.Requests != requests || real.Nodes.Requests != requests {
		t.Fatalf("requests: sim %d, real %d, want %d", sim.Requests, real.Nodes.Requests, requests)
	}
	// Nothing evicts and every first request is served from the initial
	// node's disk, so each file is read exactly once. No tolerance.
	if sim.DiskReads != int64(distinct) || real.Nodes.DiskReads != int64(distinct) {
		t.Errorf("disk reads: sim %d, real %d, want %d (distinct files)", sim.DiskReads, real.Nodes.DiskReads, distinct)
	}

	// Everything else follows from where requests land. A request for a
	// cached file is forwarded unless it lands on the cacher: p = 3/4 at
	// four nodes, so over n = 3744 repeat requests the forwarded count is
	// binomial with a relative standard deviation of sqrt((1-p)/(p·n)) =
	// 0.9 %. Two stacks drawing initial nodes independently would differ
	// by √2 of that; 10 % is more than seven such deviations, and leaves
	// room for the per-request message counts, which are the forwarded
	// fraction again (one Forward, one 1-KiB File per forward) or
	// seed-independent (one Caching broadcast of N-1 messages per disk
	// read). With the draws shared, as here, the stacks should in fact
	// agree far closer; the bound is what holds if that coupling is lost.
	const tolerance = 0.10
	perReq := func(n int64) float64 { return float64(n) / requests }
	types := []core.MsgType{core.MsgForward, core.MsgFile, core.MsgCaching}
	if strategy.Dir == core.DirSharded {
		// One directed Caching per disk read not on the entry's owner, a
		// DirLookup/DirReply pair per decision without a valid read copy,
		// a DirInval per reader an owner's change finds registered.
		types = append(types, core.MsgDirLookup, core.MsgDirReply, core.MsgDirInval)
	}
	check := func(what string, sim, real float64) {
		t.Logf("%-22s sim %.4f  real %.4f", what, sim, real)
		if sim == 0 || math.Abs(real-sim)/sim > tolerance {
			t.Errorf("%s: sim %.4f, real %.4f, apart by more than %.0f%%", what, sim, real, 100*tolerance)
		}
	}
	check("forwarded fraction", sim.ForwardedFraction, perReq(real.Nodes.Forwarded))
	for _, mt := range types {
		check(mt.String()+" msgs/request", perReq(sim.Msgs.Count[mt]), perReq(real.Msgs.Count[mt]))
	}
}
