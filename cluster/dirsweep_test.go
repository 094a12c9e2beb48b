package cluster

import (
	"testing"

	"press/core"
)

// TestSimShardedDirectoryTraffic checks the sharded directory's message
// pattern against the replicated baseline on the same workload: lookups
// and replies flow (read caches start cold), caching updates are
// directed rather than broadcast, and the workload still completes.
func TestSimShardedDirectoryTraffic(t *testing.T) {
	tr := testTrace(t, 20000)
	repl, err := Run(baseConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(tr)
	cfg.Dissemination = core.Sharded()
	sh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Requests != repl.Requests {
		t.Fatalf("sharded run measured %d requests, replicated %d", sh.Requests, repl.Requests)
	}
	if sh.Msgs.Count[core.MsgDirLookup] == 0 || sh.Msgs.Count[core.MsgDirReply] == 0 {
		t.Errorf("sharded run sent no directory lookups/replies: %+v", sh.Msgs.Count)
	}
	// Every lookup is answered; the counts may differ by the handful of
	// exchanges straddling the measurement-window start.
	if lk, rp := sh.Msgs.Count[core.MsgDirLookup], sh.Msgs.Count[core.MsgDirReply]; rp < lk || rp > lk+lk/10 {
		t.Errorf("lookups %d vs replies %d; every lookup must be answered", lk, rp)
	}
	for _, mt := range []core.MsgType{core.MsgDirLookup, core.MsgDirReply, core.MsgDirInval} {
		if repl.Msgs.Count[mt] != 0 {
			t.Errorf("replicated run sent %d %s messages", repl.Msgs.Count[mt], mt)
		}
	}
	// Each caching change broadcasts to N-1 peers under replication but
	// goes to at most one owner under sharding.
	if repl.Msgs.Count[core.MsgCaching] > 0 &&
		sh.Msgs.Count[core.MsgCaching]*2 > repl.Msgs.Count[core.MsgCaching] {
		t.Errorf("sharded caching traffic %d not well below replicated %d",
			sh.Msgs.Count[core.MsgCaching], repl.Msgs.Count[core.MsgCaching])
	}
	if sh.Throughput <= 0 {
		t.Fatalf("throughput = %v", sh.Throughput)
	}
}

// TestSimShardedScalesBetterThanBroadcast runs cold caches (no prewarm)
// at two cluster sizes: total caching-broadcast traffic per request must
// grow much faster for the replicated directory than directed sharded
// updates do.
func TestSimShardedScalesBetterThanBroadcast(t *testing.T) {
	tr := testTrace(t, 12000)
	perReq := func(n int, s core.Strategy) float64 {
		cfg := baseConfig(tr)
		cfg.Nodes = n
		cfg.Dissemination = s
		cfg.NoPrewarm = true
		cfg.WarmupRequests = -1
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := r.Msgs.Count[core.MsgCaching] + r.Msgs.Count[core.MsgDirLookup] +
			r.Msgs.Count[core.MsgDirReply] + r.Msgs.Count[core.MsgDirInval]
		if r.Requests == 0 {
			t.Fatal("no measured requests")
		}
		return float64(dir) / float64(r.Requests)
	}
	growthPB := perReq(32, core.PB()) / perReq(8, core.PB())
	growthSh := perReq(32, core.Sharded()) / perReq(8, core.Sharded())
	// 4x the nodes: broadcast traffic per change grows ~4x; sharded
	// lookups/updates stay per-request bounded.
	if growthSh >= growthPB {
		t.Errorf("sharded directory traffic grew %.2fx from 8 to 32 nodes, broadcast %.2fx",
			growthSh, growthPB)
	}
	if growthPB < 2 {
		t.Errorf("broadcast directory traffic grew only %.2fx from 8 to 32 nodes", growthPB)
	}
}
