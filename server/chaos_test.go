package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"press/core"
	"press/metrics"
	"press/netmodel"
	"press/trace"
)

// chaosHealth is a fast failure-detection config for tests: a dead
// verdict well under a second of silence, failover of overdue replies
// at 1.5s — all far under the 30s client timeout, so a hung request is
// loudly visible as a slow one. The thresholds carry headroom for the
// race detector's slowdown on a loaded single-core box; tighter values
// flap under -race and the reconnect churn never converges.
func chaosHealth() HealthConfig {
	return HealthConfig{
		HeartbeatInterval: 100 * time.Millisecond,
		SuspectAfter:      300 * time.Millisecond,
		DeadAfter:         600 * time.Millisecond,
		FailoverTimeout:   1500 * time.Millisecond,
		ProbeCap:          600 * time.Millisecond,
	}
}

func chaosClusterConfig(t *testing.T, nodes int) (Config, *trace.Trace, *metrics.Registry) {
	t.Helper()
	tr := serverTestTrace(t, 4*nodes)
	v5, err := netmodel.VersionByName("V5")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := Config{
		Nodes:      nodes,
		Trace:      tr,
		Transport:  TransportVIA,
		Version:    v5,
		CacheBytes: 1 << 20,
		DiskDelay:  100 * time.Microsecond,
		Health:     chaosHealth(),
		Metrics:    reg,
	}
	return cfg, tr, reg
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitQuiet waits until count stops moving: two reads 20 ms apart agree.
func waitQuiet(t *testing.T, what string, count func() int64) {
	t.Helper()
	last := count()
	waitFor(t, 5*time.Second, what, func() bool {
		time.Sleep(20 * time.Millisecond)
		now := count()
		quiet := now == last
		last = now
		return quiet
	})
}

// TestChaosPartitionFailover is the acceptance scenario: an 8-node VIA
// cluster under client load has one node partitioned away mid-run.
// Every request must complete within the failover machinery's deadlines
// (no request rides out the 30s client timeout), the dead node must
// leave every survivor's caching view, and after the heal it must
// rejoin and serve remote hits again.
func TestChaosPartitionFailover(t *testing.T) {
	const nodes = 8
	const victim = 5
	cfg, tr, reg := chaosClusterConfig(t, nodes)
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// press_reconnects_total counts channels that replace an earlier one:
	// the initial mesh, dialed by the same Reconnect, replaces none.
	reconnects := func(i int) int64 {
		return reg.Counter("press_reconnects_total", fmt.Sprintf("node=%d", i)).Value()
	}
	for i := 0; i < nodes; i++ {
		if got := reconnects(i); got != 0 {
			t.Fatalf("node %d: press_reconnects_total %d after Start, want 0", i, got)
		}
	}

	// Warm the caches: each node loads its own slice of the files, so
	// the victim holds content the others will want forwarded.
	for i, f := range tr.Files {
		if _, err := Fetch(cl.URL(i%nodes), f.Name); err != nil {
			t.Fatalf("warmup %s: %v", f.Name, err)
		}
	}

	// Client load across all nodes for the whole scenario.
	type result struct {
		err     error
		elapsed time.Duration
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
	)
	// The warmup cached file i on node i%nodes, so the victim's files are
	// the ones whose index hits it. Half the workers hammer exactly those
	// files through other nodes — a steady stream of forwards to the
	// victim, so pendings are in flight when the partition lands and the
	// failover machinery (not just dispatch-time avoidance) is exercised.
	var victimFiles []string
	for i, f := range tr.Files {
		if i%nodes == victim {
			victimFiles = append(victimFiles, f.Name)
		}
	}
	stopLoad := make(chan struct{})
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				var name string
				var node int
				if w%2 == 0 {
					name = victimFiles[rng.Intn(len(victimFiles))]
					if node = rng.Intn(nodes - 1); node >= victim {
						node++
					}
				} else {
					name = tr.Files[rng.Intn(len(tr.Files))].Name
					node = rng.Intn(nodes)
				}
				start := time.Now()
				_, err := Fetch(cl.URL(node), name)
				mu.Lock()
				results = append(results, result{err: err, elapsed: time.Since(start)})
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond) // load running against a healthy cluster

	if err := cl.PartitionNode(victim); err != nil {
		t.Fatal(err)
	}
	// Every survivor must declare the victim dead, and the victim — cut
	// off from everyone — must fall back to degraded local service.
	waitFor(t, 5*time.Second, "survivors to declare the victim dead", func() bool {
		for i, n := range cl.Nodes() {
			if i != victim && n.PeerState(victim) != StateDead {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "victim to degrade", func() bool {
		return cl.Nodes()[victim].Degraded()
	})
	// The victim's entries left the survivors' caching views.
	var purged int64
	for i := 0; i < nodes; i++ {
		purged += reg.Counter("press_dir_purged_total", fmt.Sprintf("node=%d", i)).Value()
	}
	if purged == 0 {
		t.Error("no directory entries purged for the dead node")
	}

	time.Sleep(400 * time.Millisecond) // load keeps running against the 7-node cluster

	remoteBeforeHeal := cl.Nodes()[victim].Stats().RemoteHits
	victimLabel := fmt.Sprintf("node=%d", victim)
	wakesBeforeHeal := reg.Counter("press_poll_wakes_total", victimLabel).Value()
	emptyBeforeHeal := reg.Counter("press_poll_empty_total", victimLabel).Value()
	if err := cl.HealNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "victim to rejoin", func() bool {
		for i, n := range cl.Nodes() {
			if i != victim && n.PeerState(victim) != StateAlive {
				return false
			}
			if i == victim && n.Degraded() {
				return false
			}
		}
		return true
	})
	if reconnects(victim) == 0 {
		t.Error("the healed node rejoined without replacing a channel")
	}
	// The healed node serves remote hits again: its cache survived the
	// partition and its re-announcements put it back in the directory.
	waitFor(t, 10*time.Second, "healed node to serve remote hits", func() bool {
		return cl.Nodes()[victim].Stats().RemoteHits > remoteBeforeHeal
	})
	// Those forwards reached it through rings that did not exist before
	// the heal: every reconnect swapped a fresh channel into the peer
	// table, and the poll thread — which looks only where it was told a
	// write landed — was told about each (promote kicks it).
	wakes := reg.Counter("press_poll_wakes_total", victimLabel).Value() - wakesBeforeHeal
	empty := reg.Counter("press_poll_empty_total", victimLabel).Value() - emptyBeforeHeal
	if wakes-empty <= 0 {
		t.Errorf("healed node's poll thread found nothing in its fresh rings (%d wakes, %d empty)", wakes, empty)
	}

	close(stopLoad)
	wg.Wait()

	// Zero hung requests: every request completed, successfully, and
	// well within the failover deadline — never the 30s client timeout.
	if len(results) == 0 {
		t.Fatal("no load results recorded")
	}
	var worst time.Duration
	for _, r := range results {
		if r.err != nil {
			t.Errorf("request failed: %v", r.err)
		}
		if r.elapsed > worst {
			worst = r.elapsed
		}
	}
	if worst >= 5*time.Second {
		t.Errorf("slowest request took %v; failover should bound it far below the client timeout", worst)
	}

	// Failovers actually happened and were counted.
	var failovers int64
	for i := 0; i < nodes; i++ {
		node := fmt.Sprintf("node=%d", i)
		for _, reason := range []string{failoverPeerDead, failoverSendError, failoverTimeout} {
			failovers += reg.Counter("press_failovers_total", node, "reason="+reason).Value()
		}
	}
	if failovers == 0 {
		t.Error("partition under load produced no failovers")
	}
}

// TestChaosCrashRestart crashes a node (links severed, memory wiped)
// and restarts it: the cluster routes around it, and after the restart
// it rejoins empty and re-learns the caching view.
func TestChaosCrashRestart(t *testing.T) {
	const nodes = 4
	const victim = 2
	cfg, tr, _ := chaosClusterConfig(t, nodes)
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
	if err := cl.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "crash detection", func() bool {
		return cl.Nodes()[0].PeerState(victim) == StateDead
	})
	// The cluster keeps serving without the crashed node.
	for _, f := range tr.Files[:8] {
		if _, err := Fetch(cl.URL(0), f.Name); err != nil {
			t.Errorf("fetch during crash: %v", err)
		}
	}
	if err := cl.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "restart re-integration", func() bool {
		for i, n := range cl.Nodes() {
			if i != victim && n.PeerState(victim) != StateAlive {
				return false
			}
		}
		return true
	})
	// The restarted node serves requests again (its cache is empty; it
	// reads from disk and re-announces).
	for _, f := range tr.Files[:8] {
		if _, err := Fetch(cl.URL(victim), f.Name); err != nil {
			t.Errorf("fetch after restart: %v", err)
		}
	}
}

// TestChaosFaultPlanReplay drives a deterministic RandomFaultPlan end
// to end through StartFaultPlan while load runs, then checks the
// cluster converged back to fully alive.
func TestChaosFaultPlanReplay(t *testing.T) {
	const nodes = 4
	cfg, tr, _ := chaosClusterConfig(t, nodes)
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i, f := range tr.Files {
		if _, err := Fetch(cl.URL(i%nodes), f.Name); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	plan := RandomFaultPlan(42, nodes, 600*time.Millisecond, 2)
	if len(plan.Events) != 4 {
		t.Fatalf("plan has %d events", len(plan.Events))
	}
	for _, ev := range plan.Events {
		if ev.Node == 0 {
			t.Fatalf("plan touches node 0: %+v", ev)
		}
	}
	var events []FaultEvent
	var evMu sync.Mutex
	done, err := cl.StartFaultPlan(plan, nil, func(ev FaultEvent, err error) {
		if err != nil {
			t.Errorf("fault %v node %d: %v", ev.Kind, ev.Node, err)
		}
		evMu.Lock()
		events = append(events, ev)
		evMu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stopLoad:
				return
			default:
			}
			f := tr.Files[rng.Intn(len(tr.Files))]
			// A crash event legitimately fails its in-flight requests;
			// the point here is that the replay itself is deterministic
			// and the cluster converges, so errors are tolerated.
			_, _ = Fetch(cl.URL(rng.Intn(nodes)), f.Name)
		}
	}()
	<-done
	close(stopLoad)
	wg.Wait()
	evMu.Lock()
	replayed := len(events)
	evMu.Unlock()
	if replayed != len(plan.Events) {
		t.Errorf("replayed %d of %d events", replayed, len(plan.Events))
	}
	waitFor(t, 10*time.Second, "cluster to converge alive", func() bool {
		for _, n := range cl.Nodes() {
			for p := 0; p < nodes; p++ {
				if n.PeerState(p) != StateAlive {
					return false
				}
			}
		}
		return true
	})
}

// TestChaosNeedsVIA: fault injection is a fabric feature; the TCP
// transport refuses it.
func TestChaosNeedsVIA(t *testing.T) {
	tr := serverTestTrace(t, 8)
	cfg := testClusterConfig(tr, TransportTCP)
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PartitionNode(1); err == nil {
		t.Error("PartitionNode succeeded on TCP")
	}
	if _, err := cl.StartFaultPlan(FaultPlan{}, nil, nil); err == nil {
		t.Error("StartFaultPlan succeeded on TCP")
	}
}

// TestFailoverPromoteKicksPoller pins the one reconnect interleaving in
// which only promote's kick stands between a fresh channel and silence:
// the re-dialing peer's setup frame is handled while the channel is
// still pending, so the kick it raises rebuilds the poll thread's view
// of a peer table that does not hold the channel yet. The promotion
// that follows must send the poll thread back to the table, or writes
// into the fresh rings ring a bell nobody maps to a peer.
func TestFailoverPromoteKicksPoller(t *testing.T) {
	vt, raw := newRawMesh(t, 1)
	// Node 1 of two dials nobody: its side of the mesh is the accept loop.
	if err := vt.connect(true); err != nil {
		t.Fatal(err)
	}
	first := raw.newVI()
	if err := first.Connect(fabricAddr(1), "press-1"); err != nil {
		t.Fatal(err)
	}
	raw.sendSetup(first)
	waitFor(t, 5*time.Second, "the accept loop to promote the raw peer's channel", func() bool {
		return vt.peer(0) != nil
	})
	old := vt.peer(0)
	raw.writeCtrl(first, old.inCtrl.region.Handle(), 1, &Message{Type: core.MsgLoad, From: 0, Load: 1})
	expectInbound(t, vt, 1)

	// The re-dial, by hand and in the unlucky order: connect a pending
	// channel, let its setup frame be handled, and only then promote it.
	ln, err := raw.nic.Listen("redial")
	if err != nil {
		t.Fatal(err)
	}
	second := raw.newVI()
	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept(second)
		accepted <- err
	}()
	p, err := vt.newPeer()
	if err != nil {
		t.Fatal(err)
	}
	p.id = 0
	vt.addPending(p)
	if err := p.vi.Connect(fabricAddr(0), "redial"); err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	wakes := vt.Metrics().PollWakes
	raw.sendSetup(second)
	select {
	case <-p.ready:
	case <-time.After(5 * time.Second):
		t.Fatal("setup frame on the pending channel never handled")
	}
	waitFor(t, 5*time.Second, "the poll thread to take the setup frame's kick", func() bool {
		return vt.Metrics().PollWakes > wakes
	})
	vt.promote(p)

	raw.writeCtrl(second, p.inCtrl.region.Handle(), 1, &Message{Type: core.MsgLoad, From: 0, Load: 2})
	expectInbound(t, vt, 2)
}
