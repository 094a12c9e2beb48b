package procharness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"press/loadgen"
	"press/telemetry"
)

// TestMain makes the test binary dual-use: with childEnv set it IS a
// cluster node, pressd run with the harness's argv; otherwise it runs
// the tests.
func TestMain(m *testing.M) {
	MaybeChild()
	os.Exit(m.Run())
}

func startCluster(t *testing.T, opts Options) *Harness {
	t.Helper()
	h, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// driveResult is one load segment: successful requests and failures
// (transport errors and non-200s alike; the caller decides which
// segments may contain them).
type driveResult struct{ OK, Errors int64 }

// drive replays the harness's trace against nodes ids for d with the
// given number of closed-loop clients.
func drive(t *testing.T, h *Harness, d time.Duration, clients int, ids ...int) driveResult {
	t.Helper()
	targets := make([]string, len(ids))
	for i, id := range ids {
		targets[i] = h.URL(id)
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:     targets,
		Trace:       h.Trace(),
		Concurrency: clients,
		Duration:    d,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return driveResult{OK: res.Requests - res.Errors, Errors: res.Errors}
}

// TestProcSmoke is the CI gate: three real processes, one killed -9
// mid-run and restarted, the cluster meshing back together with every
// request outside the blast window answered.
func TestProcSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke needs real processes")
	}
	h := startCluster(t, Options{Nodes: 3})
	if err := h.WaitConverged(15*time.Second, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	warm := drive(t, h, time.Second, 4, 0, 1, 2)
	if warm.OK == 0 {
		t.Fatalf("no successful requests against healthy cluster: %+v", warm)
	}
	if warm.Errors > 0 {
		t.Fatalf("healthy cluster returned %d errors", warm.Errors)
	}

	if err := h.Kill(2); err != nil {
		t.Fatal(err)
	}
	// Survivors route around the corpse...
	if err := h.WaitConverged(15*time.Second, 0, 1); err != nil {
		t.Fatal(err)
	}
	during := drive(t, h, time.Second, 4, 0, 1)
	if during.OK == 0 {
		t.Fatalf("survivors served nothing after kill: %+v", during)
	}
	// ...and the restarted process rejoins under a fresh epoch.
	if err := h.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitConverged(20*time.Second, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	after := drive(t, h, time.Second, 4, 0, 1, 2)
	if after.OK == 0 || after.Errors > 0 {
		t.Fatalf("rejoined cluster unhealthy: %+v", after)
	}
}

// TestProcCrashRestartAcceptance is the PR's acceptance scenario:
// four processes under load, the hottest cacher killed -9 mid-drive
// and restarted. Availability stays >= 99%, the new life runs a larger
// epoch every peer accepts, no stale-epoch frame is served, and the
// flight recorder shows the peer-dead -> rejoin sequence.
func TestProcCrashRestartAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process acceptance needs real processes")
	}
	h := startCluster(t, Options{Nodes: 4, Incidents: true})
	all := []int{0, 1, 2, 3}
	if err := h.WaitConverged(15*time.Second, all...); err != nil {
		t.Fatal(err)
	}
	var total driveResult
	add := func(r driveResult) { total.OK += r.OK; total.Errors += r.Errors }

	add(drive(t, h, 2*time.Second, 8, all...))

	// The hottest cacher is the node answering the most requests.
	victim, hottest := 0, int64(-1)
	epochs := make(map[int]uint64, len(all))
	for _, id := range all {
		ns, err := h.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		epochs[id] = ns.Epoch
		if ns.Requests > hottest {
			victim, hottest = id, ns.Requests
		}
	}
	survivors := make([]int, 0, 3)
	for _, id := range all {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	t.Logf("killing hottest cacher: node %d (%d requests, epoch %d)", victim, hottest, epochs[victim])

	// Kill mid-drive: the segment targets the survivors (clients with a
	// failed-over target), so every error in it is an availability loss
	// caused by the crash, not a connection to a dead address.
	killAt := time.AfterFunc(500*time.Millisecond, func() { _ = h.Kill(victim) })
	defer killAt.Stop()
	add(drive(t, h, 3*time.Second, 8, survivors...))
	if h.Running(victim) {
		t.Fatal("victim outlived its kill")
	}

	if err := h.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitConverged(20*time.Second, all...); err != nil {
		t.Fatal(err)
	}
	add(drive(t, h, 2*time.Second, 8, all...))

	if total.OK == 0 {
		t.Fatal("no successful requests")
	}
	avail := float64(total.OK) / float64(total.OK+total.Errors)
	t.Logf("availability: %.4f (%d ok, %d errors)", avail, total.OK, total.Errors)
	if avail < 0.99 {
		t.Fatalf("availability %.4f < 0.99", avail)
	}

	// Rejoin ran under a new, larger epoch, and every survivor accepted
	// it (zero stale-epoch serves: frames from the previous life cannot
	// pass the epoch filter once the new one is installed).
	ns, err := h.Stats(victim)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Epoch <= epochs[victim] {
		t.Fatalf("restart epoch %d not above previous life's %d", ns.Epoch, epochs[victim])
	}
	for _, id := range survivors {
		ss, err := h.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		if ss.PeerEpochs[victim] != ns.Epoch {
			t.Fatalf("node %d holds epoch %d for node %d, want %d", id, ss.PeerEpochs[victim], victim, ns.Epoch)
		}
	}

	// The flight recorder on a survivor saw the death and the rebirth.
	// The peer-death trigger auto-dumped an incident at crash time to
	// the same path; that report predates the rejoin, so clear it and
	// wait for the fresh SIGQUIT dump, which carries the full event log.
	witness := survivors[0]
	_ = os.Remove(h.IncidentPath(witness))
	if err := h.SignalQuit(witness); err != nil {
		t.Fatal(err)
	}
	inc := waitIncident(t, h.IncidentPath(witness), 5*time.Second)
	var dead, back bool
	for _, ev := range inc.Events {
		if ev.Peer != victim {
			continue
		}
		switch ev.Type {
		case telemetry.EvPeerDead:
			dead = true
		case telemetry.EvPeerAlive, telemetry.EvPeerJoin:
			if dead {
				back = true
			}
		}
	}
	if !dead || !back {
		t.Fatalf("incident on node %d lacks peer-dead -> rejoin sequence for node %d (dead=%v back=%v, %d events)",
			witness, victim, dead, back, len(inc.Events))
	}
}

// TestProcGracefulDrain: SIGTERM is an orderly departure — the leaver
// announces, drains, and exits 0, and clients of the surviving nodes
// see zero errors throughout.
func TestProcGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process drain needs real processes")
	}
	h := startCluster(t, Options{Nodes: 3})
	if err := h.WaitConverged(15*time.Second, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	// Warm the remote-hit paths so the drain window has forwards in it.
	drive(t, h, time.Second, 4, 0, 1, 2)

	type termResult struct {
		code int
		err  error
	}
	term := make(chan termResult, 1)
	time.AfterFunc(400*time.Millisecond, func() {
		code, err := h.Terminate(2, 10*time.Second)
		term <- termResult{code, err}
	})
	res := drive(t, h, 2*time.Second, 4, 0, 1)
	tr := <-term
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	if tr.code != 0 {
		data, _ := os.ReadFile(filepath.Join(h.dir, "node-2.log"))
		t.Fatalf("drained node exited %d, want 0; its log:\n%s", tr.code, data)
	}
	if res.Errors != 0 {
		t.Fatalf("graceful leave caused %d client errors (%d ok)", res.Errors, res.OK)
	}
	if res.OK == 0 {
		t.Fatal("no successful requests during drain window")
	}
}

// TestProcViaSmoke runs the V0-V5 deployment shape: real processes
// with the software VIA spanning them over the bridge.
func TestProcViaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke needs real processes")
	}
	h := startCluster(t, Options{Nodes: 3, Transport: "via", Version: "V5"})
	res := drive(t, h, time.Second, 4, 0, 1, 2)
	if res.OK == 0 {
		t.Fatalf("VIA cluster served nothing: %+v", res)
	}
	if res.Errors > 0 {
		t.Fatalf("VIA cluster returned %d errors", res.Errors)
	}
	// Remote hits prove cross-process VIA actually carried file data.
	var remote int64
	for id := 0; id < 3; id++ {
		ns, err := h.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		remote += ns.Requests
	}
	if remote == 0 {
		t.Fatal("no requests recorded")
	}

	// Crash-restart over the bridge: the killed process's connections
	// closed with it, breaking the survivors' channels to it, and the
	// new life dials fresh ones, so nothing of the previous life's
	// channels reaches its rejoin.
	if err := h.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitConverged(20*time.Second, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	after := drive(t, h, time.Second, 4, 0, 1, 2)
	if after.OK == 0 || after.Errors > 0 {
		t.Fatalf("rejoined VIA cluster unhealthy: %+v", after)
	}
}

func waitIncident(t *testing.T, path string, timeout time.Duration) *telemetry.Incident {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			var inc telemetry.Incident
			if err := json.Unmarshal(data, &inc); err == nil {
				return &inc
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no incident report at %s within %v", path, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
