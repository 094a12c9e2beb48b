package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"press/cache"
	"press/loadgen"
	"press/trace"
)

func TestOverloadConfigDefaults(t *testing.T) {
	const failover = 6 * time.Second
	rows := []struct {
		name    string
		in      OverloadConfig
		timeout time.Duration // the RequestTimeout withDefaults settles on
		bad     bool
	}{
		{name: "zero value", timeout: 2 * failover},
		{name: "explicit timeout kept", in: OverloadConfig{RequestTimeout: time.Second}, timeout: time.Second},
		{name: "negative queue limit", in: OverloadConfig{AcceptQueue: -1}, bad: true},
		{name: "negative timeout", in: OverloadConfig{RequestTimeout: -time.Second}, bad: true},
	}
	for _, row := range rows {
		c, err := row.in.withDefaults(failover)
		if row.bad {
			if err == nil {
				t.Errorf("%s: accepted", row.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if c.AcceptQueue != 128 || c.DiskQueue != 256 {
			t.Errorf("%s: queue defaults: %+v", row.name, c)
		}
		if c.RequestTimeout != row.timeout {
			t.Errorf("%s: RequestTimeout %v, want %v", row.name, c.RequestTimeout, row.timeout)
		}
		if c.BrownoutOutstanding != 64 || c.BrownoutProbeInterval != 200*time.Millisecond {
			t.Errorf("%s: brownout defaults: %+v", row.name, c)
		}
	}
	// The derived default leaves room for one failover: twice the
	// health defaults' FailoverTimeout (4 × DeadAfter 1.5 s).
	cfg, err := (&Config{Nodes: 1, Trace: sizedTrace(1 << 10)}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Overload.RequestTimeout; got != 12*time.Second || got != 2*cfg.Health.FailoverTimeout {
		t.Errorf("default RequestTimeout %v with FailoverTimeout %v, want 12s and twice it", got, cfg.Health.FailoverTimeout)
	}
}

// overloadTestConfig is a deliberately slow 8-node TCP cluster: two
// disk threads, 80 ms per read, and a cache too small to absorb the file
// population, so saturation sits at a couple hundred requests per
// second — far under what the open-loop driver offers. Heartbeats are an
// hour apart to keep failure detection out of a test about overload.
func overloadTestConfig(tr *trace.Trace) Config {
	return Config{
		Nodes:      8,
		Trace:      tr,
		Transport:  TransportTCP,
		CacheBytes: 16 << 10,
		DiskDelay:  80 * time.Millisecond,
		Health:     HealthConfig{HeartbeatInterval: time.Hour},
	}
}

// overloadDrive offers the trace's requests to cl at a Poisson rate
// past saturation for the run, with the given client timeout, through
// the open-loop generator; sample, when non-nil, runs every 25 ms from
// its own goroutine until the run ends (queue inspections).
func overloadDrive(t *testing.T, cl *Cluster, tr *trace.Trace, timeout time.Duration, sample func()) *loadgen.Result {
	t.Helper()
	targets := make([]string, len(cl.Addrs()))
	for i := range targets {
		targets[i] = cl.URL(i)
	}
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if sample != nil {
					sample()
				}
			}
		}
	}()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:  targets,
		Trace:    tr,
		Rate:     1200, // req/s; saturation is in the 400-500 range
		Duration: 2500 * time.Millisecond,
		Timeout:  timeout,
		Seed:     11,
	})
	close(done)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOverloadGoodputUnderSaturation is the acceptance scenario: an
// 8-node cluster is offered roughly twice its saturation rate by the
// open-loop generator, once with overload control configured out of the
// way and once tuned to a deadline. Tuned, excess arrivals get prompt
// 503s, nothing is served past its deadline, the bounded queues never
// exceed their limits, and goodput beats the baseline at the same
// offered load.
func TestOverloadGoodputUnderSaturation(t *testing.T) {
	tr := serverTestTrace(t, 64)
	const reqDeadline = 500 * time.Millisecond

	// Baseline: queues deeper than the run's whole excess over
	// saturation (about 1 900 requests, 240 a node) and a deadline that
	// never comes. The client's own timeout stands in for the deadline,
	// so "goodput" means the same thing in both runs: answered within
	// reqDeadline of arrival.
	cfg := overloadTestConfig(tr)
	cfg.Overload = OverloadConfig{AcceptQueue: 4096, DiskQueue: 4096, RequestTimeout: time.Hour}
	base, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseRes := overloadDrive(t, base, tr, reqDeadline, nil)
	base.Close()
	baseOK := baseRes.Requests - baseRes.Errors
	t.Logf("baseline: issued %d ok %d shed %d errs %d", baseRes.Requests, baseOK, baseRes.ErrShed, baseRes.Errors)
	if baseRes.ErrShed != 0 {
		t.Errorf("baseline cluster shed %d requests with overload control out of the way", baseRes.ErrShed)
	}

	// Controlled: shallow queues and a propagated deadline. The client
	// timeout is generous so anything the cluster served late would be
	// visible as a success with a too-large latency.
	cfg = overloadTestConfig(tr)
	cfg.Overload = OverloadConfig{
		AcceptQueue:         8,
		DiskQueue:           4,
		RequestTimeout:      reqDeadline,
		BrownoutOutstanding: -1, // brownout has its own test; keep routing stable here
	}
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var violations []string // the sampler's, read once it has stopped
	sample := func() {
		for i, n := range cl.Nodes() {
			if l := len(n.httpCh); l > cfg.Overload.AcceptQueue {
				violations = append(violations, fmt.Sprintf("node %d accept queue %d > %d", i, l, cfg.Overload.AcceptQueue))
			}
			if l := len(n.diskQ); l > cfg.Overload.DiskQueue {
				violations = append(violations, fmt.Sprintf("node %d disk queue %d > %d", i, l, cfg.Overload.DiskQueue))
			}
			if l := len(n.sendQ); l > dispatchQueueLimit {
				violations = append(violations, fmt.Sprintf("node %d send queue %d > %d", i, l, dispatchQueueLimit))
			}
		}
	}
	ctlRes := overloadDrive(t, cl, tr, 4*reqDeadline, sample)
	ctlOK := ctlRes.Requests - ctlRes.Errors
	maxLatency := time.Duration(ctlRes.LatencyMax * float64(time.Second))
	st := cl.Stats()
	t.Logf("controlled: issued %d ok %d shed %d errs %d maxLat %v; server shed %d expired %d goodput %d",
		ctlRes.Requests, ctlOK, ctlRes.ErrShed, ctlRes.Errors, maxLatency, st.Nodes.Shed, st.Nodes.DeadlineExpired, st.Nodes.Goodput)

	for _, v := range violations {
		t.Errorf("queue bound violated: %s", v)
	}
	if ctlRes.ErrShed == 0 {
		t.Error("no prompt 503s at twice the saturation rate")
	}
	if st.Nodes.Shed == 0 {
		t.Error("server counted no sheds")
	}
	// Zero served after deadline: the slack covers client-side transfer
	// and scheduling, not server-side serving — a request served a full
	// deadline late would stand out well past it.
	if slack := 700 * time.Millisecond; maxLatency > reqDeadline+slack {
		t.Errorf("a request was served %v after arrival; deadline is %v", maxLatency, reqDeadline)
	}
	if ctlOK > st.Nodes.Goodput {
		t.Errorf("client saw %d successes but the cluster booked only %d as goodput", ctlOK, st.Nodes.Goodput)
	}
	// The point of the exercise: bounded queues + deadlines beat the
	// baseline on within-deadline answers at the same offered load.
	if ctlOK <= baseOK {
		t.Errorf("goodput with overload control (%d) does not beat the baseline (%d)", ctlOK, baseOK)
	}
}

// TestBrownoutSlowPeer injects a gray failure — a peer that is slow but
// alive — into a 4-node VIA cluster and verifies the brownout path: the
// origin stops forwarding to the slowed peer (bar a probe trickle),
// keeps the peer's directory entries, answers from elsewhere, and
// resumes forwarding once the peer speeds back up.
func TestBrownoutSlowPeer(t *testing.T) {
	const nodes = 4
	const victim = 2
	// A file population several times the per-node cache: node 0 cannot
	// absorb the victim's files into its own cache while routing around
	// it, so its policy keeps choosing the victim and the probe trickle
	// has traffic to ride on (recovery needs refreshed latency samples).
	tr := serverTestTrace(t, 8*nodes)
	cfg := Config{
		Nodes:      nodes,
		Trace:      tr,
		Transport:  TransportVIA,
		CacheBytes: 24 << 10,
		DiskDelay:  100 * time.Microsecond,
		Health: HealthConfig{
			// Generous dead/failover thresholds: the victim is SLOW, not
			// dead, and must never cross into the health tracker's verdicts.
			HeartbeatInterval: 100 * time.Millisecond,
			SuspectAfter:      2 * time.Second,
			DeadAfter:         4 * time.Second,
			FailoverTimeout:   6 * time.Second,
		},
		Overload: OverloadConfig{
			RequestTimeout:        10 * time.Second, // deadlines out of the picture
			BrownoutLatency:       40 * time.Millisecond,
			BrownoutOutstanding:   -1, // isolate the latency signal
			BrownoutProbeInterval: 150 * time.Millisecond,
		},
	}
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Warm up: file i lands in node (i mod nodes)'s cache and the
	// caching broadcast tells every peer, so requests for the victim's
	// files arriving at node 0 get forwarded to the victim.
	for i, f := range tr.Files {
		if _, err := Fetch(cl.URL(i%nodes), f.Name); err != nil {
			t.Fatalf("warmup %s: %v", f.Name, err)
		}
	}
	var victimFiles []string
	var victimIDs []cache.FileID
	for i, f := range tr.Files {
		if i%nodes == victim {
			victimFiles = append(victimFiles, f.Name)
			victimIDs = append(victimIDs, cache.FileID(i))
		}
	}
	origin := cl.Nodes()[0]
	vnode := cl.Nodes()[victim]

	// Drive the victim's files through node 0 for the whole scenario.
	stopDrive := make(chan struct{})
	var driveWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		driveWG.Add(1)
		go func(w int) {
			defer driveWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopDrive:
					return
				default:
				}
				_, _ = Fetch(cl.URL(0), victimFiles[(w+i)%len(victimFiles)])
			}
		}(w)
	}
	defer func() { close(stopDrive); driveWG.Wait() }()

	// Sanity: forwards flow to the victim while it is healthy.
	before := vnode.Stats().RemoteHits
	waitFor(t, 5*time.Second, "forwards to reach the healthy victim", func() bool {
		return vnode.Stats().RemoteHits > before
	})
	if origin.PeerBrownedOut(victim) {
		t.Fatal("victim browned out while healthy")
	}

	// Gray failure: +250 ms on every fabric transfer touching the victim.
	if err := cl.SlowNode(victim, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "origin to brown the slow victim out", func() bool {
		return origin.PeerBrownedOut(victim)
	})
	if got := origin.PeerState(victim); got != StateAlive {
		t.Errorf("victim health state %v while browned out; brownout must be distinct from dead", got)
	}

	// While browned out, the victim sees at most the probe trickle. The
	// window opens after a settle pause so pre-brownout in-flight
	// forwards (riding the slowed fabric) drain out of the count.
	time.Sleep(600 * time.Millisecond)
	win := 600 * time.Millisecond
	startHits := vnode.Stats().RemoteHits
	time.Sleep(win)
	probeHits := vnode.Stats().RemoteHits - startHits
	maxProbes := int64(win/cfg.Overload.BrownoutProbeInterval) + 3
	if probeHits > maxProbes {
		t.Errorf("browned-out victim served %d forwards in %v; want at most the probe trickle (~%d)", probeHits, win, maxProbes)
	}
	// The clients never stopped being served: node 0 routed around the
	// victim (no other cacher exists, so it went to its own disk/cache).
	if _, err := Fetch(cl.URL(0), victimFiles[0]); err != nil {
		t.Errorf("request for a browned-out peer's file failed: %v", err)
	}

	// Brownout must not purge directory state: the origin still lists
	// the victim as a cacher (the LRUs churn, so not every file — but a
	// dead-style purge would leave zero entries).
	entries := onMainLoop(t, origin, func() int {
		entries := 0
		for _, id := range victimIDs {
			if origin.dir.Cachers(id).Has(victim) {
				entries++
			}
		}
		return entries
	})
	if entries == 0 {
		t.Error("directory entries for the browned-out victim were purged")
	}

	// Recovery: heal the fabric; the probe trickle refreshes the EWMA
	// below the hysteresis threshold and forwards resume.
	if err := cl.SlowNode(victim, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "brownout to lift after heal", func() bool {
		return !origin.PeerBrownedOut(victim)
	})
	resumeStart := vnode.Stats().RemoteHits
	waitFor(t, 10*time.Second, "forwards to resume after recovery", func() bool {
		return vnode.Stats().RemoteHits > resumeStart+3
	})
}
