package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"press/cache"
	"press/trace"
)

func TestOverloadConfigDefaults(t *testing.T) {
	c, err := OverloadConfig{Enabled: true}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.AcceptQueue != 128 || c.DispatchQueue != 1024 || c.DiskQueue != 256 {
		t.Errorf("queue defaults: %+v", c)
	}
	if c.RequestTimeout != 5*time.Second || c.RetryAfter != time.Second {
		t.Errorf("duration defaults: %+v", c)
	}
	if c.BrownoutOutstanding != 64 || c.BrownoutProbeInterval != 200*time.Millisecond {
		t.Errorf("brownout defaults: %+v", c)
	}
	// Disabled: the zero value passes through untouched.
	z, err := OverloadConfig{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if z != (OverloadConfig{}) {
		t.Errorf("disabled config gained defaults: %+v", z)
	}
	if _, err := (OverloadConfig{Enabled: true, AcceptQueue: -1}).withDefaults(); err == nil {
		t.Error("negative queue limit accepted")
	}
	if _, err := (OverloadConfig{Enabled: true, RequestTimeout: -time.Second}).withDefaults(); err == nil {
		t.Error("negative timeout accepted")
	}
}

// olStats is what the inline open-loop driver measured.
type olStats struct {
	issued, ok, shed, errs int
	maxLatency             time.Duration
}

// openLoopDrive offers GETs for the given names at a fixed Poisson rate
// across the targets for dur, regardless of how fast they complete —
// the only load shape that can hold a cluster past saturation. sample,
// when non-nil, runs every ~25 ms of the schedule (queue inspections).
func openLoopDrive(urls, names []string, rate float64, dur, timeout time.Duration,
	seed int64, sample func()) olStats {
	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 256,
			MaxIdleConns:        2048,
		},
	}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed))
	var (
		mu sync.Mutex
		st olStats
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	next := start
	lastSample := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		if sample != nil && time.Since(lastSample) > 25*time.Millisecond {
			lastSample = time.Now()
			sample()
		}
		url := urls[rng.Intn(len(urls))] + names[rng.Intn(len(names))]
		st.issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Get(url)
			if err != nil {
				mu.Lock()
				st.errs++
				mu.Unlock()
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lat := time.Since(t0)
			mu.Lock()
			switch resp.StatusCode {
			case http.StatusOK:
				st.ok++
				if lat > st.maxLatency {
					st.maxLatency = lat
				}
			case http.StatusServiceUnavailable:
				st.shed++
			default:
				st.errs++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return st
}

// overloadTestConfig is a deliberately slow 8-node TCP cluster: one
// disk thread, 40 ms per read, and a cache too small to absorb the file
// population, so saturation sits at a couple hundred requests per
// second — far under what the open-loop driver offers. Heartbeats are an
// hour apart to keep failure detection out of a test about overload.
func overloadTestConfig(tr *trace.Trace) Config {
	return Config{
		Nodes:       8,
		Trace:       tr,
		Transport:   TransportTCP,
		CacheBytes:  16 << 10,
		DiskDelay:   40 * time.Millisecond,
		DiskThreads: 1,
		Health:      HealthConfig{HeartbeatInterval: time.Hour},
	}
}

// TestOverloadGoodputUnderSaturation is the acceptance scenario: an
// 8-node cluster is offered roughly twice its saturation rate by an
// open-loop generator, once without overload control and once with it.
// With control on, excess arrivals get prompt 503s, nothing is served
// past its deadline, the bounded queues never exceed their limits, and
// goodput beats the unbounded baseline at the same offered load.
func TestOverloadGoodputUnderSaturation(t *testing.T) {
	tr := serverTestTrace(t, 64)
	names := make([]string, len(tr.Files))
	for i, f := range tr.Files {
		names[i] = f.Name
	}
	const (
		offered     = 1200.0 // req/s; saturation is in the 400-500 range
		runFor      = 2500 * time.Millisecond
		reqDeadline = 500 * time.Millisecond
	)

	// Baseline: unbounded queues, no deadlines. The client's own timeout
	// stands in for the deadline, so "goodput" means the same thing in
	// both runs: answered within reqDeadline of arrival.
	base, err := Start(overloadTestConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(base.Addrs()))
	for i := range urls {
		urls[i] = base.URL(i)
	}
	baseSt := openLoopDrive(urls, names, offered, runFor, reqDeadline, 11, nil)
	base.Close()
	t.Logf("baseline: issued %d ok %d shed %d errs %d", baseSt.issued, baseSt.ok, baseSt.shed, baseSt.errs)
	if baseSt.shed != 0 {
		t.Errorf("baseline cluster shed %d requests with overload control off", baseSt.shed)
	}

	// Controlled: bounded queues and a propagated deadline. The client
	// timeout is generous so anything the cluster served late would be
	// visible as a success with a too-large latency.
	cfg := overloadTestConfig(tr)
	cfg.Overload = OverloadConfig{
		Enabled:             true,
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
	for i := range urls {
		urls[i] = cl.URL(i)
	}
	var (
		violMu     sync.Mutex
		violations []string
	)
	sample := func() {
		violMu.Lock()
		defer violMu.Unlock()
		for i, n := range cl.Nodes() {
			if l := len(n.httpCh); l > cfg.Overload.AcceptQueue {
				violations = append(violations, fmt.Sprintf("node %d accept queue %d > %d", i, l, cfg.Overload.AcceptQueue))
			}
			if l := n.diskQ.len(); l > cfg.Overload.DiskQueue {
				violations = append(violations, fmt.Sprintf("node %d disk queue %d > %d", i, l, cfg.Overload.DiskQueue))
			}
			if l := n.sendQ.len(); l > 1024 {
				violations = append(violations, fmt.Sprintf("node %d send queue %d > 1024", i, l))
			}
		}
	}
	ctlSt := openLoopDrive(urls, names, offered, runFor, 4*reqDeadline, 11, sample)
	st := cl.Stats()
	t.Logf("controlled: issued %d ok %d shed %d errs %d maxLat %v; server shed %d expired %d goodput %d",
		ctlSt.issued, ctlSt.ok, ctlSt.shed, ctlSt.errs, ctlSt.maxLatency, st.Nodes.Shed, st.Nodes.DeadlineExpired, st.Nodes.Goodput)

	violMu.Lock()
	for _, v := range violations {
		t.Errorf("queue bound violated: %s", v)
	}
	violMu.Unlock()
	if ctlSt.shed == 0 {
		t.Error("no prompt 503s at twice the saturation rate")
	}
	if st.Nodes.Shed == 0 {
		t.Error("server counted no sheds")
	}
	// Zero served after deadline: the slack covers client-side transfer
	// and scheduling, not server-side serving — a request served a full
	// deadline late would stand out well past it.
	if slack := 700 * time.Millisecond; ctlSt.maxLatency > reqDeadline+slack {
		t.Errorf("a request was served %v after arrival; deadline is %v", ctlSt.maxLatency, reqDeadline)
	}
	if int64(ctlSt.ok) > st.Nodes.Goodput {
		t.Errorf("client saw %d successes but the cluster booked only %d as goodput", ctlSt.ok, st.Nodes.Goodput)
	}
	// The point of the exercise: bounded queues + deadlines beat the
	// unbounded baseline on within-deadline answers at the same offered
	// load.
	if ctlSt.ok <= baseSt.ok {
		t.Errorf("goodput with overload control (%d) does not beat the unbounded baseline (%d)", ctlSt.ok, baseSt.ok)
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
			Enabled:               true,
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
	if err := cl.HealSlowNode(victim); err != nil {
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

// BenchmarkOverloadOff proves the disabled overload layer costs nothing
// on the hot paths it instruments: the per-forward pacing hooks, the
// admission decision, and the work-queue push/pop cycle must all be
// allocation-free when Enabled is false (the default). check.sh gates
// on 0 allocs/op.
func BenchmarkOverloadOff(b *testing.B) {
	n := &Node{} // ov.on == false, exactly as newNode leaves it when disabled
	q := newUnboundedQueue[outMsg]()
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ovForwardSent(0, now)
		if !n.ovAllowForward(0, now) {
			b.Fatal("disabled overload refused a forward")
		}
		n.ovForwardDone(0, time.Millisecond, now)
		if n.ovBrowned(0) || n.PeerBrownedOut(0) {
			b.Fatal("disabled overload browned a peer")
		}
		q.push(outMsg{})
		if _, ok := q.pop(); !ok {
			b.Fatal("queue closed")
		}
	}
}
