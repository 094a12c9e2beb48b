package server

import (
	"testing"
	"time"

	"press/cache"
	"press/metrics"
	"press/telemetry"
)

func testHealthConfig(t *testing.T) HealthConfig {
	t.Helper()
	cfg, err := HealthConfig{HeartbeatInterval: 10 * time.Millisecond}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// testPeerTable is node 0's table of a nodes-node cluster, made at the
// fake time it returns; its brownout counters live in reg and its events
// in plane.
func testPeerTable(t *testing.T, nodes int, ov OverloadConfig) (pt *peerTable, now time.Time, reg *metrics.Registry, plane *telemetry.Plane) {
	t.Helper()
	now = time.Unix(1_000_000, 0)
	reg, plane = metrics.NewRegistry(), telemetry.New(telemetry.Config{})
	cfg := Config{Nodes: nodes, Health: testHealthConfig(t), Overload: ov, Metrics: reg, Telemetry: plane}
	return newPeerTable(0, cfg, now), now, reg, plane
}

// events counts the plane's events of type typ.
func events(plane *telemetry.Plane, typ telemetry.EventType) int {
	n := 0
	for _, ev := range plane.Events() {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

func TestHealthConfigDefaults(t *testing.T) {
	cfg, err := HealthConfig{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HeartbeatInterval != 250*time.Millisecond {
		t.Errorf("HeartbeatInterval = %v", cfg.HeartbeatInterval)
	}
	if cfg.SuspectAfter != 3*cfg.HeartbeatInterval {
		t.Errorf("SuspectAfter = %v", cfg.SuspectAfter)
	}
	if cfg.DeadAfter != 2*cfg.SuspectAfter {
		t.Errorf("DeadAfter = %v", cfg.DeadAfter)
	}
	if cfg.FailoverTimeout != 4*cfg.DeadAfter {
		t.Errorf("FailoverTimeout = %v", cfg.FailoverTimeout)
	}
}

func TestHealthConfigValidation(t *testing.T) {
	bad := []HealthConfig{
		{HeartbeatInterval: -time.Second},
		{HeartbeatInterval: 100 * time.Millisecond, SuspectAfter: 10 * time.Millisecond},
		{HeartbeatInterval: 10 * time.Millisecond, SuspectAfter: 30 * time.Millisecond, DeadAfter: 20 * time.Millisecond},
		{HeartbeatInterval: 10 * time.Millisecond, FailoverTimeout: time.Millisecond},
	}
	for i, cfg := range bad {
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestHealthStateMachine(t *testing.T) {
	h, now, _, _ := testPeerTable(t, 3, OverloadConfig{})
	cfg := h.hc

	// Silence moves a peer alive -> suspect -> dead.
	trs := h.tick(now.Add(cfg.SuspectAfter))
	if len(trs) != 2 || trs[0].to != StateSuspect {
		t.Fatalf("suspect transitions = %+v", trs)
	}
	if got := h.state(1); got != StateSuspect {
		t.Errorf("state(1) = %v", got)
	}
	trs = h.tick(now.Add(cfg.DeadAfter))
	if len(trs) != 2 || trs[0].to != StateDead {
		t.Fatalf("dead transitions = %+v", trs)
	}
	if got := h.state(2); got != StateDead {
		t.Errorf("state(2) = %v", got)
	}
	if mask := h.mask.Load(); mask != 1 { // only self survives
		t.Errorf("alive mask = %b", mask)
	}
	if !h.degraded() {
		t.Error("not degraded with every peer dead")
	}

	// Proof of life resurrects, reports it, and restores the mask.
	if !h.heard(1, -1, now.Add(cfg.DeadAfter+time.Millisecond)) {
		t.Error("heard after death did not report resurrection")
	}
	if got := h.state(1); got != StateAlive {
		t.Errorf("state(1) after recv = %v", got)
	}
	if mask := h.mask.Load(); mask != 0b011 {
		t.Errorf("alive mask = %b", mask)
	}
	// A second message is not a resurrection.
	if h.heard(1, -1, now.Add(cfg.DeadAfter+2*time.Millisecond)) {
		t.Error("repeat recv reported resurrection")
	}
}

func TestHealthSendFaultAndMarkDead(t *testing.T) {
	h, now, _, _ := testPeerTable(t, 2, OverloadConfig{})
	h.sendFault(1)
	if got := h.state(1); got != StateSuspect {
		t.Errorf("state after send fault = %v", got)
	}
	if !h.markDead(1, now) {
		t.Error("markDead did not transition")
	}
	if h.markDead(1, now) {
		t.Error("markDead transitioned twice")
	}
	h.probed(1, true, now)
	if got := h.state(1); got != StateAlive {
		t.Errorf("state after a successful probe = %v", got)
	}
}

func TestHealthHeartbeatAndProbeSchedule(t *testing.T) {
	h, now, _, _ := testPeerTable(t, 2, OverloadConfig{})
	cfg := h.hc
	if h.heartbeatDue(1, now) {
		t.Error("heartbeat due immediately after start")
	}
	if !h.heartbeatDue(1, now.Add(cfg.HeartbeatInterval)) {
		t.Error("heartbeat not due after a full quiet interval")
	}
	h.sent(1, now.Add(cfg.HeartbeatInterval))
	if h.heartbeatDue(1, now.Add(cfg.HeartbeatInterval+time.Millisecond)) {
		t.Error("heartbeat due right after a send")
	}

	// Probes: only dead peers, spaced with growing backoff, one in
	// flight at a time.
	if h.probeDue(1, now.Add(time.Hour)) {
		t.Error("probe due for an alive peer")
	}
	h.markDead(1, now)
	first := h.entries[1].probeAt
	if first.Before(now) {
		t.Error("probe scheduled in the past")
	}
	if !h.probeDue(1, first) {
		t.Error("probe not due at its scheduled time")
	}
	if h.entries[1].probeDelay <= cfg.HeartbeatInterval {
		t.Errorf("probe delay %v did not grow", h.entries[1].probeDelay)
	}
	if h.probeDue(1, h.entries[1].probeAt) {
		t.Error("a second probe due while the first is in flight")
	}
	h.probed(1, false, h.entries[1].probeAt)
	if !h.probeDue(1, h.entries[1].probeAt) || h.state(1) != StateDead {
		t.Error("a failed probe did not leave the next one due, the peer dead")
	}
	// The backoff caps.
	for i := 0; i < 20; i++ {
		h.scheduleProbe(1, now)
	}
	if h.entries[1].probeDelay > cfg.ProbeCap {
		t.Errorf("probe delay %v above cap %v", h.entries[1].probeDelay, cfg.ProbeCap)
	}
}

func TestNodeStateString(t *testing.T) {
	for s, want := range map[NodeState]string{
		StateAlive: "alive", StateSuspect: "suspect", StateDead: "dead",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q", int32(s), got)
		}
	}
}

// TestPeerBrownoutHysteresis: each signal browns a peer out past its
// threshold and lets it back only under half of it, with one counted
// transition and an event each way.
func TestPeerBrownoutHysteresis(t *testing.T) {
	t.Run("latency", func(t *testing.T) {
		pt, now, reg, plane := testPeerTable(t, 2, OverloadConfig{BrownoutLatency: 10 * time.Millisecond, BrownoutOutstanding: -1})
		pt.forwardSent(1, now)
		pt.forwardDone(1, now, now.Add(8*time.Millisecond))
		if pt.brownedOut(1) {
			t.Fatal("browned out under the threshold")
		}
		pt.forwardSent(1, now)
		pt.forwardDone(1, now, now.Add(40*time.Millisecond)) // EWMA 8 → 20.8 ms
		if !pt.brownedOut(1) || !pt.browned(1) {
			t.Fatal("not browned out over the threshold")
		}
		// Fast replies pull the EWMA 20.8 → 12.5 → 7.5 → 4.5 ms: under
		// the threshold is not enough, under half of it is.
		for i, want := range []bool{true, true, false} {
			pt.forwardSent(1, now)
			pt.forwardDone(1, now, now)
			if pt.brownedOut(1) != want {
				t.Fatalf("after fast reply %d (EWMA %v): browned %v, want %v", i+1, pt.entries[1].ewma, !want, want)
			}
		}
		if got := reg.Counter("press_brownout_total", "node=0", "peer=1").Value(); got != 1 {
			t.Errorf("press_brownout_total{peer=1} = %d, want 1", got)
		}
		if in, out := events(plane, telemetry.EvBrownoutEnter), events(plane, telemetry.EvBrownoutExit); in != 1 || out != 1 {
			t.Errorf("%d brownout enter and %d exit events, want 1 each", in, out)
		}
	})
	t.Run("outstanding", func(t *testing.T) {
		pt, now, _, plane := testPeerTable(t, 2, OverloadConfig{BrownoutOutstanding: 4})
		for i := 1; i <= 4; i++ {
			if pt.brownedOut(1) {
				t.Fatalf("browned out at %d outstanding", i-1)
			}
			pt.forwardSent(1, now)
		}
		if !pt.brownedOut(1) {
			t.Fatal("not browned out at the cap")
		}
		// Back only under half the cap: 3 and 2 outstanding stay out.
		for i, want := range []bool{true, true, false} {
			pt.forwardDone(1, now, now)
			if pt.brownedOut(1) != want {
				t.Fatalf("after reply %d (%d outstanding): browned %v, want %v", i+1, pt.entries[1].outstanding, !want, want)
			}
		}
		if in, out := events(plane, telemetry.EvBrownoutEnter), events(plane, telemetry.EvBrownoutExit); in != 1 || out != 1 {
			t.Errorf("%d brownout enter and %d exit events, want 1 each", in, out)
		}
	})
}

// TestPeerBrownoutTrickle: a browned-out peer gets one forward per
// BrownoutProbeInterval, a healthy one every forward.
func TestPeerBrownoutTrickle(t *testing.T) {
	const interval = 200 * time.Millisecond
	pt, now, _, _ := testPeerTable(t, 3, OverloadConfig{BrownoutOutstanding: 1, BrownoutProbeInterval: interval})
	pt.forwardSent(1, now) // browned out at once, the trickle clock started
	for _, c := range []struct {
		at   time.Duration
		want bool
	}{
		{0, false}, {interval - time.Millisecond, false}, {interval, true},
		{interval + time.Millisecond, false}, {2*interval - time.Millisecond, false}, {2 * interval, true},
	} {
		if got := pt.allowForward(1, now.Add(c.at)); got != c.want {
			t.Errorf("browned peer at +%v: allowed %v, want %v", c.at, got, c.want)
		}
		if !pt.allowForward(2, now.Add(c.at)) {
			t.Errorf("healthy peer at +%v: refused", c.at)
		}
	}
}

// TestPeerPick: the least-loaded healthy cacher first, then a browned
// one, never this node, a dead one, a tried one or a non-cacher.
func TestPeerPick(t *testing.T) {
	pt, now, _, _ := testPeerTable(t, 5, OverloadConfig{BrownoutOutstanding: 1})
	for p, load := range []int32{0, 5, 4, 1, 0} {
		pt.heard(p, load, now)
	}
	pt.forwardSent(3, now) // browned out, though least loaded of the live
	pt.markDead(4, now)    // dead, though least loaded of all
	cachers := cache.NodeSetOf(0, 1, 2, 3, 4)
	for _, c := range []struct {
		cachers, tried cache.NodeSet
		want           int
	}{
		{cachers, cache.NodeSetOf(0), 2},
		{cachers, cache.NodeSetOf(0, 2), 1},
		{cachers, cache.NodeSetOf(0, 1, 2), 3},
		{cachers, cache.NodeSetOf(0, 1, 2, 3), -1},
		{cache.NodeSetOf(1, 3), cache.NodeSet{}, 1},
		{cache.NodeSetOf(0, 4), cache.NodeSet{}, -1},
	} {
		if got := pt.pick(c.cachers, c.tried); got != c.want {
			t.Errorf("pick(%v, tried %v) = %d, want %d", c.cachers.Nodes(), c.tried.Nodes(), got, c.want)
		}
	}
}

// TestPeerDegradedEvents: the node is degraded exactly while every peer
// is dead, with one event each way.
func TestPeerDegradedEvents(t *testing.T) {
	pt, now, _, plane := testPeerTable(t, 3, OverloadConfig{})
	pt.markDead(1, now)
	if pt.degraded() || events(plane, telemetry.EvDegradedEnter) != 0 {
		t.Fatal("degraded with one peer left")
	}
	pt.markDead(2, now)
	if !pt.degraded() || events(plane, telemetry.EvDegradedEnter) != 1 {
		t.Fatal("not degraded, with one event, once every peer is dead")
	}
	pt.probed(2, true, now)
	if pt.degraded() || events(plane, telemetry.EvDegradedExit) != 1 {
		t.Fatal("still degraded, or no exit event, with a peer back")
	}
	pt.heard(1, -1, now)
	if n := len(plane.Events()); n != 2 {
		t.Errorf("%d events, want the enter and the exit only", n)
	}
	one, _, _, plane := testPeerTable(t, 1, OverloadConfig{})
	if one.degraded() || len(plane.Events()) != 0 {
		t.Error("a one-node cluster reads as degraded")
	}
}

// TestPeerStartsAfresh: a peer's load and pace are cleared when it dies
// and when it comes back, and a forward that leaves pending for a dead
// peer gives no sample.
func TestPeerStartsAfresh(t *testing.T) {
	pt, now, reg, _ := testPeerTable(t, 2, OverloadConfig{BrownoutLatency: time.Millisecond, BrownoutOutstanding: 2})
	pt.heard(1, 7, now)
	pt.forwardSent(1, now)
	pt.forwardSent(1, now)
	pt.forwardDone(1, now, now.Add(5*time.Millisecond))
	if e := pt.entries[1]; e.load != 7 || e.ewma == 0 || e.outstanding != 1 || !e.browned {
		t.Fatalf("before the death: %+v", e)
	}
	fresh := func(when string) {
		t.Helper()
		if e := pt.entries[1]; e.load != 0 || e.ewma != 0 || e.outstanding != 0 || e.browned || pt.brownedOut(1) {
			t.Errorf("%s: load %d, EWMA %v, %d outstanding, browned %v", when, e.load, e.ewma, e.outstanding, e.browned)
		}
	}
	pt.markDead(1, now)
	fresh("after the death")
	pt.forwardDone(1, now, now.Add(time.Second)) // the forward outstanding at death fails over
	fresh("after a dead peer's forward left pending")
	if got := pt.load(1); got != int(^uint(0)>>1) {
		t.Errorf("a dead peer's load reads %d", got)
	}

	pt.forwardSent(1, now) // counted while dead: the return clears it
	pt.heard(1, -1, now)
	fresh("after the return")
	pt.heard(1, 3, now)
	if got := pt.load(1); got != 3 {
		t.Errorf("load after the return = %d, want the reported 3", got)
	}
	if got := reg.Counter("press_brownout_total", "node=0", "peer=1").Value(); got != 1 {
		t.Errorf("press_brownout_total{peer=1} = %d, want the one before the death", got)
	}
}
