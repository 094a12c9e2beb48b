package server

import (
	"testing"
	"time"
)

func testHealthConfig(t *testing.T) HealthConfig {
	t.Helper()
	cfg, err := HealthConfig{HeartbeatInterval: 10 * time.Millisecond}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
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
	cfg := testHealthConfig(t)
	h := newHealthTracker(0, 3, cfg, 1, nil)
	now := time.Now()

	// Silence moves a peer alive -> suspect -> dead.
	trs := h.tick(now.Add(cfg.SuspectAfter))
	if len(trs) != 2 || trs[0].to != StateSuspect {
		t.Fatalf("suspect transitions = %+v", trs)
	}
	if got := h.State(1); got != StateSuspect {
		t.Errorf("state(1) = %v", got)
	}
	trs = h.tick(now.Add(cfg.DeadAfter))
	if len(trs) != 2 || trs[0].to != StateDead {
		t.Fatalf("dead transitions = %+v", trs)
	}
	if got := h.State(2); got != StateDead {
		t.Errorf("state(2) = %v", got)
	}
	if mask := h.AliveMask(); mask != 1 { // only self survives
		t.Errorf("alive mask = %b", mask)
	}
	if h.alivePeers() != 0 {
		t.Errorf("alivePeers = %d", h.alivePeers())
	}

	// Proof of life resurrects, reports it, and restores the mask.
	if !h.noteRecv(1, now.Add(cfg.DeadAfter+time.Millisecond)) {
		t.Error("noteRecv after death did not report resurrection")
	}
	if got := h.State(1); got != StateAlive {
		t.Errorf("state(1) after recv = %v", got)
	}
	if mask := h.AliveMask(); mask != 0b011 {
		t.Errorf("alive mask = %b", mask)
	}
	// A second message is not a resurrection.
	if h.noteRecv(1, now.Add(cfg.DeadAfter+2*time.Millisecond)) {
		t.Error("repeat recv reported resurrection")
	}
}

func TestHealthSendFaultAndMarkDead(t *testing.T) {
	cfg := testHealthConfig(t)
	h := newHealthTracker(0, 2, cfg, 1, nil)
	now := time.Now()
	h.noteSendFault(1)
	if got := h.State(1); got != StateSuspect {
		t.Errorf("state after send fault = %v", got)
	}
	if !h.markDead(1, now) {
		t.Error("markDead did not transition")
	}
	if h.markDead(1, now) {
		t.Error("markDead transitioned twice")
	}
	h.markAlive(1, now)
	if got := h.State(1); got != StateAlive {
		t.Errorf("state after markAlive = %v", got)
	}
}

func TestHealthHeartbeatAndProbeSchedule(t *testing.T) {
	cfg := testHealthConfig(t)
	h := newHealthTracker(0, 2, cfg, 1, nil)
	now := time.Now()
	if h.heartbeatDue(1, now) {
		t.Error("heartbeat due immediately after start")
	}
	if !h.heartbeatDue(1, now.Add(cfg.HeartbeatInterval)) {
		t.Error("heartbeat not due after a full quiet interval")
	}
	h.noteSent(1, now.Add(cfg.HeartbeatInterval))
	if h.heartbeatDue(1, now.Add(cfg.HeartbeatInterval+time.Millisecond)) {
		t.Error("heartbeat due right after a send")
	}

	// Probes: only dead peers, spaced with growing backoff.
	if h.probeDue(1, now.Add(time.Hour)) {
		t.Error("probe due for an alive peer")
	}
	h.markDead(1, now)
	first := h.probeAt[1]
	if first.Before(now) {
		t.Error("probe scheduled in the past")
	}
	if !h.probeDue(1, first) {
		t.Error("probe not due at its scheduled time")
	}
	if h.probeDelay[1] <= cfg.HeartbeatInterval {
		t.Errorf("probe delay %v did not grow", h.probeDelay[1])
	}
	// The backoff caps.
	for i := 0; i < 20; i++ {
		h.scheduleProbe(1, now)
	}
	if h.probeDelay[1] > cfg.ProbeCap {
		t.Errorf("probe delay %v above cap %v", h.probeDelay[1], cfg.ProbeCap)
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

// TestSleeper: the one reusable pause timer waits its time out, and gives
// up at once when stopped — also on the turn after a stop, when a stale
// tick must not cut the wait short.
func TestSleeper(t *testing.T) {
	var s sleeper
	stop := make(chan struct{})
	start := time.Now()
	if !s.sleep(5*time.Millisecond, stop) || !s.sleep(5*time.Millisecond, stop) {
		t.Fatal("sleep reported a stop nobody asked for")
	}
	if e := time.Since(start); e < 10*time.Millisecond {
		t.Fatalf("two 5 ms sleeps took %v", e)
	}
	close(stop)
	start = time.Now()
	if s.sleep(time.Hour, stop) {
		t.Fatal("sleep outlasted its stop channel")
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("stopped sleep took %v", e)
	}
}
