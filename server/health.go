package server

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"press/metrics"
)

// Failure detection rides the wires the cluster already uses: every
// load, caching, forward, or file message a peer sends is proof of
// life, so liveness piggybacks on the dissemination traffic the paper
// already broadcasts (the piggy-backing strategy of Section 4.3 carries
// it for free). A node that has nothing to say sends an idle heartbeat
// — a plain load message — so silence always means trouble. The tracker
// turns message arrivals into an alive → suspect → dead state machine
// per peer, and re-integrates a peer the moment it is heard from again.

// NodeState is the health tracker's verdict on one peer.
type NodeState int32

const (
	// StateAlive: traffic from the peer within SuspectAfter.
	StateAlive NodeState = iota
	// StateSuspect: silent for SuspectAfter; still dispatched to, but
	// under suspicion.
	StateSuspect
	// StateDead: silent for DeadAfter or its channel failed hard. The
	// peer is routed around: purged from the caching view, excluded from
	// dispatch, its pending requests failed over.
	StateDead
)

func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("NodeState(%d)", int32(s))
}

// HealthConfig tunes failure detection, which runs on every node with a
// peer to forward to. The zero value selects the defaults; a long
// HeartbeatInterval keeps an idle fabric silent.
type HealthConfig struct {
	// HeartbeatInterval is the maximum quiet period before a node sends
	// an idle heartbeat to a peer. Default 250ms.
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence that moves a peer alive → suspect.
	// Default 3× HeartbeatInterval.
	SuspectAfter time.Duration
	// DeadAfter is the silence that moves a peer suspect → dead.
	// Default 6× HeartbeatInterval.
	DeadAfter time.Duration
	// FailoverTimeout bounds how long a forwarded request may stay
	// pending before it is re-dispatched even without a detected peer
	// death. Default 4× DeadAfter.
	FailoverTimeout time.Duration
	// ProbeCap bounds the exponential backoff between reconnect probes
	// to a dead peer. Default 8× HeartbeatInterval.
	ProbeCap time.Duration
}

func (c HealthConfig) withDefaults() (HealthConfig, error) {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	if c.FailoverTimeout == 0 {
		c.FailoverTimeout = 4 * c.DeadAfter
	}
	if c.ProbeCap == 0 {
		c.ProbeCap = 8 * c.HeartbeatInterval
	}
	if c.HeartbeatInterval < 0 || c.SuspectAfter <= 0 || c.DeadAfter <= 0 {
		return c, fmt.Errorf("server: HealthConfig intervals must be positive")
	}
	if c.SuspectAfter < c.HeartbeatInterval {
		return c, fmt.Errorf("server: HealthConfig.SuspectAfter %v < HeartbeatInterval %v", c.SuspectAfter, c.HeartbeatInterval)
	}
	if c.DeadAfter < c.SuspectAfter {
		return c, fmt.Errorf("server: HealthConfig.DeadAfter %v < SuspectAfter %v", c.DeadAfter, c.SuspectAfter)
	}
	if c.FailoverTimeout < c.DeadAfter {
		return c, fmt.Errorf("server: HealthConfig.FailoverTimeout %v < DeadAfter %v", c.FailoverTimeout, c.DeadAfter)
	}
	return c, nil
}

// healthTransition is one state change reported by a tick.
type healthTransition struct {
	peer     int
	from, to NodeState
}

// healthTracker is a node's view of its peers' liveness. All mutating
// methods run on the owning node's main loop; the published atomic
// state (State, AliveMask) is readable from any goroutine, which is how
// /_press/metrics and tests observe it race-free.
type healthTracker struct {
	self int
	cfg  HealthConfig

	lastRecv []time.Time
	lastSent []time.Time
	state    []NodeState

	// Reconnect probe pacing for dead peers: capped exponential backoff
	// with jitter so a cluster-wide heal does not thundering-herd.
	probeAt    []time.Time
	probeDelay []time.Duration
	rng        *rand.Rand

	published []atomic.Int32
	aliveMask atomic.Uint64

	hbSent   *metrics.Counter
	hbMissed *metrics.Counter
}

func newHealthTracker(self, n int, cfg HealthConfig, seed int64, reg *metrics.Registry) *healthTracker {
	h := &healthTracker{
		self:       self,
		cfg:        cfg,
		lastRecv:   make([]time.Time, n),
		lastSent:   make([]time.Time, n),
		state:      make([]NodeState, n),
		probeAt:    make([]time.Time, n),
		probeDelay: make([]time.Duration, n),
		rng:        rand.New(rand.NewSource(seed + int64(self)*7919)),
		published:  make([]atomic.Int32, n),
	}
	now := time.Now()
	mask := uint64(0)
	for p := range h.lastRecv {
		h.lastRecv[p] = now // grace period at start
		h.lastSent[p] = now // first idle heartbeat a full interval in
		mask |= 1 << uint(p)
	}
	h.aliveMask.Store(mask)
	node := fmt.Sprintf("node=%d", self)
	h.hbSent = reg.Counter("press_heartbeats_sent_total", node)
	h.hbMissed = reg.Counter("press_heartbeat_misses_total", node)
	return h
}

// noteRecv records proof of life from peer. resurrected is true when
// the peer was dead and must be re-integrated (caching view re-seeded,
// load re-learned).
func (h *healthTracker) noteRecv(peer int, now time.Time) (resurrected bool) {
	if peer == h.self || peer < 0 || peer >= len(h.state) {
		return false
	}
	h.lastRecv[peer] = now
	if h.state[peer] == StateAlive {
		return false
	}
	resurrected = h.state[peer] == StateDead
	h.setState(peer, StateAlive)
	h.probeDelay[peer] = 0
	return resurrected
}

// noteSendFault records a send failure towards peer that is not
// evidence of death: immediate suspicion, without waiting for the
// silence thresholds.
func (h *healthTracker) noteSendFault(peer int) {
	if peer == h.self || peer < 0 || peer >= len(h.state) {
		return
	}
	if h.state[peer] == StateAlive {
		h.setState(peer, StateSuspect)
		h.hbMissed.Inc()
	}
}

// markDead forces the peer dead immediately (hard evidence: its channel
// failed). Returns true if this was a transition.
func (h *healthTracker) markDead(peer int, now time.Time) bool {
	if peer == h.self || peer < 0 || peer >= len(h.state) || h.state[peer] == StateDead {
		return false
	}
	h.setState(peer, StateDead)
	h.scheduleProbe(peer, now)
	return true
}

// markAlive re-integrates a peer after a successful reconnect probe.
func (h *healthTracker) markAlive(peer int, now time.Time) {
	if peer == h.self || peer < 0 || peer >= len(h.state) {
		return
	}
	h.lastRecv[peer] = now
	h.probeDelay[peer] = 0
	h.setState(peer, StateAlive)
}

// tick advances the silence-driven transitions and returns them oldest
// state first; the caller reacts (suspect: nothing yet; dead: purge and
// fail over).
func (h *healthTracker) tick(now time.Time) []healthTransition {
	var out []healthTransition
	for p := range h.state {
		if p == h.self {
			continue
		}
		quiet := now.Sub(h.lastRecv[p])
		switch h.state[p] {
		case StateAlive:
			if quiet >= h.cfg.SuspectAfter {
				h.setState(p, StateSuspect)
				h.hbMissed.Inc()
				out = append(out, healthTransition{peer: p, from: StateAlive, to: StateSuspect})
			}
		case StateSuspect:
			if quiet >= h.cfg.DeadAfter {
				h.setState(p, StateDead)
				h.scheduleProbe(p, now)
				out = append(out, healthTransition{peer: p, from: StateSuspect, to: StateDead})
			}
		}
	}
	return out
}

// heartbeatDue reports whether an idle heartbeat to peer is owed: no
// traffic sent to it within HeartbeatInterval. Dead peers are probed,
// not heartbeated — their channel is gone.
func (h *healthTracker) heartbeatDue(peer int, now time.Time) bool {
	if peer == h.self || h.state[peer] == StateDead {
		return false
	}
	return now.Sub(h.lastSent[peer]) >= h.cfg.HeartbeatInterval
}

// noteSent records outbound traffic to peer (any message counts; the
// receiver reads it as liveness).
func (h *healthTracker) noteSent(peer int, now time.Time) {
	if peer >= 0 && peer < len(h.lastSent) {
		h.lastSent[peer] = now
	}
}

// probeDue reports whether a reconnect probe to a dead peer is owed,
// and advances the backoff schedule when it is.
func (h *healthTracker) probeDue(peer int, now time.Time) bool {
	if h.state[peer] != StateDead || now.Before(h.probeAt[peer]) {
		return false
	}
	h.scheduleProbe(peer, now)
	return true
}

// scheduleProbe sets the next probe time with doubling, capped,
// jittered delay.
func (h *healthTracker) scheduleProbe(peer int, now time.Time) {
	d := h.probeDelay[peer]
	if d == 0 {
		d = h.cfg.HeartbeatInterval
	} else {
		d *= 2
	}
	if d > h.cfg.ProbeCap {
		d = h.cfg.ProbeCap
	}
	h.probeDelay[peer] = d
	jitter := time.Duration(h.rng.Int63n(int64(d)/2 + 1))
	h.probeAt[peer] = now.Add(d/2 + jitter)
}

// setState writes the main-loop state and the published atomics.
func (h *healthTracker) setState(peer int, s NodeState) {
	h.state[peer] = s
	h.published[peer].Store(int32(s))
	for {
		old := h.aliveMask.Load()
		nw := old
		if s == StateDead {
			nw = old &^ (1 << uint(peer))
		} else {
			nw = old | (1 << uint(peer))
		}
		if nw == old || h.aliveMask.CompareAndSwap(old, nw) {
			return
		}
	}
}

// State is the cross-goroutine view of one peer's health.
func (h *healthTracker) State(peer int) NodeState {
	if peer < 0 || peer >= len(h.published) {
		return StateDead
	}
	return NodeState(h.published[peer].Load())
}

// AliveMask is the cross-goroutine bitmask of non-dead nodes (self
// always included).
func (h *healthTracker) AliveMask() uint64 { return h.aliveMask.Load() }

// isDead is the main-loop view of one peer's death (no atomics needed).
func (h *healthTracker) isDead(peer int) bool {
	return peer >= 0 && peer < len(h.state) && h.state[peer] == StateDead
}

// alivePeers counts non-dead peers, main-loop view.
func (h *healthTracker) alivePeers() int {
	n := 0
	for p, s := range h.state {
		if p != h.self && s != StateDead {
			n++
		}
	}
	return n
}
