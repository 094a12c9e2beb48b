package server

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"press/cache"
	"press/metrics"
	"press/telemetry"
)

// A node's knowledge of each peer is one entry of its peer table, owned
// by the main loop: whether the peer can be reached, how fast it answers
// forwards, and the load it last reported — what request distribution
// reads beside the caching directory (Section 2).
//
// Failure detection rides the wires the cluster already uses: every
// message a peer sends is proof of life, so liveness piggybacks on the
// dissemination traffic the paper already broadcasts (Section 4.3's
// piggy-backing carries it for free). A node with nothing to say sends
// an idle heartbeat — a plain load message — so silence always means
// trouble: it moves a peer alive → suspect → dead, and any message
// brings the peer back. Brownout is the gray failure silence cannot
// show, a peer alive but slow: it keeps its directory entries but stops
// receiving the bulk of the forwards until it recovers. A peer that goes
// dead or comes back starts afresh, its pace and load cleared. Every
// input takes now, so the table's tests run on fake time.

// NodeState is the failure detector's verdict on one peer.
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

// peerEntry is what a node knows of one peer.
type peerEntry struct {
	state    NodeState
	lastRecv time.Time
	lastSent time.Time // an idle heartbeat is owed HeartbeatInterval after

	// Reconnect probes to a dead peer: capped exponential backoff with
	// jitter, so a cluster-wide heal does not thundering-herd, and at
	// most one probe in flight.
	probeAt    time.Time
	probeDelay time.Duration
	probing    bool

	load int // as the peer last reported it

	// The forward pace: the latency EWMA of forwards that left pending
	// (0 = no sample yet), the count still outstanding, the brownout
	// they decide, and when a browned peer last got a trickle forward.
	ewma        time.Duration
	outstanding int
	browned     bool
	lastTrickle time.Time
}

// peerTransition is one silence-driven state change a tick reports.
type peerTransition struct {
	peer     int
	from, to NodeState
}

// brownedBit marks a browned-out peer in its published word, beside its
// NodeState.
const brownedBit = 1 << 8

// ewmaAlphaNum/Den ≈ 0.4: heavy enough that a handful of slow replies
// trips the brownout, light enough that one outlier does not.
const (
	ewmaAlphaNum = 2
	ewmaAlphaDen = 5
)

// peerTable is a node's view of its peers. Every method runs on the
// owning node's main loop except the published views — state,
// brownedOut, alive and degraded — which any goroutine may read; that
// is how /_press/metrics and tests observe the table race-free.
type peerTable struct {
	self    int
	hc      HealthConfig
	oc      OverloadConfig
	entries []peerEntry
	rng     *rand.Rand

	word []atomic.Int32 // per peer: its NodeState, | brownedBit when browned out
	mask atomic.Uint64  // the nodes not dead, self included

	hbSent    *metrics.Counter
	hbMissed  *metrics.Counter
	brownouts []*metrics.Counter // transitions into brownout, per peer
	tel       *telemetry.Plane
}

func newPeerTable(self int, cfg Config, now time.Time) *peerTable {
	t := &peerTable{
		self:      self,
		hc:        cfg.Health,
		oc:        cfg.Overload,
		entries:   make([]peerEntry, cfg.Nodes),
		rng:       rand.New(rand.NewSource(retrySeed + int64(self)*7919)),
		word:      make([]atomic.Int32, cfg.Nodes),
		brownouts: make([]*metrics.Counter, cfg.Nodes),
		tel:       cfg.Telemetry,
	}
	node := fmt.Sprintf("node=%d", self)
	for p := range t.entries {
		// A grace period at start; the first idle heartbeat a full
		// interval in.
		t.entries[p].lastRecv, t.entries[p].lastSent = now, now
		t.brownouts[p] = cfg.Metrics.Counter("press_brownout_total", node, fmt.Sprintf("peer=%d", p))
	}
	t.mask.Store(uint64(1)<<uint(cfg.Nodes) - 1)
	t.hbSent = cfg.Metrics.Counter("press_heartbeats_sent_total", node)
	t.hbMissed = cfg.Metrics.Counter("press_heartbeat_misses_total", node)
	return t
}

// peer is p's entry, nil when p is this node or no node at all.
func (t *peerTable) peer(p int) *peerEntry {
	if p == t.self || p < 0 || p >= len(t.entries) {
		return nil
	}
	return &t.entries[p]
}

// heard records proof of life from p, and the load it reported
// (negative: none). back reports a peer that was dead and must be
// re-integrated.
func (t *peerTable) heard(p int, load int32, now time.Time) (back bool) {
	e := t.peer(p)
	if e == nil {
		return false
	}
	e.lastRecv = now
	if e.state != StateAlive {
		back = e.state == StateDead
		e.probeDelay = 0
		t.setState(p, StateAlive)
	}
	if load >= 0 {
		e.load = int(load)
	}
	return back
}

// sent records outbound traffic to p: any message reads as liveness at
// the receiver, so it stands in for a heartbeat.
//
//presslint:hotpath budget=0
func (t *peerTable) sent(p int, now time.Time) {
	if p >= 0 && p < len(t.entries) {
		t.entries[p].lastSent = now
	}
}

// sendFault records a send failure towards p that is not evidence of
// death: immediate suspicion, without waiting for the silence
// thresholds.
func (t *peerTable) sendFault(p int) {
	if e := t.peer(p); e != nil && e.state == StateAlive {
		t.setState(p, StateSuspect)
		t.hbMissed.Inc()
	}
}

// markDead declares p dead at once (hard evidence: its channel failed),
// reporting whether this was a transition.
func (t *peerTable) markDead(p int, now time.Time) bool {
	e := t.peer(p)
	if e == nil || e.state == StateDead {
		return false
	}
	t.setState(p, StateDead)
	t.scheduleProbe(p, now)
	return true
}

// probed ends a reconnect probe to p; a successful one brings the peer
// back.
func (t *peerTable) probed(p int, ok bool, now time.Time) {
	e := t.peer(p)
	if e == nil {
		return
	}
	e.probing = false
	if ok {
		e.lastRecv, e.probeDelay = now, 0
		t.setState(p, StateAlive)
	}
}

// tick advances the silence-driven transitions and returns them in peer
// order; the caller reacts (suspect: an event; dead: purge and fail
// over).
func (t *peerTable) tick(now time.Time) []peerTransition {
	var out []peerTransition
	for p := range t.entries {
		e := t.peer(p)
		if e == nil {
			continue
		}
		quiet, from := now.Sub(e.lastRecv), e.state
		switch {
		case from == StateAlive && quiet >= t.hc.SuspectAfter:
			t.setState(p, StateSuspect)
			t.hbMissed.Inc()
		case from == StateSuspect && quiet >= t.hc.DeadAfter:
			t.setState(p, StateDead)
			t.scheduleProbe(p, now)
		default:
			continue
		}
		out = append(out, peerTransition{peer: p, from: from, to: e.state})
	}
	return out
}

// heartbeatDue reports, and counts as sent, an idle heartbeat owed to
// p: nothing sent to it within HeartbeatInterval. A dead peer is probed,
// not heartbeated — its channel is gone.
func (t *peerTable) heartbeatDue(p int, now time.Time) bool {
	e := t.peer(p)
	if e == nil || e.state == StateDead || now.Sub(e.lastSent) < t.hc.HeartbeatInterval {
		return false
	}
	t.hbSent.Inc()
	return true
}

// probeDue reports whether a reconnect probe to dead peer p is owed,
// advancing the backoff schedule when it is; a probe still in flight
// owes none. The caller reports the probe's end through probed.
func (t *peerTable) probeDue(p int, now time.Time) bool {
	e := t.peer(p)
	if e == nil || e.state != StateDead || now.Before(e.probeAt) {
		return false
	}
	t.scheduleProbe(p, now)
	if e.probing {
		return false
	}
	e.probing = true
	return true
}

// scheduleProbe sets p's next probe time with doubling, capped,
// jittered delay.
func (t *peerTable) scheduleProbe(p int, now time.Time) {
	e := &t.entries[p]
	d := 2 * e.probeDelay
	if d == 0 {
		d = t.hc.HeartbeatInterval
	}
	e.probeDelay = min(d, t.hc.ProbeCap)
	jitter := time.Duration(t.rng.Int63n(int64(e.probeDelay)/2 + 1))
	e.probeAt = now.Add(e.probeDelay/2 + jitter)
}

// setState moves p to s. A peer that goes dead or comes back starts
// afresh, its load and pace cleared; the published word and alive mask
// follow, and the mask crossing "self only" enters or leaves degraded
// service.
func (t *peerTable) setState(p int, s NodeState) {
	e := &t.entries[p]
	if (s == StateDead) != (e.state == StateDead) {
		e.load, e.ewma, e.outstanding, e.browned, e.lastTrickle = 0, 0, 0, false, time.Time{}
		was := t.degraded()
		t.mask.Store(t.mask.Load() ^ 1<<uint(p))
		switch deg := t.degraded(); {
		case deg && !was:
			t.tel.Event(telemetry.EvDegradedEnter, t.self, -1, "all peers dead", 0)
		case was && !deg:
			t.tel.Event(telemetry.EvDegradedExit, t.self, -1, "", 0)
		}
	}
	e.state = s
	t.publish(p)
}

// publish stores p's word for other goroutines.
func (t *peerTable) publish(p int) {
	w := int32(t.entries[p].state)
	if t.entries[p].browned {
		w |= brownedBit
	}
	t.word[p].Store(w)
}

// dead is the main-loop view of p's death.
//
//presslint:hotpath budget=0
func (t *peerTable) dead(p int) bool {
	return p >= 0 && p < len(t.entries) && t.entries[p].state == StateDead
}

// load is p's load as the least-loaded search reads it: a dead peer
// never wins.
func (t *peerTable) load(p int) int {
	if t.entries[p].state == StateDead {
		return int(^uint(0) >> 1)
	}
	return t.entries[p].load
}

// forwardSent counts a forward dispatched to p.
//
//presslint:hotpath budget=0
func (t *peerTable) forwardSent(p int, now time.Time) {
	t.entries[p].outstanding++
	t.updateBrown(p, now)
}

// forwardDone counts a forward to p that has left pending — answered,
// failed or failed over — and samples its wait since sentAt: a peer that
// times requests out is slow by definition. A dead peer's forward gives
// no sample: the peer's pace was cleared when it died, and the wait
// measured its death.
//
//presslint:hotpath budget=0
func (t *peerTable) forwardDone(p int, sentAt, now time.Time) {
	e := &t.entries[p]
	if e.state == StateDead {
		return
	}
	if e.outstanding > 0 {
		e.outstanding--
	}
	if elapsed := now.Sub(sentAt); e.ewma == 0 {
		e.ewma = elapsed
	} else {
		e.ewma += (elapsed - e.ewma) * ewmaAlphaNum / ewmaAlphaDen
	}
	t.updateBrown(p, now)
}

// updateBrown recomputes p's brownout with hysteresis: it enters when
// the EWMA exceeds BrownoutLatency or the outstanding count reaches
// BrownoutOutstanding, and leaves only when the EWMA is under half the
// threshold and the backlog under half the cap.
func (t *peerTable) updateBrown(p int, now time.Time) {
	e := &t.entries[p]
	lat, outCap := t.oc.BrownoutLatency, t.oc.BrownoutOutstanding
	switch {
	case !e.browned && ((lat > 0 && e.ewma > lat) || (outCap > 0 && e.outstanding >= outCap)):
		e.browned, e.lastTrickle = true, now
		t.publish(p)
		t.brownouts[p].Inc()
		t.tel.Event(telemetry.EvBrownoutEnter, t.self, p, "latency/backlog over threshold", int64(e.ewma))
	case e.browned && (lat <= 0 || e.ewma < lat/2) && (outCap <= 0 || e.outstanding < (outCap+1)/2):
		e.browned = false
		t.publish(p)
		t.tel.Event(telemetry.EvBrownoutExit, t.self, p, "recovered", int64(e.ewma))
	}
}

// allowForward decides whether a forward to p may go: always to a peer
// that is not browned out, and to a browned one only as the trickle, one
// per BrownoutProbeInterval, that lets its recovery be seen.
//
//presslint:hotpath budget=0
func (t *peerTable) allowForward(p int, now time.Time) bool {
	e := &t.entries[p]
	if !e.browned {
		return true
	}
	if now.Sub(e.lastTrickle) >= t.oc.BrownoutProbeInterval {
		e.lastTrickle = now
		return true
	}
	return false
}

// browned is the main-loop view of p's brownout.
//
//presslint:hotpath budget=0
func (t *peerTable) browned(p int) bool { return t.entries[p].browned }

// pick returns the least-loaded of cachers that is not this node, not
// dead and not tried, -1 if none. A browned-out peer is passed over
// while a healthy one is left, but — unlike a dead one — stays eligible
// as a last resort: slow beats local disk when the disk path is the
// bottleneck being escaped. (A brownout redirect wants a healthy peer or
// none, and checks the answer.)
func (t *peerTable) pick(cachers, tried cache.NodeSet) int {
	best, bestBrowned := -1, -1
	for p := range t.entries {
		e := t.peer(p)
		if e == nil || e.state == StateDead || !cachers.Has(p) || tried.Has(p) {
			continue
		}
		b := &best
		if e.browned {
			b = &bestBrowned
		}
		if *b < 0 || e.load < t.entries[*b].load {
			*b = p
		}
	}
	if best < 0 {
		return bestBrowned
	}
	return best
}

// state is p's published NodeState; no node at all reads as dead.
func (t *peerTable) state(p int) NodeState {
	if p < 0 || p >= len(t.word) {
		return StateDead
	}
	return NodeState(t.word[p].Load() &^ brownedBit)
}

// brownedOut is p's published brownout.
//
//presslint:hotpath budget=0
func (t *peerTable) brownedOut(p int) bool {
	return p >= 0 && p < len(t.word) && t.word[p].Load()&brownedBit != 0
}

// alive is the published set of nodes not dead, self included.
func (t *peerTable) alive() cache.NodeSet { return cache.NodeSetFromMask(t.mask.Load()) }

// degraded reports, from the published mask, that every peer is dead:
// there is no cluster left to aggregate caches with, and the node falls
// back to content-oblivious local service.
func (t *peerTable) degraded() bool {
	return len(t.entries) > 1 && t.mask.Load() == 1<<uint(t.self)
}
