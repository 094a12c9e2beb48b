package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"press/metrics"
	"press/telemetry"
)

// Overload control keeps the cluster doing useful work past saturation
// instead of queueing itself to death: bounded queues shed excess
// arrivals with prompt 503s (admission control), every request carries
// a deadline so no node burns disk or wire on work the client has
// already given up on (deadline propagation), and a peer that is slow
// but alive — the gray failure PR 4's dead-or-alive tracker cannot see
// — is browned out of the forwarding path without purging its cache
// directory entries. Goodput (requests served within deadline), not
// throughput, is the success metric.

// ErrShed reports a request refused by admission control: a bounded
// queue was full or the queue delay exceeded the configured target. The
// HTTP front end maps it to 503 + Retry-After.
var ErrShed = errors.New("server: request shed by overload control")

// ErrDeadlineExpired reports a request dropped because its deadline
// passed before it could be served. Also 503 + Retry-After: the client
// had given up, so serving it would have been wasted work, not goodput.
var ErrDeadlineExpired = errors.New("server: request deadline expired")

// OverloadConfig tunes admission control, deadline propagation, and
// slow-peer brownout, which every node runs; the zero value selects the
// defaults.
type OverloadConfig struct {
	// AcceptQueue bounds the HTTP accept queue (requests waiting for
	// the main loop). Arrivals beyond it are shed with 503. Default 128.
	AcceptQueue int
	// DiskQueue bounds the disk-read queue. Reads beyond it are shed.
	// Default 256.
	DiskQueue int
	// RequestTimeout is each request's deadline budget, stamped at
	// accept; the remaining budget travels with every forward. Work
	// whose budget runs out is dropped, not served. Default twice
	// Health.FailoverTimeout, so an overdue forward fails over once
	// before its client's budget runs out.
	RequestTimeout time.Duration
	// QueueDelayTarget, when positive, sheds a request at dequeue if it
	// waited in the accept queue longer than this (CoDel-style: under
	// standing queues, sustained delay — not occupancy — is the overload
	// signal). Zero keeps drop-newest-only admission.
	QueueDelayTarget time.Duration
	// BrownoutLatency, when positive, browns a peer out once the EWMA of
	// its forward→reply latency exceeds it; recovery needs the EWMA back
	// under half the threshold (hysteresis). Zero disables the
	// latency-driven signal.
	BrownoutLatency time.Duration
	// BrownoutOutstanding browns a peer out once this many forwards to
	// it are outstanding (a slow peer accumulates them even when its
	// latency samples lag). Default 64; negative disables.
	BrownoutOutstanding int
	// BrownoutProbeInterval paces the trickle of probe forwards a
	// browned-out peer still receives so its recovery can be observed.
	// Default 200ms.
	BrownoutProbeInterval time.Duration
}

// The two overload settings no deployment tunes.
const (
	// dispatchQueueLimit bounds the send queue (outbound intra-cluster
	// messages). A full queue sheds whatever send is handed, and each
	// kind recovers its own way: a forward falls back to local service,
	// a file reply to the origin's failover, a load broadcast or
	// heartbeat to the next one (or the next piggy-backed value), a
	// sharded lookup to its timeout's local service, and a lost caching
	// update to the next update of that entry.
	dispatchQueueLimit = 1024
	// retryAfterSeconds is the Retry-After hint on 503 responses.
	retryAfterSeconds = "1"
)

var retryAfter = []string{retryAfterSeconds} // shared: net/http only copies header values

// withDefaults fills in the zero fields; failoverTimeout is the
// defaulted Health.FailoverTimeout the request deadline is sized to.
func (c OverloadConfig) withDefaults(failoverTimeout time.Duration) (OverloadConfig, error) {
	if c.AcceptQueue == 0 {
		c.AcceptQueue = 128
	}
	if c.DiskQueue == 0 {
		c.DiskQueue = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * failoverTimeout
	}
	if c.BrownoutOutstanding == 0 {
		c.BrownoutOutstanding = 64
	}
	if c.BrownoutProbeInterval == 0 {
		c.BrownoutProbeInterval = 200 * time.Millisecond
	}
	if c.AcceptQueue < 0 || c.DiskQueue < 0 {
		return c, fmt.Errorf("server: OverloadConfig queue limits must be positive")
	}
	if c.RequestTimeout < 0 || c.QueueDelayTarget < 0 ||
		c.BrownoutLatency < 0 || c.BrownoutProbeInterval < 0 {
		return c, fmt.Errorf("server: OverloadConfig durations must be non-negative")
	}
	return c, nil
}

// The queues and reasons press_shed_total distinguishes.
const (
	shedQueueAccept   = "accept"
	shedQueueDispatch = "dispatch"
	shedQueueDisk     = "disk"

	shedReasonFull       = "full"
	shedReasonQueueDelay = "queue-delay"
)

// The pipeline stages press_deadline_expired_total distinguishes —
// where expired work was caught and dropped.
const (
	dlStageAccept  = "accept"  // in the accept queue, before dispatch
	dlStageSend    = "send"    // budget ran out in the send queue
	dlStagePending = "pending" // origin gave up waiting for the reply
	dlStageDisk    = "disk"    // disk read finished past the deadline
	dlStageReply   = "reply"   // completed, but past deadline: not served
)

// overloadInstruments are the goodput-accounting metric families.
// shed, expired and goodput are the node's account of those events —
// counterIn counters, summed per family by Node.Stats; brownouts and
// acceptDelay have no NodeStats view and are nil without a registry.
// The maps are built once and only read afterwards, so the HTTP
// goroutines may touch them concurrently with the main loop.
type overloadInstruments struct {
	shed        map[[2]string]*metrics.Counter // [queue, reason]
	expired     map[string]*metrics.Counter    // stage
	goodput     *metrics.Counter
	brownouts   []*metrics.Counter // transitions into brownout, per peer
	acceptDelay *metrics.Histogram // accept-queue wait, nanoseconds
}

func newOverloadInstruments(r *metrics.Registry, id, nodes int) overloadInstruments {
	node := fmt.Sprintf("node=%d", id)
	im := overloadInstruments{
		shed:      make(map[[2]string]*metrics.Counter),
		expired:   make(map[string]*metrics.Counter),
		goodput:   counterIn(r, "press_goodput_requests_total", node),
		brownouts: make([]*metrics.Counter, nodes),
		acceptDelay: r.Histogram("press_queue_delay_ns", node,
			"queue="+shedQueueAccept),
	}
	for _, q := range []string{shedQueueAccept, shedQueueDispatch, shedQueueDisk} {
		for _, reason := range []string{shedReasonFull, shedReasonQueueDelay} {
			im.shed[[2]string{q, reason}] = counterIn(r, "press_shed_total", node,
				"queue="+q, "reason="+reason)
		}
	}
	for _, st := range []string{dlStageAccept, dlStageSend, dlStagePending, dlStageDisk, dlStageReply} {
		im.expired[st] = counterIn(r, "press_deadline_expired_total", node, "stage="+st)
	}
	for p := 0; p < nodes; p++ {
		im.brownouts[p] = r.Counter("press_brownout_total", node, fmt.Sprintf("peer=%d", p))
	}
	return im
}

func (im *overloadInstruments) shedInc(queue, reason string) {
	im.shed[[2]string{queue, reason}].Inc()
}

func (im *overloadInstruments) expiredInc(stage string) {
	im.expired[stage].Inc()
}

// sumCounters totals one labelled family.
func sumCounters[K comparable](family map[K]*metrics.Counter) int64 {
	var sum int64
	for _, c := range family {
		sum += c.Value()
	}
	return sum
}

// peerPace is the main loop's view of one peer's responsiveness: the
// latency EWMA of completed forwards and the count still outstanding.
// Distinct from health state — a browned-out peer is alive, keeps its
// directory entries, and keeps exchanging load and directory messages;
// it just stops receiving the bulk of the forwarding traffic until it
// recovers.
type peerPace struct {
	ewma        time.Duration // smoothed forward→reply latency; 0 = no samples yet
	outstanding int
	browned     bool
	lastProbe   time.Time
}

// overloadCtl is the per-node overload state. Everything except
// brownedPub is owned by the main loop.
type overloadCtl struct {
	cfg        OverloadConfig
	pace       []peerPace
	brownedPub []atomic.Bool // published copies for tests/stats
	im         overloadInstruments
}

func newOverloadCtl(cfg Config, id int) overloadCtl {
	return overloadCtl{
		cfg:        cfg.Overload,
		pace:       make([]peerPace, cfg.Nodes),
		brownedPub: make([]atomic.Bool, cfg.Nodes),
		im:         newOverloadInstruments(cfg.Metrics, id, cfg.Nodes),
	}
}

// ewmaAlphaNum/Den ≈ 0.4: heavy enough that a handful of slow replies
// trips the brownout, light enough that one outlier does not.
const (
	ewmaAlphaNum = 2
	ewmaAlphaDen = 5
)

// ovForwardSent records a forward dispatched to dst.
//
//presslint:hotpath budget=0
func (n *Node) ovForwardSent(dst int, now time.Time) {
	n.ov.pace[dst].outstanding++
	n.ovUpdateBrown(dst, now)
}

// ovForwardDone records a forward that has left pending — answered,
// failed or failed over — and its latency sample: a peer that times
// requests out is slow by definition.
//
//presslint:hotpath budget=0
func (n *Node) ovForwardDone(dst int, elapsed time.Duration, now time.Time) {
	p := &n.ov.pace[dst]
	if p.outstanding > 0 {
		p.outstanding--
	}
	if p.ewma == 0 {
		p.ewma = elapsed
	} else {
		p.ewma += (elapsed - p.ewma) * ewmaAlphaNum / ewmaAlphaDen
	}
	n.ovUpdateBrown(dst, now)
}

// ovUpdateBrown recomputes dst's brownout state with hysteresis: enter
// when the EWMA exceeds BrownoutLatency or the outstanding count hits
// the cap, leave only when the EWMA has fallen under half the threshold
// and the backlog under half the cap.
func (n *Node) ovUpdateBrown(dst int, now time.Time) {
	p := &n.ov.pace[dst]
	lat, outCap := n.ov.cfg.BrownoutLatency, n.ov.cfg.BrownoutOutstanding
	over := (lat > 0 && p.ewma > lat) || (outCap > 0 && p.outstanding >= outCap)
	if !p.browned && over {
		p.browned = true
		p.lastProbe = now
		n.ov.brownedPub[dst].Store(true)
		n.ov.im.brownouts[dst].Inc()
		n.tel.Event(telemetry.EvBrownoutEnter, n.id, dst, "latency/backlog over threshold", int64(p.ewma))
		return
	}
	if p.browned {
		ok := (lat <= 0 || p.ewma < lat/2) && (outCap <= 0 || p.outstanding < (outCap+1)/2)
		if ok {
			p.browned = false
			n.ov.brownedPub[dst].Store(false)
			n.tel.Event(telemetry.EvBrownoutExit, n.id, dst, "recovered", int64(p.ewma))
		}
	}
}

// ovAllowForward decides whether a forward to dst may proceed. A
// healthy peer always may; a browned-out one only gets the trickle of
// probes that lets recovery be observed.
//
//presslint:hotpath budget=0
func (n *Node) ovAllowForward(dst int, now time.Time) bool {
	p := &n.ov.pace[dst]
	if !p.browned {
		return true
	}
	if now.Sub(p.lastProbe) >= n.ov.cfg.BrownoutProbeInterval {
		p.lastProbe = now
		return true
	}
	return false
}

// ovBrowned is the main-loop view of dst's brownout state.
//
//presslint:hotpath budget=0
func (n *Node) ovBrowned(dst int) bool {
	return n.ov.pace[dst].browned
}

// ovResetPeer clears a peer's pace on death or re-integration: the
// samples described a channel that no longer exists.
func (n *Node) ovResetPeer(peer int) {
	n.ov.pace[peer] = peerPace{}
	n.ov.brownedPub[peer].Store(false)
}

// PeerBrownedOut reports whether this node has browned peer out of its
// forwarding path; readable from any goroutine.
//
//presslint:hotpath budget=0
func (n *Node) PeerBrownedOut(peer int) bool {
	return peer >= 0 && peer < len(n.ov.brownedPub) && n.ov.brownedPub[peer].Load()
}

// shedClient answers a dequeued request with a shed/expired error and
// books it. The loadChange(+1) has already happened by the time any
// dequeue-side shed runs, so the HTTP handler's completion event keeps
// the load books balanced.
func (n *Node) shedClient(r *clientRequest, err error, queue, reason string) {
	n.ov.im.shedInc(queue, reason)
	r.span.AnnotateStr("shed", queue+"/"+reason)
	r.resp <- clientResult{err: fmt.Errorf("%w (%s queue, %s)", err, queue, reason)}
}

// expireClient answers a request whose deadline passed and books it.
func (n *Node) expireClient(r *clientRequest, stage string) {
	n.ov.im.expiredInc(stage)
	r.span.AnnotateStr("deadline-expired", stage)
	r.resp <- clientResult{err: fmt.Errorf("%w (%s)", ErrDeadlineExpired, stage)}
}
