package server

import (
	"errors"
	"fmt"
	"time"

	"press/metrics"
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
// counters in its account registry, summed per family by Node.Stats;
// acceptDelay has no NodeStats view and is nil without Config.Metrics.
// The maps are built once and only read afterwards, so the HTTP
// goroutines may touch them concurrently with the main loop.
type overloadInstruments struct {
	shed        map[[2]string]*metrics.Counter // [queue, reason]
	expired     map[string]*metrics.Counter    // stage
	goodput     *metrics.Counter
	acceptDelay *metrics.Histogram // accept-queue wait, nanoseconds
}

func newOverloadInstruments(account, r *metrics.Registry, id int) overloadInstruments {
	node := fmt.Sprintf("node=%d", id)
	im := overloadInstruments{
		shed:    make(map[[2]string]*metrics.Counter),
		expired: make(map[string]*metrics.Counter),
		goodput: account.Counter("press_goodput_requests_total", node),
		acceptDelay: r.Histogram("press_queue_delay_ns", node,
			"queue="+shedQueueAccept),
	}
	for _, q := range []string{shedQueueAccept, shedQueueDispatch, shedQueueDisk} {
		for _, reason := range []string{shedReasonFull, shedReasonQueueDelay} {
			im.shed[[2]string{q, reason}] = account.Counter("press_shed_total", node,
				"queue="+q, "reason="+reason)
		}
	}
	for _, st := range []string{dlStageAccept, dlStageSend, dlStagePending, dlStageDisk, dlStageReply} {
		im.expired[st] = account.Counter("press_deadline_expired_total", node, "stage="+st)
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

// overloadCtl is the per-node overload state: the configuration and
// the goodput accounting. A peer's brownout lives in its peerTable
// entry (peers.go).
type overloadCtl struct {
	cfg OverloadConfig
	im  overloadInstruments
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
