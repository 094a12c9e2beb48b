package server

import (
	"errors"
	"fmt"
	"sync"

	"press/core"
	"press/metrics"
	"press/tracing"
	"press/via"
)

// TransportMetrics is a transport's unified observability snapshot. It
// replaces the former Stats()+CopiedBytes() pair with one value read
// atomically enough for reporting.
type TransportMetrics struct {
	// Msgs is the per-type message accounting (counts and byte
	// volumes), the data behind the paper's Table 4.
	Msgs core.MsgStats
	// CopiedBytes is the payload bytes the server had to copy beyond
	// the transfer itself: staging copies at senders and the
	// copy-to-another-buffer at receivers. Zero-copy versions eliminate
	// them (Section 3.4). The TCP transport reports the bytes handed to
	// the kernel, which copies at both ends.
	CopiedBytes int64
	// CreditStalls counts sends that had to block on the window-based
	// flow control before a slot freed up. Always zero on TCP, whose
	// flow control is the kernel's.
	CreditStalls int64
	// PollWakes counts the times the VIA poll thread woke — on the NIC's
	// remote-write doorbell or a transport kick — and PollEmpty those
	// wakes that found nothing to deliver. An idle transport adds to
	// neither. Always zero on TCP, which has no poll thread.
	PollWakes, PollEmpty int64
}

// Transport moves Messages between cluster nodes. Implementations:
// kernel TCP over loopback (tcpTransport) and software VIA
// (viaTransport) with regular or remote-memory-write channels.
type Transport interface {
	// Send delivers m to node dst. It may block on flow control or
	// transport backpressure, so the node calls it from its send
	// helper goroutine, never from the main loop (Figure 2). It keeps
	// nothing of m after it returns: the caller reuses the Message.
	Send(dst int, m *Message) error
	// Inbound is the merged stream of messages from all peers, fed by
	// the transport's receive machinery, by value.
	Inbound() <-chan Message
	// Metrics snapshots the transport's counters.
	Metrics() TransportMetrics
	// Close tears the transport down; Inbound is closed afterwards.
	Close() error
	// PeerDown marks dst dead: in-flight and future sends to it fail
	// promptly with an error wrapping ErrPeerDown instead of blocking on
	// flow control.
	PeerDown(dst int, reason error)
	// Reconnect re-establishes the channel to dst after a failure (on
	// VIA, also the first one). VIA returns errPassiveRole when dst is
	// expected to dial us instead, errDialing while a dial is in flight.
	Reconnect(dst int) error
}

// ErrPeerDown marks a send addressed to a peer the transport has been
// told is dead (see Transport.PeerDown). It is a hard failure:
// retrying cannot help until the peer is reconnected.
var ErrPeerDown = errors.New("server: peer down")

// The VIA transport's Reconnect does not dial when the channel is the
// other side's to dial (errPassiveRole: the lower index dials, at
// bring-up and after a failure alike) or a dial to the peer is already
// in flight (errDialing). A channel has one dial at a time, so both ends
// promote the same one. (TCP dials from either side and lets epochs
// settle the race.)
var (
	errPassiveRole = errors.New("server: reconnect is dialed from the other side")
	errDialing     = errors.New("server: a dial to this peer is in flight")
)

// errSuperseded marks a send that failed because the peer re-dialed and
// a fresh channel replaced the one the send was riding. It is the
// opposite of evidence of death — the peer just proved it is alive — so
// the transport sends again on the fresh channel.
var errSuperseded = errors.New("server: channel superseded by reconnect")

// supersedeBounces bounds that retry, the only one a send gets, on TCP
// and VIA alike: a send that failed as superseded (bounces) goes out
// again while the peer table holds a newer channel than the one it
// failed on, at most this many times. Each bounce needs an actually-new
// channel, so it cannot spin.
const supersedeBounces = 8

// bounces reports whether a failed send may go out again on a fresh
// channel. Besides errSuperseded that is via.ErrNoRecvDescriptor: a VI
// closed by its owner has no receive posted for the instant before it
// goes, so a send meets it when the peer retires a channel a reconnect
// replaced before this side has marked the old one superseded.
func bounces(err error) bool {
	return errors.Is(err, errSuperseded) || errors.Is(err, via.ErrNoRecvDescriptor)
}

// msgAccounting counts messages per type on lock-free counters interned
// in the node's account registry under the owning node's label — the
// counters themselves are the accounting, so a scrape adds no second
// bookkeeping path.
type msgAccounting struct {
	count [core.NumMsgTypes]*metrics.Counter
	bytes [core.NumMsgTypes]*metrics.Counter
}

func (a *msgAccounting) add(t core.MsgType, bytes int64) {
	a.count[t].Inc()
	a.bytes[t].Add(bytes)
}

func (a *msgAccounting) snapshot() core.MsgStats {
	var s core.MsgStats
	for t := core.MsgType(0); t < core.NumMsgTypes; t++ {
		s.Count[t] = a.count[t].Value()
		s.Bytes[t] = a.bytes[t].Value()
	}
	return s
}

// transportInstruments bundles the counters every transport maintains,
// as press_msgs_total{node=N,type=T}, press_msg_bytes{node=N,type=T},
// press_copied_bytes{node=N}, press_credit_stalls_total{node=N},
// press_poll_wakes_total{node=N} and press_poll_empty_total{node=N} in
// the node's account registry (see Node.account); Metrics() and
// /_press/metrics are reads of them.
type transportInstruments struct {
	acct      msgAccounting
	copied    *metrics.Counter
	stalls    *metrics.Counter
	pollWakes *metrics.Counter
	pollEmpty *metrics.Counter
}

func newTransportInstruments(account *metrics.Registry, self int) transportInstruments {
	var ins transportInstruments
	node := fmt.Sprintf("node=%d", self)
	for t := core.MsgType(0); t < core.NumMsgTypes; t++ {
		typ := "type=" + t.String()
		ins.acct.count[t] = account.Counter("press_msgs_total", node, typ)
		ins.acct.bytes[t] = account.Counter("press_msg_bytes", node, typ)
	}
	ins.copied = account.Counter("press_copied_bytes", node)
	ins.stalls = account.Counter("press_credit_stalls_total", node)
	ins.pollWakes = account.Counter("press_poll_wakes_total", node)
	ins.pollEmpty = account.Counter("press_poll_empty_total", node)
	return ins
}

// metrics assembles the TransportMetrics snapshot from the instruments.
func (ins *transportInstruments) metrics() TransportMetrics {
	return TransportMetrics{
		Msgs:         ins.acct.snapshot(),
		CopiedBytes:  ins.copied.Value(),
		CreditStalls: ins.stalls.Value(),
		PollWakes:    ins.pollWakes.Value(),
		PollEmpty:    ins.pollEmpty.Value(),
	}
}

// creditGate implements the sender half of window-based flow control:
// at most window units in flight per channel, unblocked by credits that
// arrive either as explicit flow messages or as a consumed counter
// remote-memory-written into the sender's registered region. A unit is
// a message on the regular channel, an entry of a slot ring, or a byte of
// the file data area, whose sent count is its virtual write offset.
type creditGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	window   int64
	sent     int64
	consumed int64
	closed   bool
	// failErr, when non-nil, is why the gate closed: peer death rather
	// than orderly shutdown. Senders blocked on the window observe it
	// instead of a generic closed error, so a request waiting for credit
	// from a dead peer fails over immediately.
	failErr error
	// name labels the gate in the credit-stall span of a traced wait.
	name string
	// stalls, when set, counts acquires that had to wait (one per
	// acquire, not per wakeup). Nil-safe, so gates on disabled
	// transports leave it unset; so is trc.
	stalls *metrics.Counter
	trc    *tracing.Collector
}

func newCreditGate(name string, window int, stalls *metrics.Counter, trc *tracing.Collector) *creditGate {
	g := &creditGate{name: name, window: int64(window), stalls: stalls, trc: trc}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until n more units fit the window, then claims them.
// trace and parent carry the sender's trace context: the span is
// speculative, recorded only if the window was actually exhausted and
// discarded otherwise (nil collector or zero trace: no span, no cost).
// The error is why the gate closed.
func (g *creditGate) acquire(n int64, trace tracing.TraceID, parent tracing.SpanID) error {
	stall := g.trc.StartSpan("credit-stall", trace, parent)
	stalled := false
	g.mu.Lock()
	for g.sent+n-g.consumed > g.window && !g.closed {
		if !stalled {
			stalled = true
			g.stalls.Inc()
		}
		g.cond.Wait()
	}
	var err error
	switch {
	case !g.closed:
		g.sent += n
	case g.failErr != nil:
		err = g.failErr
	default:
		err = via.ErrClosed
	}
	g.mu.Unlock()
	if stalled {
		stall.AnnotateStr("gate", g.name)
		stall.End()
	} else {
		stall.Cancel()
	}
	return err
}

// release gives back n units claimed for a write that never reached the
// NIC (outWrite.transfer): the peer will not consume what was not sent,
// so nothing else would ever return them to the window.
func (g *creditGate) release(n int64) {
	g.mu.Lock()
	g.sent -= n
	g.mu.Unlock()
	g.cond.Broadcast()
}

// credit grants n slots back (explicit flow message).
func (g *creditGate) credit(n int64) {
	g.mu.Lock()
	g.consumed += n
	g.mu.Unlock()
	g.cond.Broadcast()
}

// setConsumed installs an absolute consumed counter (RMW flow control:
// the receiver writes its cumulative count into the sender's memory).
func (g *creditGate) setConsumed(v int64) {
	g.mu.Lock()
	if v > g.consumed {
		g.consumed = v
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// fail closes the gate attributing the closure to err (nil: orderly
// shutdown); waiters parked on acquire wake and their callers report it.
// The first failure sticks; a plain close never overwrites it.
func (g *creditGate) fail(err error) {
	g.mu.Lock()
	g.closed = true
	if g.failErr == nil {
		g.failErr = err
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// inFlight returns the units sent and, of those, not yet consumed.
func (g *creditGate) inFlight() (sent, unacked int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sent, g.sent - g.consumed
}
