package via

import (
	"fmt"
	"sync"
	"time"
)

// CompletionQueue combines the completion notifications of multiple
// receive queues into a single queue (Section 2.1), so one thread can
// wait for activity on many VIs — PRESS's receive thread does exactly
// this. Only receives complete into it: a send is finished when its
// post returns.
//
// Size the queue for the sum of the attached receive-queue depths: a
// full CQ stalls whoever completes into it — the goroutine posting the
// send that lands — the software analogue of a CQ overrun error in the
// VIA specification.
type CompletionQueue struct {
	ch   chan Completion
	done chan struct{}

	mu     sync.Mutex
	closed bool
}

// NewCompletionQueue creates a CQ holding up to depth undelivered
// completions.
func NewCompletionQueue(depth int) (*CompletionQueue, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("via: CQ depth must be positive, got %d", depth)
	}
	return &CompletionQueue{
		ch:   make(chan Completion, depth),
		done: make(chan struct{}),
	}, nil
}

// push delivers a completion, or drops it if the CQ has been closed;
// the descriptor itself still carries its status either way.
func (cq *CompletionQueue) push(c Completion) {
	select {
	case cq.ch <- c:
	case <-cq.done:
	}
}

// Wait blocks for the next completion. timeout <= 0 waits forever. It
// returns ErrClosed once the CQ is closed and ErrTimeout on expiry.
func (cq *CompletionQueue) Wait(timeout time.Duration) (Completion, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case c := <-cq.ch:
		return c, nil
	case <-cq.done:
		// Drain whatever was queued before the close.
		select {
		case c := <-cq.ch:
			return c, nil
		default:
			return Completion{}, ErrClosed
		}
	case <-timer:
		return Completion{}, ErrTimeout
	}
}

// Poll returns a completion if one is immediately available.
func (cq *CompletionQueue) Poll() (Completion, bool) {
	select {
	case c := <-cq.ch:
		return c, true
	default:
		return Completion{}, false
	}
}

// Close releases waiters with ErrClosed (after any already-queued
// completions drain). Completions arriving afterwards are dropped from
// the CQ but still carry their own descriptor status.
func (cq *CompletionQueue) Close() {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if cq.closed {
		return
	}
	cq.closed = true
	close(cq.done)
}
