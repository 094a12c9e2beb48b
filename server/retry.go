package server

import (
	"errors"
	"math/rand"
	"time"

	"press/via"
)

// Bounded retry with capped exponential backoff and jitter. Transient
// transport failures — a full send queue, a lossy unreliable channel —
// deserve another attempt after a short pause; hard faults (a severed
// link, a broken VI, a peer marked down) do not, and retrying them only
// delays failover. The classification lives here so every retry site in
// the server agrees on it.

// The retry policy for transient transport failures. No caller ever set
// these, so they are constants.
const (
	// retryAttempts is the maximum number of tries per operation, the
	// first included.
	retryAttempts = 4
	// retryBase is the backoff before the first retry — the send queue
	// drains in microseconds on the software VIA.
	retryBase = 100 * time.Microsecond
	// retryCap bounds the exponentially growing backoff.
	retryCap = 5 * time.Millisecond
	// retrySeed makes the jitter deterministic; it also seeds the load
	// disseminator and the health tracker's probe jitter.
	retrySeed = 1
)

// backoff walks one operation's retry schedule: exponential from
// retryBase, capped at retryCap, with each step jittered to
// [step/2, step) so colliding retriers desynchronize. Not safe for
// concurrent use; each goroutine owns its own.
type backoff struct {
	rng     *rand.Rand
	attempt int
}

func newBackoff(seedOffset int64) *backoff {
	return &backoff{rng: rand.New(rand.NewSource(retrySeed + seedOffset))}
}

// next returns the pause before the next attempt, or ok == false when
// the attempt budget is exhausted.
func (b *backoff) next() (time.Duration, bool) {
	b.attempt++
	if b.attempt >= retryAttempts {
		return 0, false
	}
	step := retryBase << (b.attempt - 1)
	if step > retryCap || step <= 0 {
		step = retryCap
	}
	half := step / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1)), true
}

// reset rewinds the schedule after a success.
func (b *backoff) reset() { b.attempt = 0 }

// sleeper paces a loop — a retry schedule, a fault plan, a redial — on
// one reusable timer: time.After in a loop would leak a timer per turn.
type sleeper struct{ timer *time.Timer }

// sleep waits d out and reports true, or false as soon as stop closes.
func (s *sleeper) sleep(d time.Duration, stop <-chan struct{}) bool {
	if s.timer == nil {
		s.timer = time.NewTimer(d)
	} else {
		s.timer.Reset(d)
	}
	select {
	case <-s.timer.C:
		return true
	case <-stop:
		s.timer.Stop()
		return false
	}
}

// transientSendErr reports whether a send failure is worth retrying in
// place: backpressure clears, a dropped unreliable frame can be re-sent.
// Link faults, broken VIs, closed transports, peers marked down, and
// remote-write timeouts are hard — the caller should fail over instead.
func transientSendErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, via.ErrLinkDown) || errors.Is(err, via.ErrBroken) ||
		errors.Is(err, via.ErrClosed) || errors.Is(err, ErrPeerDown) {
		return false
	}
	// A superseded channel means the peer reconnected mid-send: the retry
	// rides the fresh channel, so this is transient by construction.
	return errors.Is(err, via.ErrQueueFull) || errors.Is(err, via.ErrNoRecvDescriptor) ||
		errors.Is(err, errSuperseded)
}
