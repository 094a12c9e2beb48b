package server

import (
	"errors"
	"time"

	"press/via"
)

// A failed send is not retried in place. The transports bounce a send
// that a reconnect superseded onto the fresh channel (supersedeBounces);
// anything else reaches handleSendFailure, which classifies it here and
// fails the owning forward over. What the server still paces are the
// loops that wait for a peer to come back: reconnect probes, the mesh
// redial, a fault plan.

// retrySeed makes the pacing jitter deterministic: it seeds the peer
// table's probe jitter.
const retrySeed = 1

// sleeper paces a loop (a fault plan) on one reusable timer:
// time.After in a loop would leak a timer per turn.
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

// hardSendErr reports whether a send failure is evidence that the peer
// is dead: a peer already marked down (on VIA, every failed channel is
// reported so), a severed link, a broken VI — and a reliable send that
// found no receive descriptor, which breaks the VI at both ends, so
// sending again only meets via.ErrBroken. The rest of what Send returns
// is grounds for suspicion only: a channel superseded more often than
// Send bounces, a transport closing under the send (via.ErrClosed), a
// TCP write's socket error, no channel to the peer yet, a post's other
// refusals (via.ErrTooLong, via.ErrProtection) and a message that does
// not encode.
func hardSendErr(err error) bool {
	return errors.Is(err, ErrPeerDown) || errors.Is(err, via.ErrLinkDown) ||
		errors.Is(err, via.ErrBroken) || errors.Is(err, via.ErrNoRecvDescriptor)
}
