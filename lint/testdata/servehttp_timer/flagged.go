// Package flagged is the per-request half of time-after-loop's fixture
// pair: every timer armed on a path a ServeHTTP method reaches on its
// own goroutine is a timer per request. Lines marked "want" must be
// reported.
package flagged

import "time"

type responseWriter interface{ Write([]byte) (int, error) }

type request struct{ done chan struct{} }

type handler struct{ answers chan []byte }

const clientTimeout = 30 * time.Second

func (h *handler) ServeHTTP(w responseWriter, r *request) {
	timeout := time.NewTimer(clientTimeout) // want
	defer timeout.Stop()
	select {
	case body := <-h.answers:
		w.Write(body)
	case <-timeout.C:
		h.giveUp(w)
	}
}

// giveUp is reached from ServeHTTP: what it arms, it arms per request.
func (h *handler) giveUp(w responseWriter) {
	select {
	case body := <-h.answers:
		w.Write(body)
	case <-time.After(time.Second): // want
	}
	time.AfterFunc(time.Minute, func() {}) // want
}

// background is not on any handler's path.
func background(stop chan struct{}) {
	select {
	case <-stop:
	case <-time.After(time.Second):
	}
}
