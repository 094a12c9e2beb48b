// Package clean is the other half of the pair: the same handler with
// the timer owned by a long-lived object and Reset per request. Nothing
// here may be reported.
package clean

import "time"

type responseWriter interface{ Write([]byte) (int, error) }

type request struct{ done chan struct{} }

const clientTimeout = 30 * time.Second

// pooled is recycled across requests and owns its timer, stopped
// whenever it is not in a handler's wait.
type pooled struct {
	answer chan []byte
	timer  *time.Timer
}

// newPooled runs when the pool is empty, not once per request: no
// ServeHTTP reaches it through a call the analyzer can see.
func newPooled() *pooled {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &pooled{answer: make(chan []byte, 1), timer: t}
}

type handler struct {
	free chan *pooled
	work chan *pooled
}

func (h *handler) ServeHTTP(w responseWriter, r *request) {
	p := <-h.free
	h.work <- p
	p.timer.Reset(clientTimeout)
	select {
	case body := <-p.answer:
		w.Write(body)
		if p.timer.Stop() {
			h.free <- p
		}
	case <-p.timer.C:
	}
	// A goroutine the handler starts is not the request's own path.
	go func() {
		<-time.After(time.Second)
	}()
}

// ServeHTTP with another arity is not an http.Handler.
func (p *pooled) ServeHTTP() {
	<-time.After(time.Second)
}
