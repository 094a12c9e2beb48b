package via

import (
	"fmt"
	"sync"
)

// connReq is a pending connection request delivered to a Listener.
type connReq struct {
	fromVI *VI
	reply  chan error
}

// Listener accepts VI connections on a named service, the connection
// brokering the operating system performs at VIA setup time (the only
// part of communication where it is involved).
type Listener struct {
	nic     *NIC
	service string
	ch      chan *connReq
	closed  chan struct{}

	mu   sync.Mutex
	done bool
}

// Listen registers a service name on the NIC.
func (n *NIC) Listen(service string) (*Listener, error) {
	if service == "" {
		return nil, fmt.Errorf("via: empty service name")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.listeners[service]; dup {
		return nil, fmt.Errorf("via: service %q already listening on %s", service, n.addr)
	}
	l := &Listener{
		nic:     n,
		service: service,
		ch:      make(chan *connReq, 16),
		closed:  make(chan struct{}),
	}
	n.listeners[service] = l
	return l, nil
}

func (n *NIC) listener(service string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	l, ok := n.listeners[service]
	if !ok {
		return nil, fmt.Errorf("%w: %q on %s", ErrUnknownService, service, n.addr)
	}
	return l, nil
}

// Accept blocks for the next connection request and binds it to the
// given local VI, returning the dialing NIC's address. The local VI
// must be idle.
func (l *Listener) Accept(vi *VI) (remoteAddr string, err error) {
	select {
	case req := <-l.ch:
		if err := bind(req.fromVI, vi); err != nil {
			req.reply <- err
			return "", err
		}
		req.reply <- nil
		return req.fromVI.nic.addr, nil
	case <-l.closed:
		return "", ErrClosed
	}
}

// Close stops the listener; blocked Accept and Connect calls fail with
// ErrClosed.
func (l *Listener) Close() {
	l.mu.Lock()
	if l.done {
		l.mu.Unlock()
		return
	}
	l.done = true
	close(l.closed)
	l.mu.Unlock()
	// Past this point l.mu is released: the NIC lock and the dialer
	// replies below must not nest under it (found by presslint's
	// mutex-across-block when the replies still ran under l.mu).
	l.nic.mu.Lock()
	delete(l.nic.listeners, l.service)
	l.nic.mu.Unlock()
	// Reject queued dialers. Each reply channel is 1-buffered and
	// written exactly once, so the sends cannot block.
	for {
		select {
		case req := <-l.ch:
			req.reply <- ErrClosed
		default:
			return
		}
	}
}
