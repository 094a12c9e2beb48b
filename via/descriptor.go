package via

import (
	"fmt"
	"sync"
	"time"
)

// Segment is one piece of a descriptor's gather/scatter list: a range
// of a registered memory region.
type Segment struct {
	Region *MemoryRegion
	Offset int
	Len    int
}

func (s Segment) validate() error {
	if s.Region == nil {
		return fmt.Errorf("via: segment with nil region")
	}
	if s.Len < 0 || s.Offset < 0 {
		return fmt.Errorf("via: segment with negative offset/length")
	}
	return nil
}

// DescStatus is a descriptor's lifecycle state.
type DescStatus int

const (
	// DescIdle: not posted.
	DescIdle DescStatus = iota
	// DescPosted: owned by the VI: a send or remote write while its post
	// moves it, a receive until a send lands in it.
	DescPosted
	// DescDone: completed successfully.
	DescDone
	// DescError: completed with an error (see Descriptor.Err).
	DescError
)

// Descriptor describes one transfer request: a gather/scatter list over
// registered memory plus, for remote memory writes, the remote target.
// The network interface processes posted descriptors and marks them
// complete; descriptors are then reused for subsequent requests
// (Section 2.1). A send or remote write is complete when its post
// returns; a receive completes when a send lands in it.
type Descriptor struct {
	segments []Segment

	// remote memory write target (op == opRDMA).
	remoteHandle Handle
	remoteOffset int

	mu     sync.Mutex
	status DescStatus
	xfer   int
	err    error
	// done is the completion signal: capacity one, made by the first
	// blocking wait and kept, so reuse allocates it once. complete raises
	// it without blocking; a signal may outlive the wait it was for, so a
	// waiter takes a wake as "look again", never as "done".
	done chan struct{}
}

// NewDescriptor builds a descriptor over the given segments.
func NewDescriptor(segments ...Segment) (*Descriptor, error) {
	for _, s := range segments {
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	return &Descriptor{segments: segments}, nil
}

// MustDescriptor is NewDescriptor for segments known to be valid.
func MustDescriptor(segments ...Segment) *Descriptor {
	d, err := NewDescriptor(segments...)
	if err != nil {
		panic(err)
	}
	return d
}

// Len returns the total gather/scatter length.
func (d *Descriptor) Len() int {
	n := 0
	for _, s := range d.segments {
		n += s.Len
	}
	return n
}

// Status returns the descriptor's current state.
func (d *Descriptor) Status() DescStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.status
}

// Err returns the completion error, if any.
func (d *Descriptor) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Transferred returns the number of payload bytes moved.
func (d *Descriptor) Transferred() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.xfer
}

// Wait blocks until the descriptor completes or the timeout elapses
// (timeout <= 0 waits forever), and returns the completion error. One
// waiter at a time. Only the status ends the wait, looked at before the
// timer is armed and after every wake: a signal left over from an
// earlier transfer costs one more look, never an early return.
func (d *Descriptor) Wait(timeout time.Duration) error {
	ch, finished, err := d.settled()
	if finished {
		return err
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		select {
		case <-ch:
			if _, finished, err := d.settled(); finished {
				return err
			}
		case <-expired:
			return ErrTimeout
		}
	}
}

// settled returns the completion signal, made on first use, and whether
// the descriptor has completed, with its error if so.
func (d *Descriptor) settled() (done <-chan struct{}, finished bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.status == DescDone || d.status == DescError {
		return nil, true, d.err
	}
	if d.done == nil {
		d.done = make(chan struct{}, 1)
	}
	return d.done, false, nil
}

// SetSegment points segment i of an idle or completed descriptor at a
// new range, so one descriptor serves transfers whose source moves (a
// different cache page each time). The NIC owns a posted descriptor:
// retargeting one is an error.
func (d *Descriptor) SetSegment(i int, s Segment) error {
	if err := s.validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.status == DescPosted {
		return fmt.Errorf("via: SetSegment of a posted descriptor")
	}
	if i < 0 || i >= len(d.segments) {
		return fmt.Errorf("via: descriptor has no segment %d", i)
	}
	d.segments[i] = s
	return nil
}

// Reset returns a completed descriptor to the idle state so it can be
// posted again. Resetting a posted descriptor panics: the NIC still
// owns it.
func (d *Descriptor) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.status == DescPosted {
		panic("via: Reset of a posted descriptor")
	}
	d.status = DescIdle
	d.err = nil
	d.xfer = 0
}

// markPosted transitions to DescPosted; the caller must be the owning
// queue. Reports an error if the descriptor is already in flight.
func (d *Descriptor) markPosted() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.status == DescPosted {
		return fmt.Errorf("via: descriptor already posted")
	}
	if d.status != DescIdle {
		// Auto-reset completed descriptors on repost for convenience.
		d.err = nil
		d.xfer = 0
	}
	d.status = DescPosted
	return nil
}

func (d *Descriptor) complete(n int, err error) {
	d.mu.Lock()
	if d.status != DescPosted {
		d.mu.Unlock()
		panic("via: completion of unposted descriptor")
	}
	d.xfer = n
	d.err = err
	if err != nil {
		d.status = DescError
	} else {
		d.status = DescDone
	}
	done := d.done
	d.mu.Unlock()
	select {
	case done <- struct{}{}:
	default: // no waiter yet, or a signal is already pending
	}
}

// gather serializes the descriptor's segments ("DMA out" of sender
// memory onto the wire) into buf, grown if it is too small, copying
// each segment directly into its slice of the result.
func (d *Descriptor) gather(buf []byte) ([]byte, error) {
	size := d.Len()
	if cap(buf) < size {
		//presslint:alloc-gated the wire grows to the largest gathered transfer once, then is reused
		buf = make([]byte, size)
	}
	out := buf[:size]
	n := 0
	for _, s := range d.segments {
		if err := s.Region.Read(out[n:n+s.Len], s.Offset); err != nil {
			return nil, err
		}
		n += s.Len
	}
	return out, nil
}

// scatter distributes the payload into the descriptor's segments ("DMA
// in" to receiver memory); it must fit.
func (d *Descriptor) scatter(p payload) (int, error) {
	if p.n > d.Len() {
		return 0, ErrTooLong
	}
	written := 0
	for _, s := range d.segments {
		if written == p.n {
			break
		}
		k := min(s.Len, p.n-written)
		if err := s.Region.copyIn(p, written, k, s.Offset, s.Len); err != nil {
			return written, err
		}
		written += k
	}
	return written, nil
}
