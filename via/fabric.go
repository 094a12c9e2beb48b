package via

import (
	"fmt"
	"sync"
	"time"

	"press/metrics"
)

// FabricOption configures a Fabric.
type FabricOption func(*Fabric)

// WithMetrics attaches an observability registry: every NIC created on
// the fabric registers per-NIC counters (sends, receives, remote
// writes, bytes) and a send completion-latency histogram. A nil
// registry (the default) disables the latency histogram entirely; the
// counters always run, as they back NIC.Stats.
func WithMetrics(r *metrics.Registry) FabricOption {
	return func(f *Fabric) { f.metrics = r }
}

// Fabric is the cluster interconnect: it owns the NIC address space and
// the node-level faults (see Isolate and SlowNode). All NICs on one
// fabric can connect to each other.
type Fabric struct {
	metrics *metrics.Registry

	mu       sync.Mutex
	nics     map[string]*NIC
	isolated map[string]struct{}
	slowed   map[string]time.Duration
	closed   bool
}

// NewFabric creates an interconnect.
func NewFabric(opts ...FabricOption) *Fabric {
	f := &Fabric{nics: make(map[string]*NIC)}
	for _, o := range opts {
		o(f)
	}
	return f
}

// CreateNIC attaches a new NIC with the given address to the fabric.
// It starts no goroutine: each transfer moves on the goroutine that
// posts it.
func (f *Fabric) CreateNIC(addr string) (*NIC, error) {
	if addr == "" {
		return nil, fmt.Errorf("via: empty NIC address")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if _, dup := f.nics[addr]; dup {
		return nil, fmt.Errorf("via: address %q already on fabric", addr)
	}
	n := newNIC(f, addr)
	f.nics[addr] = n
	return n, nil
}

// lookup resolves an address to its NIC.
func (f *Fabric) lookup(addr string) (*NIC, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	n, ok := f.nics[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddress, addr)
	}
	return n, nil
}

// Close shuts down the fabric and every NIC on it.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	nics := make([]*NIC, 0, len(f.nics))
	for _, n := range f.nics {
		nics = append(nics, n)
	}
	f.mu.Unlock()
	for _, n := range nics {
		n.Close()
	}
}

func (f *Fabric) remove(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.nics, addr)
}
