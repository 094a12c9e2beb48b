package via

import (
	"fmt"
	"time"
)

// Fault injection is node-level, as the server's chaos is: the fabric
// can isolate a NIC, the software analogue of pulling the node's cLAN
// cable, and transfers touching it fail — detected and reported,
// breaking the connection, per the VIA error model. It can also slow a
// node without severing anything — the gray-failure mode (overcommitted
// host, failing disk, congested uplink) that health checks built on
// dead-or-alive evidence cannot see.

// Isolate severs every link of one NIC address. It is idempotent and
// accepts unknown addresses (the node stays isolated if such a NIC
// appears later).
func (f *Fabric) Isolate(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.isolated == nil {
		f.isolated = make(map[string]struct{})
	}
	f.isolated[addr] = struct{}{}
}

// HealNode lifts an Isolate, restoring every link of the address.
func (f *Fabric) HealNode(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.isolated, addr)
}

// SlowNode adds extra one-way delay to every transfer touching the
// given NIC address — a slow-but-alive node: its links stay up, its
// messages all arrive, they just take longer. Idempotent (the latest
// delay wins); unknown addresses are accepted. extra <= 0 restores the
// node's normal speed.
func (f *Fabric) SlowNode(addr string, extra time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if extra <= 0 {
		delete(f.slowed, addr)
		return
	}
	if f.slowed == nil {
		f.slowed = make(map[string]time.Duration)
	}
	f.slowed[addr] = extra
}

// link reports whether the two addresses can currently communicate and
// the extra delay a transfer between them takes: the larger of their
// SlowNode penalties (delays do not stack — the slowest party on the
// path sets the pace).
func (f *Fabric) link(a, b string) (up bool, slow time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, cutA := f.isolated[a]
	_, cutB := f.isolated[b]
	return !cutA && !cutB, max(f.slowed[a], f.slowed[b])
}

// ErrLinkDown is reported on transfers to or from an isolated node.
var ErrLinkDown = fmt.Errorf("via: link down")
