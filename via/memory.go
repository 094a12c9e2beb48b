package via

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Handle names a registered memory region; applications exchange
// handles (over regular messages) to grant remote-write access, as real
// VIA applications exchange memory handles at setup time.
type Handle uint32

// MemoryRegion is a registered buffer. Registration mirrors VIA's
// requirement that all transfer memory be registered (locked in
// physical memory) so the NIC can DMA directly into user buffers.
//
// A region may be written concurrently by the NIC (remote memory
// writes, receive DMA) while the owner polls it, so all accesses go
// through the locked accessors; Load32/Store32 give the acquire/release
// pairing that makes the paper's poll-on-sequence-number pattern sound.
type MemoryRegion struct {
	nic    *NIC
	handle Handle
	// written marks the region as on its NIC's written list; guarded by
	// nic.bellMu.
	written bool

	mu sync.Mutex
	// buf is nil once deregistered.
	buf []byte
	// remoteWrite permits RDMA writes into this region.
	remoteWrite bool
}

// Handle returns the region's handle.
func (r *MemoryRegion) Handle() Handle { return r.handle }

// Size returns the region length in bytes (0 once deregistered).
func (r *MemoryRegion) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// EnableRemoteWrite permits remote memory writes into the region.
func (r *MemoryRegion) EnableRemoteWrite() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remoteWrite = true
}

// RemoteWritable reports whether remote memory writes may land in the
// region; a region is read-only to peers until EnableRemoteWrite.
func (r *MemoryRegion) RemoteWritable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.remoteWrite
}

// Read copies region bytes [off, off+len(dst)) into dst.
func (r *MemoryRegion) Read(dst []byte, off int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return ErrRegionReleased
	}
	if off < 0 || off+len(dst) > len(r.buf) {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrProtection, off, off+len(dst), len(r.buf))
	}
	copy(dst, r.buf[off:])
	return nil
}

// Write copies src into the region at off. It is a local write by the
// owning process (e.g. staging data before a send).
func (r *MemoryRegion) Write(src []byte, off int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return ErrRegionReleased
	}
	if off < 0 || off+len(src) > len(r.buf) {
		return fmt.Errorf("%w: write [%d,%d) of %d", ErrProtection, off, off+len(src), len(r.buf))
	}
	copy(r.buf[off:], src)
	return nil
}

// Load32 reads a little-endian uint32 at off; receivers use it to poll
// sequence numbers written by remote memory writes.
func (r *MemoryRegion) Load32(off int) (uint32, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return 0, ErrRegionReleased
	}
	if off < 0 || off+4 > len(r.buf) {
		return 0, fmt.Errorf("%w: load32 at %d of %d", ErrProtection, off, len(r.buf))
	}
	return binary.LittleEndian.Uint32(r.buf[off:]), nil
}

// Store32 writes a little-endian uint32 at off.
func (r *MemoryRegion) Store32(off int, v uint32) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return ErrRegionReleased
	}
	if off < 0 || off+4 > len(r.buf) {
		return fmt.Errorf("%w: store32 at %d of %d", ErrProtection, off, len(r.buf))
	}
	binary.LittleEndian.PutUint32(r.buf[off:], v)
	return nil
}

// Load64 reads a little-endian uint64 at off.
func (r *MemoryRegion) Load64(off int) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return 0, ErrRegionReleased
	}
	if off < 0 || off+8 > len(r.buf) {
		return 0, fmt.Errorf("%w: load64 at %d of %d", ErrProtection, off, len(r.buf))
	}
	return binary.LittleEndian.Uint64(r.buf[off:]), nil
}

// Store64 writes a little-endian uint64 at off.
func (r *MemoryRegion) Store64(off int, v uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return ErrRegionReleased
	}
	if off < 0 || off+8 > len(r.buf) {
		return fmt.Errorf("%w: store64 at %d of %d", ErrProtection, off, len(r.buf))
	}
	binary.LittleEndian.PutUint64(r.buf[off:], v)
	return nil
}

// payload is the bytes one delivery carries: gathered into buf (the
// wire, a bridge frame), or, when src is set, still in the sender's
// registered memory at [off, off+n), to be copied from there straight
// into the target.
type payload struct {
	buf []byte
	src *MemoryRegion
	off int
	n   int
}

func bytesPayload(b []byte) payload { return payload{buf: b, n: len(b)} }

// copyTo copies payload bytes [from, from+len(dst)) into dst. The
// caller holds p.src's lock (see lockPair).
func (p payload) copyTo(dst []byte, from int) error {
	if p.src == nil {
		copy(dst, p.buf[from:])
		return nil
	}
	src := p.src.buf
	if src == nil {
		return ErrRegionReleased
	}
	if at := p.off + from; at < 0 || at+len(dst) > len(src) {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrProtection, at, at+len(dst), len(src))
	}
	copy(dst, src[p.off+from:])
	return nil
}

// lockPair locks dst and the payload's source region, if it has one:
// both in one global order, (NIC address, handle), the way bind orders
// VIs, so two NICs copying between each other's regions at once cannot
// deadlock. unlockPair releases what lockPair took.
func lockPair(dst *MemoryRegion, p payload) {
	first, second := dst, p.src
	if second == nil || second == first {
		first.mu.Lock()
		return
	}
	if second.before(first) {
		first, second = second, first
	}
	first.mu.Lock()
	//presslint:ignore lock-order the two regions are locked in the global (NIC address, handle) order chosen above, so crossed copies cannot deadlock
	second.mu.Lock()
}

func unlockPair(dst *MemoryRegion, p payload) {
	dst.mu.Unlock()
	if p.src != nil && p.src != dst {
		p.src.mu.Unlock()
	}
}

// before orders regions by (NIC address, handle): unique among the
// regions of one fabric.
func (r *MemoryRegion) before(o *MemoryRegion) bool {
	if r.nic.addr != o.nic.addr {
		return r.nic.addr < o.nic.addr
	}
	return r.handle < o.handle
}

// readable checks that [off, off+n) can be read, as Read would.
func (r *MemoryRegion) readable(off, n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return ErrRegionReleased
	}
	if off < 0 || n < 0 || off+n > len(r.buf) {
		return fmt.Errorf("%w: read [%d,%d) of %d", ErrProtection, off, off+n, len(r.buf))
	}
	return nil
}

// rdmaWrite is the fabric-side entry: copy the payload into the region
// at off if the protection checks pass.
func (r *MemoryRegion) rdmaWrite(p payload, off int) error {
	lockPair(r, p)
	defer unlockPair(r, p)
	if r.buf == nil {
		return ErrRegionReleased
	}
	if !r.remoteWrite {
		return fmt.Errorf("%w: region %d not enabled for remote write", ErrProtection, r.handle)
	}
	if off < 0 || off > len(r.buf)-p.n {
		return fmt.Errorf("%w: remote write [%d,%d) of %d", ErrProtection, off, off+p.n, len(r.buf))
	}
	return p.copyTo(r.buf[off:off+p.n], 0)
}

// copyIn copies payload bytes [from, from+k) into the region at off, a
// segment of limit bytes, without the remote-write check (receive DMA
// into a posted descriptor's buffer).
func (r *MemoryRegion) copyIn(p payload, from, k, off, limit int) error {
	lockPair(r, p)
	defer unlockPair(r, p)
	if r.buf == nil {
		return ErrRegionReleased
	}
	if off < 0 || off+limit > len(r.buf) {
		return fmt.Errorf("%w: recv [%d,%d) of %d", ErrProtection, off, off+limit, len(r.buf))
	}
	return p.copyTo(r.buf[off:off+k], from)
}

func (r *MemoryRegion) released() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf == nil
}
