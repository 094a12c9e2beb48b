// Package via is a software implementation of the Virtual Interface
// Architecture (VIA) industry standard for user-level communication
// (Compaq/Intel/Microsoft, 1997), the communication substrate of the
// PRESS server. It provides, in-process:
//
//   - NICs connected by a Fabric (the cluster interconnect), with
//     node-level fault injection: isolating a node, or slowing one;
//   - Virtual Interfaces (VIs): connected communication end-points,
//     each with a receive work queue of descriptors; a send or remote
//     write posted on one moves before the post returns, and the post
//     returns its error;
//   - memory registration: every buffer involved in a transfer must be
//     registered first, mirroring the page-locking requirement that
//     enables DMA directly from user memory;
//   - completion queues (CQs) combining receive completions of many VIs;
//   - remote memory writes (RDMA writes) into registered remote
//     regions, with no remote-processor involvement — receivers poll
//     the region, as PRESS does with its circular buffers;
//   - one service level, reliable delivery (exactly once, in order,
//     errors reported), the one PRESS runs every VI at.
//
// Like the Giganet cLAN hardware used in the paper, this implementation
// supports remote memory writes but not remote memory reads, and not
// reliable reception (Section 2.1).
package via

import "errors"

// Reliability is the service level of a VI (Section 2.1). Reliable
// delivery is the only one provided: PRESS runs no other, and its error
// model (a failed transfer is reported and breaks the connection) rests
// on it.
type Reliability int

// ReliableDelivery: data submitted for transfer arrives at the
// destination network interface exactly once and in order, in the
// absence of errors; errors are reported and break the connection.
const ReliableDelivery Reliability = 1

// Errors reported by the package.
var (
	// ErrClosed: the NIC, VI, or fabric has been closed.
	ErrClosed = errors.New("via: closed")
	// ErrNotConnected: the VI is not connected to a remote VI.
	ErrNotConnected = errors.New("via: VI not connected")
	// ErrAlreadyConnected: the VI is already connected.
	ErrAlreadyConnected = errors.New("via: VI already connected")
	// ErrQueueFull: the receive queue has no free descriptor slots.
	ErrQueueFull = errors.New("via: work queue full")
	// ErrNoRecvDescriptor: a message arrived at a VI with no posted
	// receive descriptor; the connection is broken.
	ErrNoRecvDescriptor = errors.New("via: no receive descriptor posted")
	// ErrTooLong: the payload does not fit the receive descriptor or
	// the remote region window.
	ErrTooLong = errors.New("via: message exceeds buffer")
	// ErrProtection: the remote handle is invalid, out of bounds, or
	// not enabled for remote writes.
	ErrProtection = errors.New("via: remote memory protection violation")
	// ErrTimeout: a wait timed out.
	ErrTimeout = errors.New("via: timeout")
	// ErrUnknownAddress: no NIC with that address is on the fabric.
	ErrUnknownAddress = errors.New("via: unknown address")
	// ErrUnknownService: the remote NIC is not listening on the
	// requested service.
	ErrUnknownService = errors.New("via: unknown service")
	// ErrRejected: the remote side rejected the connection.
	ErrRejected = errors.New("via: connection rejected")
	// ErrBroken: the connection has been broken by a previous error.
	ErrBroken = errors.New("via: connection broken")
	// ErrRegionReleased: the memory region has been deregistered.
	ErrRegionReleased = errors.New("via: memory region deregistered")
)
