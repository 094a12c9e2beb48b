package server

import (
	"math/bits"
	"sync"
)

// Receive buffers: a forwarded file has exactly one buffer between the
// transport and the client socket, and its ownership moves instead of
// its bytes (DESIGN.md "Receive buffers"). The transport fills a recvBuf
// with the one copy it cannot avoid, the MsgFile Message carries it to
// the main loop, a whole-file reply is adopted as the clientResult, and
// the HTTP handler releases it after the body is written. Every other
// way a reply ends never releases: the buffer is then the GC's, so a
// missed release costs a pool miss and nothing else.

// Size classes are the powers of two from 512 B to 1 MiB; a larger
// request is a plain allocation that release lets go.
const (
	recvMinShift = 9
	recvMaxShift = 20
)

var recvPools [recvMaxShift - recvMinShift + 1]sync.Pool

// recvBuf is one receive buffer and the token of its ownership: whoever
// holds the pointer may read b, and exactly one holder may release it.
type recvBuf struct {
	b []byte
}

// recvClass returns the pool index for an n-byte buffer, -1 above the
// largest class.
func recvClass(n int) int {
	if n <= 1<<recvMinShift {
		return 0
	}
	if n > 1<<recvMaxShift {
		return -1
	}
	return bits.Len(uint(n-1)) - recvMinShift
}

// getRecvBuf returns a buffer with len(b) == n. Its bytes are not
// zeroed: the caller overwrites all n.
func getRecvBuf(n int) *recvBuf {
	c := recvClass(n)
	if c < 0 {
		return &recvBuf{b: make([]byte, n)}
	}
	if rb, ok := recvPools[c].Get().(*recvBuf); ok {
		rb.b = rb.b[:n]
		return rb
	}
	return &recvBuf{b: make([]byte, n, 1<<(c+recvMinShift))}
}

// release returns the buffer to its pool. The caller must be the sole
// owner and must not touch b afterwards. A nil receiver (a result that
// never owned a receive buffer) is a no-op.
func (rb *recvBuf) release() {
	if rb == nil {
		return
	}
	if c := recvClass(cap(rb.b)); c >= 0 {
		recvPools[c].Put(rb)
	}
}
