package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"press/trace"
	"press/via"
)

// ErrNoSuchFile reports a request for a name outside the served file
// population. The HTTP front end maps it to 404; every other internal
// failure (a crashed service node, an exhausted failover) maps to 502
// so availability tooling can tell the two apart.
var ErrNoSuchFile = errors.New("server: no such file")

// Store is the site content every PRESS node holds on its local disk:
// the whole document tree. It is one per process, not one per node: a
// Store is immutable after NewStore, so the nodes of an in-process
// cluster (Start) share one without a lock, and each still pays its own
// disk delay and counts its own reads (NodeStats.DiskReads). Reads pay
// an artificial latency so cache locality matters even with an
// in-memory backing store.
type Store struct {
	files map[string][]byte
	delay time.Duration // Read's; a node passes its own to read
}

// NewStore builds a store holding deterministic synthetic content for
// every file of the trace. Content is a name-seeded byte pattern, so
// end-to-end tests can verify that the right bytes reached the client
// no matter which node served them.
func NewStore(t *trace.Trace, readDelay time.Duration) *Store {
	s := &Store{files: make(map[string][]byte, len(t.Files)), delay: readDelay}
	for _, f := range t.Files {
		s.files[f.Name] = SynthesizeContent(f.Name, f.Size)
	}
	return s
}

// SynthesizeContent generates the deterministic content of a file: a
// name-seeded xorshift64 stream, each step's word written as 8
// little-endian bytes, so the content of a size is a prefix of the
// content of every larger size.
func SynthesizeContent(name string, size int64) []byte {
	h := fnv.New64a()
	h.Write([]byte(name))
	state := h.Sum64()
	out := make([]byte, size)
	for i := 0; i < len(out); i += 8 {
		// xorshift64 keeps generation fast and content incompressible
		// enough to be a fair payload.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if len(out)-i >= 8 {
			binary.LittleEndian.PutUint64(out[i:], state)
			continue
		}
		for j := i; j < len(out); j++ { // the tail: a word's first bytes
			out[j] = byte(state)
			state >>= 8
		}
	}
	return out
}

// Read returns the file content after the store's simulated disk delay,
// or an error for unknown names. The returned slice is shared; callers
// must not modify it.
func (s *Store) Read(name string) ([]byte, error) { return s.read(name, s.delay) }

// read is Read with the delay of the node reading.
func (s *Store) read(name string, delay time.Duration) ([]byte, error) {
	data, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	if delay > 0 {
		// The simulated disk latency is the modelled workload delay (the
		// paper's disk-bound working sets). via.Delay blocks this disk
		// thread in the kernel, as a real read would, and keeps a
		// sub-millisecond delay from being rounded up to the runtime's 1 ms.
		via.Delay(delay)
	}
	return data, nil
}
