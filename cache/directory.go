package cache

import (
	"fmt"
	"math/bits"
)

// nodeSetWords is the number of 64-bit words backing a NodeSet.
const nodeSetWords = 4

// MaxNodes is the largest cluster a NodeSet can describe. The sharded
// directory makes 256-node clusters meaningful: caching state no longer
// has to be broadcast everywhere, so the directory scales past the
// paper's 8-node testbed.
const MaxNodes = nodeSetWords * 64

// NodeSet is a set of cluster node indices, up to MaxNodes. It is a
// value type: all operations return new sets and the zero value
// (NodeSet{}) is the empty set.
type NodeSet [nodeSetWords]uint64

// NodeSetFromMask builds a set from a 64-node bitmask (bit i = node i),
// the form the server's peer table publishes atomically.
func NodeSetFromMask(mask uint64) NodeSet { return NodeSet{mask} }

// NodeSetOf builds a set from the listed node indices.
func NodeSetOf(nodes ...int) NodeSet {
	var s NodeSet
	for _, n := range nodes {
		s = s.Add(n)
	}
	return s
}

// Add returns the set with node n added.
func (s NodeSet) Add(n int) NodeSet {
	s[uint(n)/64] |= 1 << (uint(n) % 64)
	return s
}

// Remove returns the set with node n removed.
func (s NodeSet) Remove(n int) NodeSet {
	s[uint(n)/64] &^= 1 << (uint(n) % 64)
	return s
}

// Has reports whether node n is in the set.
func (s NodeSet) Has(n int) bool {
	return n >= 0 && n < MaxNodes && s[uint(n)/64]&(1<<(uint(n)%64)) != 0
}

// Len returns the set's cardinality.
func (s NodeSet) Len() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s NodeSet) Empty() bool { return s == NodeSet{} }

// Intersect returns the nodes present in both sets.
func (s NodeSet) Intersect(o NodeSet) NodeSet {
	for i := range s {
		s[i] &= o[i]
	}
	return s
}

// Union returns the nodes present in either set.
func (s NodeSet) Union(o NodeSet) NodeSet {
	for i := range s {
		s[i] |= o[i]
	}
	return s
}

// Nodes returns the members in ascending order.
func (s NodeSet) Nodes() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// ForEach calls fn for each member in ascending order, without
// allocating.
func (s NodeSet) ForEach(fn func(n int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// Directory is a cluster-wide view of which nodes cache which files, as
// assembled from caching-information broadcasts. The simulator keeps a
// single shared directory (caching broadcasts are "very infrequent in
// steady-state", Section 2.2, so view divergence is negligible there);
// the real server keeps one per node and feeds it received broadcasts.
type Directory struct {
	nodes   int
	cachers []NodeSet // indexed by FileID
	// everSeen marks files that have been requested at least once
	// anywhere in the cluster: PRESS services first-time requests at
	// the initial node.
	everSeen []bool
}

// NewDirectory returns a directory for a cluster of the given size over
// a file population of the given size.
func NewDirectory(nodes, files int) *Directory {
	if nodes <= 0 || nodes > MaxNodes {
		panic(fmt.Sprintf("cache: node count %d out of range 1..%d", nodes, MaxNodes))
	}
	if files < 0 {
		panic(fmt.Sprintf("cache: negative file count %d", files))
	}
	return &Directory{
		nodes:    nodes,
		cachers:  make([]NodeSet, files),
		everSeen: make([]bool, files),
	}
}

// Nodes returns the cluster size.
func (d *Directory) Nodes() int { return d.nodes }

// Cachers returns the set of nodes caching the file.
func (d *Directory) Cachers(id FileID) NodeSet { return d.cachers[id] }

// SetCached records that node n caches (cached=true) or no longer
// caches the file.
func (d *Directory) SetCached(id FileID, n int, cached bool) {
	if cached {
		d.cachers[id] = d.cachers[id].Add(n)
	} else {
		d.cachers[id] = d.cachers[id].Remove(n)
	}
}

// PurgeNode removes node n from every file's cacher set and returns how
// many entries were dropped. A node declared dead must disappear from
// the caching view at once: forwarding to it would strand requests, and
// its cache contents are unknown once it recovers (it re-announces them
// via caching broadcasts on re-integration).
func (d *Directory) PurgeNode(n int) int {
	purged := 0
	for id, set := range d.cachers {
		if set.Has(n) {
			d.cachers[id] = set.Remove(n)
			purged++
		}
	}
	return purged
}

// FirstRequest reports whether the file has never been requested before
// and marks it seen.
func (d *Directory) FirstRequest(id FileID) bool {
	if d.everSeen[id] {
		return false
	}
	d.everSeen[id] = true
	return true
}

// Seen reports whether the file has been requested before, without
// marking it.
func (d *Directory) Seen(id FileID) bool { return d.everSeen[id] }

// MarkSeen records that the file has been requested somewhere in the
// cluster. Nodes call it when a caching broadcast arrives: a file being
// cached elsewhere is clearly not a first request anymore.
func (d *Directory) MarkSeen(id FileID) { d.everSeen[id] = true }
