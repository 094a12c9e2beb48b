// Package cache implements the per-node main-memory file cache of a
// locality-conscious server and the cluster-wide cache directory built
// from caching-information broadcasts.
//
// PRESS aggregates the memories of the cluster into one large cache:
// each node runs an LRU cache over whole files, broadcasts insertions
// and replacements to its peers, and uses the resulting directory to
// route requests to nodes likely to hold the file (Section 2.2).
package cache

import (
	"container/list"
	"fmt"
)

// FileID identifies a file within a trace (its index).
type FileID = int32

// LRU is a byte-capacity LRU cache over whole files. It is not
// goroutine-safe; the simulator is single-threaded and the real server
// confines each node's cache to its main loop.
type LRU struct {
	capacity int64
	used     int64
	order    *list.List // front = most recently used
	entries  map[FileID]*list.Element
}

type lruEntry struct {
	id   FileID
	size int64
}

// NewLRU returns an empty cache with the given byte capacity.
// Capacity must be positive.
func NewLRU(capacity int64) *LRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity must be positive, got %d", capacity))
	}
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[FileID]*list.Element),
	}
}

// Capacity returns the configured byte capacity.
func (c *LRU) Capacity() int64 { return c.capacity }

// Used returns the bytes currently cached.
func (c *LRU) Used() int64 { return c.used }

// Len returns the number of cached files.
func (c *LRU) Len() int { return len(c.entries) }

// Contains reports whether the file is cached, without touching
// recency.
func (c *LRU) Contains(id FileID) bool {
	_, ok := c.entries[id]
	return ok
}

// Touch marks the file most recently used, reporting whether it was
// present.
func (c *LRU) Touch(id FileID) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	c.order.MoveToFront(e)
	return true
}

// Insert adds the file, evicting least-recently-used files to make
// room, and reports the evicted file IDs. Files larger than the capacity
// are not cached (inserted == false). Inserting a present file just
// touches it.
func (c *LRU) Insert(id FileID, size int64) (evicted []FileID, inserted bool) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: non-positive size %d for file %d", size, id))
	}
	if e, ok := c.entries[id]; ok {
		c.order.MoveToFront(e)
		return nil, true
	}
	if size > c.capacity {
		return nil, false
	}
	for c.used+size > c.capacity {
		victim := c.order.Back()
		ent := victim.Value.(*lruEntry)
		c.order.Remove(victim)
		delete(c.entries, ent.id)
		c.used -= ent.size
		evicted = append(evicted, ent.id)
	}
	c.entries[id] = c.order.PushFront(&lruEntry{id: id, size: size})
	c.used += size
	return evicted, true
}

// Remove evicts the file explicitly, reporting whether it was present.
func (c *LRU) Remove(id FileID) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	ent := e.Value.(*lruEntry)
	c.order.Remove(e)
	delete(c.entries, id)
	c.used -= ent.size
	return true
}

// Files returns the cached file IDs, most recently used first.
func (c *LRU) Files() []FileID {
	out := make([]FileID, 0, len(c.entries))
	for e := c.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*lruEntry).id)
	}
	return out
}
