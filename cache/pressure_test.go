package cache

import (
	"math/rand"
	"testing"
)

// TestLRUPressureRandomized runs a seeded op mix (insert, touch,
// remove) at storm intensity, checking after every op that the cache
// never holds more bytes than its capacity, and that the drained cache
// is empty: no entry is stuck.
func TestLRUPressureRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	c := NewLRU(500)
	for i := 0; i < 20000; i++ {
		id := FileID(rng.Intn(40))
		switch rng.Intn(7) {
		case 0, 1, 2, 3: // insert-heavy: this is a pressure test
			c.Insert(id, int64(10+rng.Intn(90)))
		case 4, 5:
			c.Touch(id)
		case 6:
			c.Remove(id)
		}
		if c.Used() > c.Capacity() {
			t.Fatalf("op %d: used %d over capacity", i, c.Used())
		}
	}
	for _, id := range c.Files() {
		if !c.Remove(id) {
			t.Fatalf("file %d unremovable", id)
		}
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatalf("drained cache not empty: used %d len %d", c.Used(), c.Len())
	}
}
