package cache

import (
	"testing"
	"testing/quick"
)

func TestLRUBasicInsertAndLookup(t *testing.T) {
	c := NewLRU(100)
	if c.Capacity() != 100 || c.Used() != 0 || c.Len() != 0 {
		t.Fatal("fresh cache not empty")
	}
	ev, ok := c.Insert(1, 40)
	if !ok || len(ev) != 0 {
		t.Fatalf("insert: ev=%v ok=%v", ev, ok)
	}
	if !c.Contains(1) || c.Used() != 40 || c.Len() != 1 {
		t.Fatal("state after insert wrong")
	}
	if c.Contains(2) {
		t.Fatal("phantom file")
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU(100)
	c.Insert(1, 40)
	c.Insert(2, 40)
	c.Touch(1) // 2 is now LRU
	ev, ok := c.Insert(3, 40)
	if !ok {
		t.Fatal("insert 3 failed")
	}
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatal("wrong residents")
	}
}

func TestLRUMultipleEvictions(t *testing.T) {
	c := NewLRU(100)
	c.Insert(1, 30)
	c.Insert(2, 30)
	c.Insert(3, 30)
	ev, ok := c.Insert(4, 95)
	if !ok || len(ev) != 3 {
		t.Fatalf("ev=%v ok=%v", ev, ok)
	}
	if c.Used() != 95 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestLRUOversizedFileRejected(t *testing.T) {
	c := NewLRU(100)
	c.Insert(1, 50)
	ev, ok := c.Insert(2, 101)
	if ok || len(ev) != 0 {
		t.Fatalf("oversized insert: ev=%v ok=%v", ev, ok)
	}
	if !c.Contains(1) {
		t.Fatal("oversized insert disturbed cache")
	}
}

func TestLRUReinsertTouches(t *testing.T) {
	c := NewLRU(100)
	c.Insert(1, 40)
	c.Insert(2, 40)
	if _, ok := c.Insert(1, 40); !ok {
		t.Fatal("reinsert failed")
	}
	if c.Used() != 80 {
		t.Fatalf("used = %d after reinsert", c.Used())
	}
	// 2 must now be the eviction victim.
	ev, _ := c.Insert(3, 40)
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
}

func TestLRURemove(t *testing.T) {
	c := NewLRU(100)
	c.Insert(1, 60)
	if !c.Remove(1) {
		t.Fatal("remove failed")
	}
	if c.Contains(1) || c.Used() != 0 {
		t.Fatal("remove did not clear state")
	}
	if c.Remove(1) {
		t.Fatal("double remove succeeded")
	}
}

func TestLRUBadParamsPanic(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewLRU(0) did not panic")
			}
		}()
		NewLRU(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Insert size 0 did not panic")
			}
		}()
		NewLRU(10).Insert(1, 0)
	}()
}

func TestLRUFilesOrder(t *testing.T) {
	c := NewLRU(100)
	c.Insert(1, 10)
	c.Insert(2, 10)
	c.Insert(3, 10)
	c.Touch(1)
	got := c.Files()
	want := []FileID{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("files = %v, want %v", got, want)
		}
	}
}

// Property: used bytes never exceed capacity and always equal the sum of
// resident sizes, across arbitrary insert sequences.
func TestLRUInvariants(t *testing.T) {
	check := func(ops []uint16) bool {
		c := NewLRU(1000)
		sizes := map[FileID]int64{}
		for _, op := range ops {
			id := FileID(op % 50)
			size := int64(op%300) + 1
			if prev, ok := sizes[id]; ok {
				size = prev // reinsert keeps original size
			}
			ev, ok := c.Insert(id, size)
			if ok {
				sizes[id] = size
			}
			for _, e := range ev {
				delete(sizes, e)
			}
			if !ok && size <= 1000 && len(ev) == 0 && c.Used()+size <= 1000 {
				return false // refused although it would fit
			}
		}
		var sum int64
		for id, s := range sizes {
			if !c.Contains(id) {
				return false
			}
			sum += s
		}
		return c.Used() == sum && c.Used() <= c.Capacity() && c.Len() == len(sizes)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
