package server

import (
	"sync"
	"testing"
)

func TestWorkQueueBounded(t *testing.T) {
	q := newWorkQueue[int](3)
	for i := 0; i < 3; i++ {
		if !q.push(i) {
			t.Fatalf("push %d refused below the limit", i)
		}
	}
	if q.push(99) {
		t.Fatal("push accepted beyond the limit")
	}
	if q.len() != 3 {
		t.Fatalf("len = %d after refused push, want 3", q.len())
	}
	if v, ok := q.pop(); !ok || v != 0 {
		t.Fatalf("pop = %d, %v", v, ok)
	}
	if !q.push(99) {
		t.Fatal("push refused after a pop freed a slot")
	}
}

// TestWorkQueueFIFOAndClose: items come out in push order, and a pop
// on a drained queue returns once the queue is closed.
func TestWorkQueueFIFOAndClose(t *testing.T) {
	q := newWorkQueue[int](10)
	for i := 0; i < 10; i++ {
		q.push(i)
	}
	if q.len() != 10 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 10; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, ok)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := q.pop(); ok {
			t.Error("pop after close returned ok")
		}
	}()
	q.close()
	<-done
}

// TestWorkQueueCompaction pins the memory-retention fix: popping used
// to do items = items[1:], which kept both the popped element and the
// whole backing array alive forever. The drained array must be
// released (observable via cap) and popped slots zeroed.
func TestWorkQueueCompaction(t *testing.T) {
	const n = 4096
	q := newWorkQueue[*[]byte](n)
	for i := 0; i < n; i++ {
		buf := make([]byte, 16)
		q.push(&buf)
	}
	if cap(q.items) < n {
		t.Fatalf("backing array cap = %d, want >= %d", cap(q.items), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	q.mu.Lock()
	drainedCap := cap(q.items)
	q.mu.Unlock()
	if drainedCap > compactAbove {
		t.Errorf("drained queue still holds a %d-slot backing array", drainedCap)
	}

	// Part-drained compaction: pop most of a large batch and check the
	// backing array was slid down rather than left growing.
	for i := 0; i < n; i++ {
		buf := make([]byte, 16)
		q.push(&buf)
	}
	for i := 0; i < n-compactAbove; i++ {
		q.pop()
	}
	q.mu.Lock()
	if q.head != 0 {
		t.Errorf("head = %d after heavy drain, want compaction to 0", q.head)
	}
	if got := len(q.items); got != compactAbove {
		t.Errorf("len(items) = %d, want %d", got, compactAbove)
	}
	// The live region must hold only the remaining items; everything
	// behind it must have been zeroed when popped or compacted away.
	for i, p := range q.items[:compactAbove] {
		if p == nil {
			t.Fatalf("live slot %d zeroed by compaction", i)
		}
	}
	q.mu.Unlock()
	for i := 0; i < compactAbove; i++ {
		if v, ok := q.pop(); !ok || v == nil {
			t.Fatalf("pop after compaction: %v, %v", v, ok)
		}
	}
}

// TestWorkQueueZeroesPoppedSlot checks pop does not leave the dequeued
// element reachable from the backing array.
func TestWorkQueueZeroesPoppedSlot(t *testing.T) {
	q := newWorkQueue[*int](2)
	x := new(int)
	q.push(x)
	q.push(new(int))
	q.pop()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items[0] != nil {
		t.Error("popped slot still references the element")
	}
}

func TestWorkQueueConcurrent(t *testing.T) {
	const producers, each = 8, 500
	q := newWorkQueue[int](producers * each)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.push(p*each + i)
			}
		}(p)
	}
	seen := make(map[int]bool, producers*each)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := q.pop()
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("value %d popped twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	q.close()
	cg.Wait()
	if len(seen) != producers*each {
		t.Fatalf("popped %d distinct values, want %d", len(seen), producers*each)
	}
}
