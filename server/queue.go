package server

import "sync"

// workQueue is the shared data structure between the main loop and its
// helper threads (Figure 2): the main loop must never block, so it
// pushes digests here and the helper drains them at its own pace.
//
// push refuses new work when the backlog is at the limit, which is the
// admission-control half of the overload layer — the caller sheds, the
// queue never grows without bound.
//
// Popped slots are zeroed and the backing array is compacted once the
// drained prefix dominates it, so a long-lived queue under sustained
// load does not pin every message it ever carried (the former
// `items = items[1:]` retained both the popped elements and the
// ever-growing backing array).
type workQueue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	head   int // items[:head] are popped, zeroed slots
	limit  int
	closed bool
}

// compactAbove is the drained-prefix size beyond which pop considers
// compacting; small queues are left alone to avoid churn on the hot
// path.
const compactAbove = 64

func newWorkQueue[T any](limit int) *workQueue[T] {
	q := &workQueue[T]{limit: limit}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues an item; it never blocks. It reports false — and
// enqueues nothing — when the backlog already sits at the limit; the
// caller owns the shed decision.
//
//presslint:hotpath budget=0
func (q *workQueue[T]) push(item T) bool {
	q.mu.Lock()
	if len(q.items)-q.head >= q.limit {
		q.mu.Unlock()
		return false
	}
	//presslint:alloc-gated amortized-free: append reuses capacity reclaimed by compactLocked; steady state proven by BenchmarkForwarded1K
	q.items = append(q.items, item)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pop dequeues the next item, blocking until one is available or the
// queue is closed (ok == false).
//
//presslint:hotpath budget=0
func (q *workQueue[T]) pop() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items)-q.head == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items)-q.head == 0 {
		return item, false
	}
	var zero T
	item = q.items[q.head]
	q.items[q.head] = zero // do not pin the popped element
	q.head++
	q.compactLocked()
	return item, true
}

// compactLocked reclaims the drained prefix. A fully drained queue
// whose backing array grew well past the compaction threshold is
// released outright (the next burst reallocates at its own size); a
// part-drained queue whose popped prefix dominates is slid down in
// place so the array stops growing under sustained load.
func (q *workQueue[T]) compactLocked() {
	n := len(q.items) - q.head
	if n == 0 {
		q.items = q.items[:0]
		q.head = 0
		if cap(q.items) > compactAbove {
			q.items = nil
		}
		return
	}
	if q.head >= compactAbove && q.head >= n {
		var zero T
		copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = zero
		}
		q.items = q.items[:n]
		q.head = 0
	}
}

// close wakes all poppers; pending items are still drained first.
func (q *workQueue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// len reports the current backlog.
func (q *workQueue[T]) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
