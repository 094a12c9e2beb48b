// Package eventsim is a small deterministic discrete-event simulation
// engine: a virtual clock, an event heap, and FCFS single-server queueing
// resources with per-class busy-time accounting.
//
// The cluster simulator (internal/cluster) uses it to model each node's
// CPU, disk, and network interfaces: a request's lifecycle is a chain of
// Acquire calls on the resources it visits, and server throughput emerges
// from contention, exactly as in the queueing system the paper measures
// and models.
package eventsim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the simulation.
type Time int64

// Seconds converts a simulated instant to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// FromSeconds converts seconds to simulated Time.
func FromSeconds(s float64) Time { return Time(s * 1e9) }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulation: a clock plus a time-ordered event
// queue. Events scheduled for the same instant run in scheduling order,
// which keeps runs deterministic.
type Sim struct {
	now   Time
	seq   uint64
	queue eventHeap
	steps uint64
}

// New returns an empty simulation at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// NowNanos returns the current simulated time in nanoseconds — the
// shape external clock hooks (e.g. a tracing timestamp source) consume.
func (s *Sim) NowNanos() int64 { return int64(s.now) }

// Steps returns how many events have been executed.
func (s *Sim) Steps() uint64 { return s.steps }

// Pending returns the number of scheduled, not-yet-run events.
func (s *Sim) Pending() int { return len(s.queue) }

// Schedule runs fn at the given simulated instant. Scheduling into the
// past panics: it would violate causality and always indicates a bug in
// the caller.
func (s *Sim) Schedule(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %d before now %d", at, s.now))
	}
	s.seq++
	heap.Push(&s.queue, event{at: at, seq: s.seq, fn: fn})
}

// After runs fn d after the current instant. Negative d panics.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	s.Schedule(s.now+Time(d), fn)
}

// Every runs fn every d of simulated time, starting d from now, until
// fn returns false. Periodic timers (replication scans, telemetry
// sampling) use the return value to stop once the workload drains, so
// recurring timers never keep the event loop alive on their own.
// Non-positive d panics: it would spin the clock in place.
func (s *Sim) Every(d time.Duration, fn func() bool) {
	if d <= 0 {
		panic(fmt.Sprintf("eventsim: non-positive period %v", d))
	}
	s.After(d, func() {
		if fn() {
			s.Every(d, fn)
		}
	})
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for len(s.queue) > 0 {
		s.step()
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t. Events scheduled beyond t remain pending.
func (s *Sim) RunUntil(t Time) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor is RunUntil relative to the current instant.
func (s *Sim) RunFor(d time.Duration) {
	s.RunUntil(s.now + Time(d))
}

func (s *Sim) step() {
	e := heap.Pop(&s.queue).(event)
	s.now = e.at
	s.steps++
	e.fn()
}

// Resource is a single FCFS server: work acquired on it is serviced in
// arrival order, one demand at a time. Because each demand is known on
// arrival, the queue is represented by a single "free at" horizon, which
// is exact for FCFS.
//
// Busy time is accounted per caller-defined class so experiments can
// split, e.g., CPU time into intra-cluster communication vs request
// service (the paper's Figure 1).
type Resource struct {
	sim        *Sim
	name       string
	freeAt     Time
	busy       []time.Duration
	served     uint64
	waited     uint64
	waitTime   time.Duration
	maxBacklog time.Duration
}

// NewResource returns an idle resource attached to the simulation.
func (s *Sim) NewResource(name string) *Resource {
	return &Resource{sim: s, name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Acquire enqueues a demand of the given service time and class; done
// (if non-nil) runs when service completes. It returns the completion
// instant. Negative demands panic.
func (r *Resource) Acquire(class int, demand time.Duration, done func()) Time {
	if demand < 0 {
		panic(fmt.Sprintf("eventsim: resource %s: negative demand %v", r.name, demand))
	}
	start := r.freeAt
	if now := r.sim.Now(); start < now {
		start = now
	} else if wait := time.Duration(start - r.sim.Now()); wait > 0 {
		// The arrival queues behind committed work: record the delay it
		// will see, the queueing metric behind the NIC-saturation story.
		r.waited++
		r.waitTime += wait
		if wait > r.maxBacklog {
			r.maxBacklog = wait
		}
	}
	end := start + Time(demand)
	r.freeAt = end
	for len(r.busy) <= class {
		r.busy = append(r.busy, 0)
	}
	r.busy[class] += demand
	r.served++
	if done != nil {
		r.sim.Schedule(end, done)
	}
	return end
}

// BusyTime returns the accumulated service time for one class.
func (r *Resource) BusyTime(class int) time.Duration {
	if class < 0 || class >= len(r.busy) {
		return 0
	}
	return r.busy[class]
}

// TotalBusy returns accumulated service time across all classes.
func (r *Resource) TotalBusy() time.Duration {
	var t time.Duration
	for _, b := range r.busy {
		t += b
	}
	return t
}

// Served returns the number of demands accepted.
func (r *Resource) Served() uint64 { return r.served }

// Waited returns the number of demands that arrived while the resource
// was busy and had to queue.
func (r *Resource) Waited() uint64 { return r.waited }

// WaitTime returns the total queueing delay accumulated by all demands.
func (r *Resource) WaitTime() time.Duration { return r.waitTime }

// MaxBacklog returns the largest queueing delay any single demand saw.
func (r *Resource) MaxBacklog() time.Duration { return r.maxBacklog }

// Backlog returns how far the resource's committed work extends past the
// current instant — the queueing delay a new arrival would see.
func (r *Resource) Backlog() time.Duration {
	if r.freeAt <= r.sim.Now() {
		return 0
	}
	return time.Duration(r.freeAt - r.sim.Now())
}

// Utilization returns TotalBusy divided by elapsed simulated time, or 0
// at time zero.
func (r *Resource) Utilization() float64 {
	if r.sim.Now() == 0 {
		return 0
	}
	return float64(r.TotalBusy()) / float64(r.sim.Now())
}
