package server

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"press/via"
)

// Deterministic chaos harness: a FaultPlan is a seeded, timed script of
// partitions, heals, crashes, and restarts injected into a running VIA
// cluster through the fabric's fault hooks (via.Fabric.Isolate and
// HealNode). Tests and press-sim -chaos replay the same plan from the
// same seed, so a failure reproduces.

// FaultKind is one chaos action.
type FaultKind int

const (
	// FaultPartition severs every link of one node: the cluster sees
	// silence, the node sees silence back. The node's process keeps
	// running (its cache survives).
	FaultPartition FaultKind = iota
	// FaultHeal lifts a partition.
	FaultHeal
	// FaultCrash severs the node's links AND discards its in-memory
	// state (cache, directory, pending requests) — a process crash.
	FaultCrash
	// FaultRestart reconnects a crashed node; it rejoins empty, like a
	// freshly started process.
	FaultRestart
)

// String names the fault.
func (k FaultKind) String() string {
	switch k {
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent schedules one fault at an offset from plan start.
type FaultEvent struct {
	At   time.Duration
	Kind FaultKind
	Node int
}

// FaultPlan is a deterministic fault script.
type FaultPlan struct {
	Events []FaultEvent
}

// RandomFaultPlan generates a seeded plan of crash/restart or
// partition/heal pairs spread over the given duration. Node 0 is spared
// so the cluster always keeps a dialing side for reconnects.
func RandomFaultPlan(seed int64, nodes int, duration time.Duration, faults int) FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	var plan FaultPlan
	if nodes < 2 || faults <= 0 || duration <= 0 {
		return plan
	}
	for i := 0; i < faults; i++ {
		node := 1 + rng.Intn(nodes-1)
		at := time.Duration(rng.Int63n(int64(duration / 2)))
		gap := duration/4 + time.Duration(rng.Int63n(int64(duration/4)))
		down, up := FaultPartition, FaultHeal
		if rng.Intn(2) == 1 {
			down, up = FaultCrash, FaultRestart
		}
		plan.Events = append(plan.Events,
			FaultEvent{At: at, Kind: down, Node: node},
			FaultEvent{At: at + gap, Kind: up, Node: node})
	}
	sort.SliceStable(plan.Events, func(i, j int) bool {
		return plan.Events[i].At < plan.Events[j].At
	})
	return plan
}

// faultTarget returns the cluster's fault-injection surface — only the
// VIA transport has one — and node i's address on it.
func (cl *Cluster) faultTarget(i int) (*via.Fabric, string, error) {
	if cl.fabric == nil {
		return nil, "", fmt.Errorf("server: fault injection needs the VIA transport")
	}
	if i < 0 || i >= len(cl.procs) {
		return nil, "", fmt.Errorf("server: bad node %d", i)
	}
	return cl.fabric, fabricAddr(i), nil
}

// PartitionNode severs every fabric link of node i.
func (cl *Cluster) PartitionNode(i int) error {
	f, addr, err := cl.faultTarget(i)
	if err != nil {
		return err
	}
	f.Isolate(addr)
	return nil
}

// HealNode lifts node i's partition; the cluster re-integrates it as
// reconnect probes land and traffic resumes.
func (cl *Cluster) HealNode(i int) error {
	f, addr, err := cl.faultTarget(i)
	if err != nil {
		return err
	}
	f.HealNode(addr)
	return nil
}

// SlowNode adds extra delay to every fabric transfer touching node i —
// a slow-but-alive gray failure: the node keeps answering, just too
// late. The brownout layer, not the dead-or-alive health tracker, is
// what routes around it. extra <= 0 restores the node's normal speed.
func (cl *Cluster) SlowNode(i int, extra time.Duration) error {
	f, addr, err := cl.faultTarget(i)
	if err != nil {
		return err
	}
	f.SlowNode(addr, extra)
	return nil
}

// CrashNode partitions node i and wipes its in-memory state, modeling a
// process crash. The wipe runs on the node's main loop.
func (cl *Cluster) CrashNode(i int) error {
	if err := cl.PartitionNode(i); err != nil {
		return err
	}
	n := cl.procs[i].node
	n.inject(n.crashLocalState)
	return nil
}

// RestartNode brings a crashed node back; it rejoins with an empty
// cache and re-learns the cluster's caching view from broadcasts.
func (cl *Cluster) RestartNode(i int) error { return cl.HealNode(i) }

// applyFault dispatches one event.
func (cl *Cluster) applyFault(ev FaultEvent) error {
	switch ev.Kind {
	case FaultPartition:
		return cl.PartitionNode(ev.Node)
	case FaultHeal, FaultRestart:
		return cl.HealNode(ev.Node)
	case FaultCrash:
		return cl.CrashNode(ev.Node)
	}
	return fmt.Errorf("server: unknown fault kind %d", int(ev.Kind))
}

// StartFaultPlan replays the plan against the running cluster. The
// returned channel closes when the last event has fired; closing stop
// aborts the replay early. observe, when non-nil, is called after each
// injected event (chaos logs, test assertions).
func (cl *Cluster) StartFaultPlan(plan FaultPlan, stop <-chan struct{}, observe func(FaultEvent, error)) (<-chan struct{}, error) {
	if _, _, err := cl.faultTarget(0); err != nil {
		return nil, err
	}
	events := append([]FaultEvent(nil), plan.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		var pause sleeper
		for _, ev := range events {
			if delay := ev.At - time.Since(start); delay > 0 && !pause.sleep(delay, stop) {
				return
			}
			err := cl.applyFault(ev)
			if observe != nil {
				observe(ev, err)
			}
		}
	}()
	return done, nil
}
