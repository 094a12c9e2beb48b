package core

import "fmt"

// StrategyKind selects how load information travels between nodes
// (Section 3.3): piggy-backed on every message, broadcast past a
// threshold, or not at all. With the directory organization it names
// six strategies: the paper's five and SHARD (see Strategies).
type StrategyKind int

const (
	// PiggyBack appends the sender's current load to every intra-cluster
	// message; no explicit load messages are sent. This is PRESS's
	// default and the best performer in the paper.
	PiggyBack StrategyKind = iota
	// ThresholdBroadcast sends the node's load to every peer whenever it
	// differs from the last broadcast value by at least L connections.
	ThresholdBroadcast
	// NoLoadBalancing distributes requests on cache locality alone.
	NoLoadBalancing
)

// DirectoryKind selects who owns the caching directory.
type DirectoryKind int

const (
	// DirReplicated gives every node a full directory replica kept
	// current by caching-information broadcasts — the paper's design.
	// Reads are local; every change costs N-1 messages.
	DirReplicated DirectoryKind = iota
	// DirSharded partitions directory ownership over a consistent-hash
	// ring: each file's entry lives on one owner node, lookups are one
	// directed message, and changes go to the owner alone.
	DirSharded
)

// Strategy names a (load dissemination, directory ownership) pair.
type Strategy struct {
	Kind StrategyKind
	// L is the broadcast threshold, used only by ThresholdBroadcast.
	L int
	// Dir selects the caching-directory organization.
	Dir DirectoryKind
}

// PB returns the piggy-backing strategy.
func PB() Strategy { return Strategy{Kind: PiggyBack} }

// LThreshold returns a threshold-broadcast strategy with threshold l.
func LThreshold(l int) Strategy {
	if l <= 0 {
		panic(fmt.Sprintf("core: load threshold must be positive, got %d", l))
	}
	return Strategy{Kind: ThresholdBroadcast, L: l}
}

// NLB returns the no-load-balancing strategy.
func NLB() Strategy { return Strategy{Kind: NoLoadBalancing} }

// Sharded returns the sharded-directory strategy: piggy-backed load
// information over consistent-hash directory ownership.
func Sharded() Strategy { return Strategy{Kind: PiggyBack, Dir: DirSharded} }

// LoadAware reports whether the strategy uses load at all in its
// distribution decisions.
func (s Strategy) LoadAware() bool { return s.Kind != NoLoadBalancing }

// Piggyback reports whether outgoing messages carry the sender's load.
func (s Strategy) Piggyback() bool { return s.Kind == PiggyBack }

// String returns the strategy's flag name, one of six: the bar labels
// of Figure 4 ("PB", "L16", "L4", "L1", "NLB") plus "SHARD".
func (s Strategy) String() string {
	base := ""
	switch s.Kind {
	case PiggyBack:
		base = "PB"
	case ThresholdBroadcast:
		base = fmt.Sprintf("L%d", s.L)
	case NoLoadBalancing:
		base = "NLB"
	default:
		base = fmt.Sprintf("Strategy(%d)", int(s.Kind))
	}
	if s.Dir == DirSharded {
		if s.Kind == PiggyBack {
			return "SHARD"
		}
		return base + "+SHARD"
	}
	return base
}

// PaperStrategies returns the five strategies of Figure 4 in bar order.
func PaperStrategies() []Strategy {
	return []Strategy{PB(), LThreshold(16), LThreshold(4), LThreshold(1), NLB()}
}

// Strategies returns the six named strategies: the paper's five plus
// SHARD, the sharded-directory mode.
func Strategies() []Strategy {
	return append(PaperStrategies(), Sharded())
}

// StrategyByName parses one of the six strategy flag names (see
// Strategy.String).
func StrategyByName(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.String() == name {
			return s, nil
		}
	}
	return Strategy{}, fmt.Errorf("core: unknown dissemination strategy %q (want PB, L16, L4, L1, NLB, or SHARD)", name)
}

// LoadTracker tracks one node's open-connection count and decides when a
// threshold strategy must broadcast.
type LoadTracker struct {
	strategy Strategy
	current  int
	lastSent int
}

// NewLoadTracker returns a tracker for the strategy with zero load.
func NewLoadTracker(s Strategy) *LoadTracker {
	return &LoadTracker{strategy: s}
}

// Load returns the current open-connection count.
func (t *LoadTracker) Load() int { return t.current }

// Change applies a load delta (connection opened: +1, closed: -1) and
// reports whether the strategy requires broadcasting the new value now.
func (t *LoadTracker) Change(delta int) (broadcast bool) {
	t.current += delta
	if t.current < 0 {
		panic("core: negative open-connection count")
	}
	if t.strategy.Kind != ThresholdBroadcast {
		return false
	}
	if abs(t.current-t.lastSent) >= t.strategy.L {
		t.lastSent = t.current
		return true
	}
	return false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
