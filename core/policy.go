package core

import (
	"fmt"

	"press/cache"
)

// PolicyConfig holds the tunables of the PRESS distribution algorithm.
type PolicyConfig struct {
	// LargeFileBytes: requests for files at least this large are always
	// serviced locally by the initial node (512 KBytes in the paper's
	// prototype).
	LargeFileBytes int64
	// OverloadThreshold is T: a node is overloaded when its number of
	// open connections exceeds T (80 in the paper's experiments).
	OverloadThreshold int
	// PowerOfTwoChoices routes among multiple cachers by sampling two
	// distinct replicas and picking the less loaded, instead of always
	// chasing the least-loaded one. With replicated hot objects the
	// deterministic least-loaded pick herds every initial node onto the
	// same replica between load updates; two random choices spread the
	// head of the distribution across the replica set (Mitzenmacher).
	PowerOfTwoChoices bool
}

// DefaultPolicy returns the paper's prototype settings.
func DefaultPolicy() PolicyConfig {
	return PolicyConfig{
		LargeFileBytes:    512 * 1024,
		OverloadThreshold: 80,
	}
}

// View is the cluster state a node consults to distribute a request:
// the cache directory and its (possibly stale) view of peer loads.
type View interface {
	// Cachers returns the nodes believed to cache the file.
	Cachers(id cache.FileID) cache.NodeSet
	// Load returns the believed number of open connections at a node.
	Load(node int) int
	// LoadKnown reports whether load information is available at all;
	// it is false under the no-load-balancing strategy.
	LoadKnown() bool
	// Nodes returns the cluster size.
	Nodes() int
}

// Reason explains a distribution decision; the simulator aggregates
// reasons for diagnostics.
type Reason int

const (
	// ReasonLargeFile: at or above the large-file cutoff, serviced
	// locally.
	ReasonLargeFile Reason = iota
	// ReasonFirstRequest: first request for this file anywhere.
	ReasonFirstRequest
	// ReasonLocalHit: the initial node already caches the file.
	ReasonLocalHit
	// ReasonNotCached: no node caches the file (it was evicted
	// everywhere); the initial node reads it from disk.
	ReasonNotCached
	// ReasonRemote: forwarded to the least-loaded caching node.
	ReasonRemote
	// ReasonRemoteAllOverloaded: the caching candidate is overloaded,
	// but so are the initial and globally least-loaded nodes, so the
	// candidate services the request anyway.
	ReasonRemoteAllOverloaded
	// ReasonReplicateInitial: the candidate is overloaded and the
	// initial node is not; the initial node services the request from
	// disk, replicating the file.
	ReasonReplicateInitial
	// ReasonReplicateLeastLoaded: the candidate and initial node are
	// overloaded but the globally least-loaded node is not; it services
	// the request from disk, replicating the file.
	ReasonReplicateLeastLoaded
	// NumReasons is the number of decision reasons.
	NumReasons
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonLargeFile:
		return "large-file"
	case ReasonFirstRequest:
		return "first-request"
	case ReasonLocalHit:
		return "local-hit"
	case ReasonNotCached:
		return "not-cached"
	case ReasonRemote:
		return "remote"
	case ReasonRemoteAllOverloaded:
		return "remote-all-overloaded"
	case ReasonReplicateInitial:
		return "replicate-initial"
	case ReasonReplicateLeastLoaded:
		return "replicate-least-loaded"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Decision is the outcome of distributing one request.
type Decision struct {
	// Service is the node that will service the request.
	Service int
	// Reason explains the choice.
	Reason Reason
}

// Forwarded reports whether the request leaves the initial node.
func (d Decision) Forwarded(initial int) bool { return d.Service != initial }

// Policy is the PRESS request-distribution algorithm (Section 2.2).
// It is a small state machine only insofar as the load-blind strategy
// needs a rotation counter for picking among caching nodes.
type Policy struct {
	cfg PolicyConfig
	rr  int
	// rng drives the power-of-two-choices sampling. A private xorshift
	// keeps decisions deterministic for a given request sequence (no
	// global rand, no time seeding) — the simulator depends on that.
	rng uint64
}

// NewPolicy returns a policy with the given configuration.
func NewPolicy(cfg PolicyConfig) *Policy {
	if cfg.LargeFileBytes <= 0 || cfg.OverloadThreshold <= 0 {
		panic(fmt.Sprintf("core: invalid policy config %+v", cfg))
	}
	return &Policy{cfg: cfg, rng: 0x9E3779B97F4A7C15}
}

// Config returns the policy's configuration.
func (p *Policy) Config() PolicyConfig { return p.cfg }

// Decide chooses the service node for a request arriving at the initial
// node, following Section 2.2:
//
//  1. large files are serviced locally;
//  2. so are first-time requests and local cache hits;
//  3. otherwise the least-loaded caching node is the candidate, chosen
//     unless it is overloaded while the initial or the globally
//     least-loaded node is not — in which case one of those services
//     the request from disk, replicating a popular file.
func (p *Policy) Decide(initial int, id cache.FileID, size int64, firstRequest bool, v View) Decision {
	if size >= p.cfg.LargeFileBytes {
		return Decision{Service: initial, Reason: ReasonLargeFile}
	}
	if firstRequest {
		return Decision{Service: initial, Reason: ReasonFirstRequest}
	}
	cachers := v.Cachers(id)
	if cachers.Has(initial) {
		return Decision{Service: initial, Reason: ReasonLocalHit}
	}
	if cachers.Empty() {
		return Decision{Service: initial, Reason: ReasonNotCached}
	}

	if !v.LoadKnown() {
		// No load information: rotate among the caching nodes.
		nodes := cachers.Nodes()
		p.rr++
		return Decision{Service: nodes[p.rr%len(nodes)], Reason: ReasonRemote}
	}

	candidate := leastLoaded(v, cachers)
	if p.cfg.PowerOfTwoChoices && cachers.Len() >= 2 {
		candidate = p.twoChoices(v, cachers)
	}
	t := p.cfg.OverloadThreshold
	if v.Load(candidate) <= t {
		return Decision{Service: candidate, Reason: ReasonRemote}
	}
	global := leastLoadedAll(v)
	initialOverloaded := v.Load(initial) > t
	globalOverloaded := v.Load(global) > t
	switch {
	case initialOverloaded && globalOverloaded:
		return Decision{Service: candidate, Reason: ReasonRemoteAllOverloaded}
	case !initialOverloaded:
		return Decision{Service: initial, Reason: ReasonReplicateInitial}
	default:
		return Decision{Service: global, Reason: ReasonReplicateLeastLoaded}
	}
}

// twoChoices samples two distinct members of the replica set and
// returns the less loaded. Requires set.Len() >= 2.
func (p *Policy) twoChoices(v View, set cache.NodeSet) int {
	nodes := set.Nodes()
	i := int(p.next() % uint64(len(nodes)))
	j := int(p.next() % uint64(len(nodes)-1))
	if j >= i {
		j++
	}
	a, b := nodes[i], nodes[j]
	if v.Load(b) < v.Load(a) {
		return b
	}
	return a
}

// next advances the policy's xorshift64 state.
func (p *Policy) next() uint64 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return x
}

func leastLoaded(v View, set cache.NodeSet) int {
	best, bestLoad := -1, 0
	set.ForEach(func(n int) {
		if l := v.Load(n); best < 0 || l < bestLoad {
			best, bestLoad = n, l
		}
	})
	return best
}

func leastLoadedAll(v View) int {
	best, bestLoad := 0, v.Load(0)
	for n := 1; n < v.Nodes(); n++ {
		if l := v.Load(n); l < bestLoad {
			best, bestLoad = n, l
		}
	}
	return best
}
