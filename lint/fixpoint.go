package lint

import "strings"

// The generic fact-propagation framework: analyzers express a fact
// domain as a set of keys per function, give a base fact set for each
// node and a filter for which edges facts flow across, and propagate
// computes the least fixed point of
//
//	facts(n) = base(n) ∪ ⋃ { facts(c) : c callee of n, follow(site) }
//
// bottom-up over the call graph. Recursion and mutual recursion are
// handled by the worklist: a node is revisited whenever one of its
// callees' fact sets grows, and the iteration terminates because fact
// sets only ever grow and the key universe is finite.
func propagate[K comparable](g *CallGraph, base func(*CGNode) map[K]bool, follow func(*CGNode, *CallSite) bool) map[*CGNode]map[K]bool {
	facts := make(map[*CGNode]map[K]bool, len(g.All))
	callers := make(map[*CGNode][]*CGNode)
	for _, n := range g.All {
		set := make(map[K]bool)
		for k := range base(n) {
			set[k] = true
		}
		facts[n] = set
		for _, site := range n.Calls {
			if follow != nil && !follow(n, site) {
				continue
			}
			for _, c := range site.Callees {
				callers[c] = append(callers[c], n)
			}
		}
	}
	work := make([]*CGNode, len(g.All))
	copy(work, g.All)
	queued := make(map[*CGNode]bool, len(g.All))
	for _, n := range work {
		queued[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n] = false
		set := facts[n]
		grew := false
		for _, site := range n.Calls {
			if follow != nil && !follow(n, site) {
				continue
			}
			for _, c := range site.Callees {
				for k := range facts[c] {
					if !set[k] {
						set[k] = true
						grew = true
					}
				}
			}
		}
		if !grew {
			continue
		}
		for _, caller := range callers[n] {
			if !queued[caller] {
				queued[caller] = true
				work = append(work, caller)
			}
		}
	}
	return facts
}

// reachable walks the graph from root across edges follow admits and
// returns every node visited, root included. Analyzers use it to
// enumerate a hot path's transitive callee set and to reconstruct call
// chains for reporting.
func reachable(root *CGNode, follow func(*CGNode, *CallSite) bool) []*CGNode {
	seen := map[*CGNode]bool{root: true}
	order := []*CGNode{root}
	for i := 0; i < len(order); i++ {
		n := order[i]
		for _, site := range n.Calls {
			if follow != nil && !follow(n, site) {
				continue
			}
			for _, c := range site.Callees {
				if !seen[c] {
					seen[c] = true
					order = append(order, c)
				}
			}
		}
	}
	return order
}

// pathTo reconstructs one shortest call chain from root to target
// (inclusive) across admitted edges, for human-readable findings. It
// returns nil when target is unreachable.
func pathTo(root, target *CGNode, follow func(*CGNode, *CallSite) bool) []*CGNode {
	if root == target {
		return []*CGNode{root}
	}
	prev := map[*CGNode]*CGNode{root: nil}
	queue := []*CGNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, site := range n.Calls {
			if follow != nil && !follow(n, site) {
				continue
			}
			for _, c := range site.Callees {
				if _, ok := prev[c]; ok {
					continue
				}
				prev[c] = n
				if c == target {
					var path []*CGNode
					for at := c; at != nil; at = prev[at] {
						path = append(path, at)
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path
				}
				queue = append(queue, c)
			}
		}
	}
	return nil
}

// chain renders pathTo(root, target) below the root as "a → b → target"
// for findings; "" when target is the root or unreachable.
func chain(root, target *CGNode, follow func(*CGNode, *CallSite) bool) string {
	path := pathTo(root, target, follow)
	if len(path) < 2 {
		return ""
	}
	hops := make([]string, 0, len(path)-1)
	for _, hop := range path[1:] {
		hops = append(hops, shortName(hop.Name))
	}
	return strings.Join(hops, " → ")
}
