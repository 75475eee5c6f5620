// Package irregular covers the last §6.3 future-work case: "hybrid
// networks and irregular networks do not have a universal regularity
// and it may need a completely different approach". It models an
// irregular switch fabric (a random connected multigraph, the shape
// switch-based clusters grow into as they are expanded ad hoc), routes
// with the classic Autonet up*/down* algorithm — the standard
// deadlock-free scheme for irregular topologies — and demonstrates
// that with no coordinate system to difference, source identification
// falls back to ingress stamping (marking.IngressStamp), which works
// because up*/down* still delivers the stamp untouched.
package irregular

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Graph is an irregular switch fabric. Every switch hosts one compute
// node (the paper's node = switch + computer pairing). Edges are
// undirected cables; up*/down* orients them by BFS level from a root.
type Graph struct {
	n   int
	adj [][]topology.NodeID
	// level[v] is the BFS depth from the root; the "up" end of an edge
	// is the endpoint with the smaller (level, id) pair.
	level []int
	root  topology.NodeID
}

// newRandom builds a connected irregular graph of n switches: a random
// spanning tree plus extra random cables. Deterministic per seed.
func newRandom(n, extraEdges int, seed uint64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("irregular: need at least 2 switches")
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("irregular: %d switches exceeds the 65536 limit", n)
	}
	r := rng.NewStream(seed)
	g := &Graph{n: n, adj: make([][]topology.NodeID, n)}
	edge := map[[2]topology.NodeID]bool{}
	addEdge := func(a, b topology.NodeID) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		k := [2]topology.NodeID{a, b}
		if edge[k] {
			return false
		}
		edge[k] = true
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
		return true
	}
	// Random spanning tree: attach each node to a random earlier node.
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(topology.NodeID(perm[i]), topology.NodeID(perm[r.Intn(i)]))
	}
	for added := 0; added < extraEdges; {
		if addEdge(topology.NodeID(r.Intn(n)), topology.NodeID(r.Intn(n))) {
			added++
		}
	}
	for v := range g.adj {
		sort.Slice(g.adj[v], func(i, j int) bool { return g.adj[v][i] < g.adj[v][j] })
	}
	g.orient()
	return g, nil
}

// orient picks the highest-degree switch as root (the Autonet
// heuristic) and BFS-levels the graph.
func (g *Graph) orient() {
	root := topology.NodeID(0)
	for v := 1; v < g.n; v++ {
		if len(g.adj[v]) > len(g.adj[root]) {
			root = topology.NodeID(v)
		}
	}
	g.root = root
	g.level = make([]int, g.n)
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[root] = 0
	queue := []topology.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[v] {
			if g.level[nb] == -1 {
				g.level[nb] = g.level[v] + 1
				queue = append(queue, nb)
			}
		}
	}
}

// NumNodes returns the switch count; Root the up*/down* root; Level the
// BFS depth of a switch.
func (g *Graph) NumNodes() int               { return g.n }
func (g *Graph) Level(v topology.NodeID) int { return g.level[v] }

// Neighbors returns the adjacent switches.
func (g *Graph) Neighbors(v topology.NodeID) []topology.NodeID {
	return append([]topology.NodeID(nil), g.adj[v]...)
}

// isUp reports whether traversing from a to b is an "up" move: toward
// the root in (level, id) order — the Autonet edge orientation.
func (g *Graph) isUp(a, b topology.NodeID) bool {
	if g.level[b] != g.level[a] {
		return g.level[b] < g.level[a]
	}
	return b < a // same level: lower id is the up end
}

// Route computes a shortest legal up*/down* path from src to dst: zero
// or more up moves followed by zero or more down moves (a down→up turn
// is the forbidden transition that guarantees deadlock freedom). The
// path includes both endpoints. chooser breaks ties among equal-length
// legal next hops; nil picks the lowest id.
func (g *Graph) Route(src, dst topology.NodeID, chooser func(options []topology.NodeID) topology.NodeID) ([]topology.NodeID, error) {
	if src == dst {
		return []topology.NodeID{src}, nil
	}
	rem := g.remaining(dst)
	const inf = 1 << 30
	cur, phase := src, 0
	if rem[0][cur] >= inf {
		return nil, fmt.Errorf("irregular: no up*/down* path %d -> %d", src, dst)
	}
	path := []topology.NodeID{src}
	for cur != dst {
		// The adaptivity of up*/down*: take any legal next hop whose
		// remaining distance decreases, resolved by chooser.
		d := rem[phase][cur]
		var options []topology.NodeID
		nextPhase := map[topology.NodeID]int{}
		for _, nb := range g.adj[cur] {
			up := g.isUp(cur, nb)
			if up && phase == 1 {
				continue
			}
			np := phase
			if !up {
				np = 1
			}
			if rem[np][nb] == d-1 {
				options = append(options, nb)
				nextPhase[nb] = np
			}
		}
		if len(options) == 0 {
			return nil, fmt.Errorf("irregular: stranded at %d (internal routing bug)", cur)
		}
		pick := options[0]
		if chooser != nil {
			pick = chooser(options)
		}
		phase = nextPhase[pick]
		cur = pick
		path = append(path, cur)
	}
	return path, nil
}

// remaining computes, by backward BFS over the phased state graph, the
// legal distance from every (phase, node) state to dst. Predecessor
// rule: an up move u→v keeps phase 0; a down move u→v lands in phase 1
// from either phase.
func (g *Graph) remaining(dst topology.NodeID) [2][]int {
	const inf = 1 << 30
	var rem [2][]int
	for p := 0; p < 2; p++ {
		rem[p] = make([]int, g.n)
		for i := range rem[p] {
			rem[p][i] = inf
		}
	}
	type state struct {
		v     topology.NodeID
		phase int
	}
	rem[0][dst], rem[1][dst] = 0, 0
	queue := []state{{v: dst, phase: 0}, {v: dst, phase: 1}}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[s.v] {
			// Moves u → s.v that land in phase s.phase.
			up := g.isUp(u, s.v)
			var preds []int
			if up {
				if s.phase == 0 {
					preds = []int{0} // up keeps phase 0
				}
			} else if s.phase == 1 {
				preds = []int{0, 1} // down lands in phase 1 from either
			}
			for _, pp := range preds {
				if rem[pp][u] > rem[s.phase][s.v]+1 {
					rem[pp][u] = rem[s.phase][s.v] + 1
					queue = append(queue, state{v: u, phase: pp})
				}
			}
		}
	}
	return rem
}
