// Package placement implements the paper's §6.1 future-work direction:
// "one can consider to find a minimal set of trusted switches for
// detection and identification". Cluster traffic does not aggregate at
// chokepoints the way Internet traffic does, so detector placement is a
// covering problem: choose few switches such that every flow crosses at
// least one of them.
//
// For deterministic routing the flow's path is unique, and the problem
// is classic set cover over (source, destination) pairs; the package
// provides the standard greedy ln(n)-approximation. For adaptive
// routing a flow may take many paths, so coverage is probabilistic; the
// package estimates, by path sampling, the fraction of flows a monitor
// set observes.
package placement

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Pair is one traffic flow endpoint pair.
type Pair struct {
	Src, Dst topology.NodeID
}

// AllPairs enumerates every ordered pair of distinct nodes.
func AllPairs(net topology.Network) []Pair {
	n := net.NumNodes()
	out := make([]Pair, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				out = append(out, Pair{Src: topology.NodeID(s), Dst: topology.NodeID(d)})
			}
		}
	}
	return out
}

// Coverage maps each pair to the set of switches its deterministic
// route visits (endpoints included: the source and destination switches
// always see the flow).
type Coverage struct {
	pairs   []Pair
	onPath  []map[topology.NodeID]bool
	numNode int
}

// BuildCoverage walks every pair's route under the (deterministic)
// router. An error from routing propagates.
func BuildCoverage(r *routing.Router, pairs []Pair) (*Coverage, error) {
	c := &Coverage{pairs: pairs, numNode: r.Net.NumNodes()}
	for _, p := range pairs {
		path, err := r.Walk(p.Src, p.Dst, 0)
		if err != nil {
			return nil, fmt.Errorf("placement: pair %d->%d: %w", p.Src, p.Dst, err)
		}
		set := make(map[topology.NodeID]bool, len(path))
		for _, n := range path {
			set[n] = true
		}
		c.onPath = append(c.onPath, set)
	}
	return c, nil
}

// Covered counts pairs observed by at least one monitor in the set.
func (c *Coverage) Covered(monitors []topology.NodeID) int {
	mset := make(map[topology.NodeID]bool, len(monitors))
	for _, m := range monitors {
		mset[m] = true
	}
	covered := 0
	for _, set := range c.onPath {
		for m := range mset {
			if set[m] {
				covered++
				break
			}
		}
	}
	return covered
}

// Greedy runs the classical greedy set-cover: repeatedly pick the
// switch covering the most still-uncovered pairs, until full coverage
// or maxMonitors (0 = unlimited). Ties break toward the lowest node id
// for determinism. It returns the chosen monitors in pick order and the
// cumulative coverage after each pick.
func (c *Coverage) Greedy(maxMonitors int) (monitors []topology.NodeID, coverage []int) {
	uncovered := make(map[int]bool, len(c.pairs))
	for i := range c.pairs {
		uncovered[i] = true
	}
	// Invert: switch -> pair indexes it covers.
	bySwitch := make([][]int, c.numNode)
	for i, set := range c.onPath {
		for n := range set {
			bySwitch[n] = append(bySwitch[n], i)
		}
	}
	total := 0
	for len(uncovered) > 0 {
		if maxMonitors > 0 && len(monitors) >= maxMonitors {
			break
		}
		best, bestGain := topology.NodeID(-1), 0
		for n := 0; n < c.numNode; n++ {
			gain := 0
			for _, i := range bySwitch[n] {
				if uncovered[i] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = topology.NodeID(n), gain
			}
		}
		if bestGain == 0 {
			break
		}
		monitors = append(monitors, best)
		for _, i := range bySwitch[best] {
			delete(uncovered, i)
		}
		total += bestGain
		coverage = append(coverage, total)
	}
	return monitors, coverage
}

// AdaptiveCoverage estimates, over trials sampled walks per pair, the
// fraction of flows whose sampled path crossed a monitor — the
// probabilistic guarantee a deterministic cover degrades to once
// routing is adaptive.
func AdaptiveCoverage(r *routing.Router, pairs []Pair, monitors []topology.NodeID, trials int) (float64, error) {
	if trials < 1 {
		trials = 1
	}
	mset := make(map[topology.NodeID]bool, len(monitors))
	for _, m := range monitors {
		mset[m] = true
	}
	hit, total := 0, 0
	for _, p := range pairs {
		for k := 0; k < trials; k++ {
			path, err := r.Walk(p.Src, p.Dst, 0)
			if err != nil {
				return 0, fmt.Errorf("placement: pair %d->%d: %w", p.Src, p.Dst, err)
			}
			total++
			for _, n := range path {
				if mset[n] {
					hit++
					break
				}
			}
		}
	}
	return float64(hit) / float64(total), nil
}
