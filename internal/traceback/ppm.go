package traceback

import (
	"sort"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/topology"
)

// edge is an upstream link in the reconstructed attack graph: traffic
// flowed Start → End.
type edge struct {
	Start, End topology.NodeID
}

// PPMReconstructor accumulates probabilistic edge samples and rebuilds
// the attack graph the Savage way: distance-0 samples anchor the chain
// at the victim's upstream switches, and each distance-d edge extends a
// chain whose distance-(d−1) suffix is already present. Convergence
// requires every edge of every attack path to be sampled at least once
// — the ln(d)/p(1−p)^{d−1} expected-packet cost the paper holds against
// PPM in clusters (§4.2). Under adaptive routing the sample set mixes
// edges from many interleaved paths and the "sources" set degrades into
// a large candidate cloud, which experiment E2/E1 quantifies.
type PPMReconstructor struct {
	// Decode extracts the edge sample from a received packet; wire it
	// to SimplePPM.DecodeMF, BitDiffPPM.DecodeMF or WidePPM.Sample.
	decode func(pk *packet.Packet) (marking.EdgeSample, bool)

	// MinCount is the number of times a sample must be seen before it
	// is trusted; values > 1 suppress attacker-seeded fake marks.
	MinCount int

	// Adjacency, when set, rejects samples whose claimed edge does not
	// exist in the fabric. Cluster victims know the topology (the
	// Song–Perrig "complete router map" assumption is trivially true
	// inside a cluster), so this filter removes most garbage marks.
	Adjacency func(a, b topology.NodeID) bool

	observed int64
	dist0    map[topology.NodeID]int // starts of distance-0 samples
	edges    map[int]map[edge]int    // dist → edge → count
	maxDist  int
}

// NewPPMReconstructor builds a reconstructor over any edge-sampling
// decode function.
func NewPPMReconstructor(decode func(pk *packet.Packet) (marking.EdgeSample, bool)) *PPMReconstructor {
	return &PPMReconstructor{
		decode:   decode,
		MinCount: 1,
		dist0:    make(map[topology.NodeID]int),
		edges:    make(map[int]map[edge]int),
	}
}

// ForSimplePPM adapts a SimplePPM scheme.
func ForSimplePPM(s *marking.SimplePPM) *PPMReconstructor {
	return NewPPMReconstructor(func(pk *packet.Packet) (marking.EdgeSample, bool) {
		return s.DecodeMF(pk.Hdr.ID)
	})
}

// ForWidePPM adapts the idealized side-band sampler; unmarked packets
// yield no sample.
func ForWidePPM(w *marking.WidePPM) *PPMReconstructor {
	return NewPPMReconstructor(func(pk *packet.Packet) (marking.EdgeSample, bool) {
		es := w.Sample(pk)
		if es == nil {
			return marking.EdgeSample{}, false
		}
		return *es, true
	})
}

// Observe folds one received packet into the sample set.
func (p *PPMReconstructor) Observe(pk *packet.Packet) {
	p.observed++
	es, ok := p.decode(pk)
	if !ok {
		return
	}
	if es.Dist == 0 {
		p.dist0[es.Start]++
		return
	}
	if !es.EndValid || es.Start == es.End {
		// Self-edges can only come from unmarked packets whose MF is
		// leftover garbage (the initial Identification field) — a real
		// switch never records itself as its own downstream. Reject.
		return
	}
	if p.Adjacency != nil && !p.Adjacency(es.Start, es.End) {
		return
	}
	m := p.edges[es.Dist]
	if m == nil {
		m = make(map[edge]int)
		p.edges[es.Dist] = m
	}
	m[edge{Start: es.Start, End: es.End}]++
	if es.Dist > p.maxDist {
		p.maxDist = es.Dist
	}
}

// Observed returns the number of packets seen (marked or not).
func (p *PPMReconstructor) Observed() int64 { return p.observed }

// Graph reconstructs the verified attack graph: the set of nodes
// reachable from the victim by chaining trusted samples backwards, as
// parent links child → upstream set.
func (p *PPMReconstructor) graph() (levels []map[topology.NodeID]bool, ends map[topology.NodeID]bool) {
	level := make(map[topology.NodeID]bool)
	for n, c := range p.dist0 {
		if c >= p.MinCount {
			level[n] = true
		}
	}
	// ends marks nodes with upstream evidence: they appear as the End
	// of a trusted on-chain edge, i.e. some switch farther away
	// forwarded through them. A source candidate is a chain node that
	// never appears as an End.
	ends = make(map[topology.NodeID]bool)
	levels = append(levels, level)
	for d := 1; d <= p.maxDist; d++ {
		next := make(map[topology.NodeID]bool)
		prev := levels[d-1]
		for e, c := range p.edges[d] {
			if c < p.MinCount {
				continue
			}
			if prev[e.End] {
				next[e.Start] = true
				ends[e.End] = true
			}
		}
		levels = append(levels, next)
	}
	return levels, ends
}

// Sources returns the reconstructed attack sources: nodes that appear
// on a verified chain as a Start at some level but never as a
// downstream End. On a fully sampled deterministic path this is exactly
// the origin; with incomplete sampling it over-approximates (the chain
// is cut where samples are missing), and under adaptive routing it
// inflates — both measured effects.
func (p *PPMReconstructor) Sources() []topology.NodeID {
	levels, ends := p.graph()
	set := make(map[topology.NodeID]bool)
	for _, level := range levels {
		for n := range level {
			if !ends[n] {
				set[n] = true
			}
		}
	}
	out := make([]topology.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OnPathNodes returns every node on a verified chain, for path-length
// and coverage reporting.
func (p *PPMReconstructor) OnPathNodes() []topology.NodeID {
	levels, _ := p.graph()
	set := make(map[topology.NodeID]bool)
	for _, level := range levels {
		for n := range level {
			set[n] = true
		}
	}
	out := make([]topology.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
