package topology

// Stepper is implemented by every concrete topology in this package:
// it moves one hop along a single dimension. Routing algorithms are
// written against Stepper + Topology so they stay agnostic of the
// concrete network.
type Stepper interface {
	// Step returns the neighbor reached by moving dir ∈ {−1,+1} along
	// dim, or None when the move would leave the network (mesh edges).
	Step(id NodeID, dim, dir int) NodeID
}

// Network bundles the two views every router needs.
type Network interface {
	Topology
	Stepper
}

// Displacement returns the per-hop displacement vector Δ = next − cur
// that a DDPM switch adds into the marking field when forwarding from
// cur to next. On a torus a wraparound hop contributes ±1 (not ±(k−1)):
// the switch knows which physical channel it used, so it records the
// direction of travel, and the victim reduces the sum mod k.
func Displacement(t Topology, cur, next NodeID) Vector {
	return DisplacementInto(t, cur, next, make(Vector, len(t.Dims())), nil, nil)
}

// DisplacementInto is the allocation-free form of Displacement: Δ is
// written into v (length = dimension count), with cc and nc as scratch
// coordinate buffers (nil, or the same length). Marking schemes call it
// once per forwarded hop, so it must not allocate.
func DisplacementInto(t Topology, cur, next NodeID, v Vector, cc, nc Coord) Vector {
	cc = FillCoord(t, cur, cc)
	nc = FillCoord(t, next, nc)
	for i := range v {
		v[i] = nc[i] - cc[i]
	}
	if !t.Wraparound() {
		return v
	}
	dims := t.Dims()
	for i := range v {
		k := dims[i]
		switch v[i] {
		case k - 1: // wrapped downward: physically a −1 hop
			v[i] = -1
		case -(k - 1): // wrapped upward: physically a +1 hop
			v[i] = 1
		}
	}
	return v
}

// bfsDistances returns the hop distance from src to every node,
// ignoring the links in failed (treated as bidirectional failures when
// both directions are present; only the given directed links are
// skipped). Unreachable nodes get −1. Used to validate MinDistance and
// fault-tolerant routing.
func bfsDistances(t Topology, src NodeID, failed map[Link]bool) []int {
	n := t.NumNodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.Neighbors(cur) {
			if failed != nil && failed[Link{From: cur, To: nb}] {
				continue
			}
			if dist[nb] == -1 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// CoordWriter is implemented by topologies that can write a node's
// coordinate into a caller-provided buffer without allocating. All
// regular topologies in this package implement it; FillCoord falls back
// to CoordOf for those that do not.
type CoordWriter interface {
	CoordInto(id NodeID, dst Coord)
}

// FillCoord writes id's coordinate into dst and returns it. dst must
// either be nil (a fresh Coord is allocated) or have length equal to the
// topology's dimension count. When t implements CoordWriter the fill is
// allocation-free — the building block of the simulator's per-hop paths.
func FillCoord(t Topology, id NodeID, dst Coord) Coord {
	if dst == nil {
		dst = make(Coord, len(t.Dims()))
	}
	if w, ok := t.(CoordWriter); ok {
		w.CoordInto(id, dst)
		return dst
	}
	copy(dst, t.CoordOf(id))
	return dst
}

// MinimalDims returns the dimensions in which cur still differs from
// dst, together with the productive direction (+1/−1) in each. For a
// torus the shorter way around is chosen; exact ties prefer +1.
func MinimalDims(t Topology, cur, dst NodeID) []DimDir {
	return AppendMinimalDims(t, cur, dst, nil, nil, nil)
}

// AppendMinimalDims is the allocation-free form of MinimalDims: it
// appends the productive (dimension, direction) moves to out and returns
// the extended slice. cc and dc are scratch coordinate buffers (nil, or
// length = dimension count); when non-nil they are left holding cur's
// and dst's coordinates, so callers that need the coordinates afterwards
// (e.g. torus tie handling) can reuse them without refetching.
func AppendMinimalDims(t Topology, cur, dst NodeID, out []DimDir, cc, dc Coord) []DimDir {
	cc = FillCoord(t, cur, cc)
	dc = FillCoord(t, dst, dc)
	dims := t.Dims()
	for i := range cc {
		if cc[i] == dc[i] {
			continue
		}
		dir := 1
		if t.Wraparound() {
			k := dims[i]
			fwd := dc[i] - cc[i] // coords are in [0,k), so one add normalizes
			if fwd < 0 {
				fwd += k
			}
			if fwd > k-fwd {
				dir = -1
			} else if fwd == k-fwd {
				dir = 1 // tie: either way is minimal; canonicalize to +1
			}
		} else if dc[i] < cc[i] {
			dir = -1
		}
		out = append(out, DimDir{Dim: i, Dir: dir})
	}
	return out
}

// PortTable is a dense, immutable flattening of a topology's adjacency:
// every node's neighbor list (in Neighbors order) laid out in one slice,
// with a dense index per directed link. Building it costs one Neighbors
// sweep; afterwards every adjacency query is slice arithmetic — no maps
// and no allocation — which is what keeps the simulators' per-hop paths
// allocation-free.
type PortTable struct {
	first []int32  // node i's links occupy indices [first[i], first[i+1])
	to    []NodeID // flattened neighbor lists; index = dense link index
}

// NewPortTable builds the table for t.
func NewPortTable(t Topology) *PortTable {
	n := t.NumNodes()
	pt := &PortTable{
		first: make([]int32, n+1),
		to:    make([]NodeID, 0, n*t.Degree()),
	}
	for id := 0; id < n; id++ {
		pt.first[id] = int32(len(pt.to))
		pt.to = append(pt.to, t.Neighbors(NodeID(id))...)
	}
	pt.first[n] = int32(len(pt.to))
	return pt
}

// NumLinks returns the number of directed links.
func (pt *PortTable) NumLinks() int { return len(pt.to) }

// Ports returns node id's neighbors as a shared subslice of the table;
// callers must not modify it.
func (pt *PortTable) Ports(id NodeID) []NodeID {
	return pt.to[pt.first[id]:pt.first[id+1]]
}

// To returns the destination node of the directed link at dense index
// li.
func (pt *PortTable) To(li int32) NodeID { return pt.to[li] }

// LinkIndex returns the dense index of the directed link from→to, or −1
// when the nodes are not adjacent. The scan is bounded by the node
// degree, so it is O(1) for any fixed topology family.
func (pt *PortTable) LinkIndex(from, to NodeID) int32 {
	for i := pt.first[from]; i < pt.first[from+1]; i++ {
		if pt.to[i] == to {
			return i
		}
	}
	return -1
}

// DimDir is a (dimension, direction) pair describing one productive
// move of a minimal route.
type DimDir struct {
	Dim int
	Dir int // +1 or −1
}
