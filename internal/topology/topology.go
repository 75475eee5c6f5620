// Package topology models the direct interconnection networks the paper
// targets: n-dimensional meshes, k-ary n-cube tori, and hypercubes
// (paper §3). Every node is a (switch, compute node) pair addressed both
// by a dense integer NodeID and by an n-dimensional coordinate; the
// regular structure is what makes Deterministic Distance Packet Marking
// possible, because the displacement between two nodes is a well-defined
// per-dimension vector.
package topology

import (
	"fmt"
	"sort"
)

// NodeID is a dense index in [0, NumNodes). IDs are assigned in
// row-major (last dimension fastest) order of the coordinates.
type NodeID int

// None is the sentinel for "no node" (e.g. a routing function that has
// no permissible next hop).
const None NodeID = -1

// Link is a directed channel between two neighboring switches.
// Direct networks are built from point-to-point links, so every physical
// cable appears as two Links, one per direction.
type Link struct {
	From, To NodeID
}

func (l Link) String() string { return fmt.Sprintf("%d->%d", l.From, l.To) }

// Topology is the common contract for all direct networks. All
// implementations are immutable after construction and safe for
// concurrent use.
type Topology interface {
	// Name returns a short human-readable description, e.g. "mesh-4x4".
	Name() string

	// Dims returns the per-dimension radix k_i. For a hypercube every
	// entry is 2. The returned slice must not be modified.
	Dims() []int

	// NumNodes returns the total node count, the product of Dims.
	NumNodes() int

	// Degree returns the maximum number of links incident on any node
	// (paper §3: 2n for mesh and torus, n for the hypercube).
	Degree() int

	// Diameter returns the largest minimal hop distance between any
	// node pair.
	Diameter() int

	// IndexOf maps a coordinate to its NodeID. It panics if the
	// coordinate is out of range; use Contains to validate first.
	IndexOf(c Coord) NodeID

	// CoordOf maps a NodeID back to its coordinate. The returned slice
	// is freshly allocated and owned by the caller.
	CoordOf(id NodeID) Coord

	// Neighbors returns the IDs adjacent to id, in a deterministic
	// order (dimension-major, negative direction first). The returned
	// slice is freshly allocated.
	Neighbors(id NodeID) []NodeID

	// IsNeighbor reports whether a and b share a link.
	IsNeighbor(a, b NodeID) bool

	// MinDistance returns the minimal hop count between a and b.
	MinDistance(a, b NodeID) int

	// Wraparound reports whether the network has wraparound channels
	// (true for torus, false for mesh; the hypercube's k=2 links are
	// conventionally not considered wraparound).
	Wraparound() bool
}

// Contains reports whether c is a valid coordinate of t.
func Contains(t Topology, c Coord) bool {
	dims := t.Dims()
	if len(c) != len(dims) {
		return false
	}
	for i, v := range c {
		if v < 0 || v >= dims[i] {
			return false
		}
	}
	return true
}

// Links enumerates every directed link in t, sorted by (From, To).
// The cost is O(N * degree); callers that need the link set repeatedly
// should cache it.
func Links(t Topology) []Link {
	var out []Link
	n := t.NumNodes()
	for id := 0; id < n; id++ {
		for _, nb := range t.Neighbors(NodeID(id)) {
			out = append(out, Link{From: NodeID(id), To: nb})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// NumLinks returns the number of directed links in t.
func NumLinks(t Topology) int {
	total := 0
	for id := 0; id < t.NumNodes(); id++ {
		total += len(t.Neighbors(NodeID(id)))
	}
	return total
}

// bisectionWidth returns the number of directed links crossing the
// canonical bisection (splitting the highest-radix dimension in half).
func bisectionWidth(t Topology) int {
	dims := t.Dims()
	// Pick the dimension with the largest radix; ties go to the lowest
	// dimension index, matching the usual convention.
	maxDim, maxK := 0, 0
	for i, k := range dims {
		if k > maxK {
			maxDim, maxK = i, k
		}
	}
	half := maxK / 2
	count := 0
	for id := 0; id < t.NumNodes(); id++ {
		c := t.CoordOf(NodeID(id))
		for _, nb := range t.Neighbors(NodeID(id)) {
			nc := t.CoordOf(nb)
			if (c[maxDim] < half) != (nc[maxDim] < half) {
				count++
			}
		}
	}
	return count
}

// indexOf computes the row-major rank of c for the given dims.
// Shared by all concrete topologies.
func indexOf(dims []int, c Coord) NodeID {
	if len(c) != len(dims) {
		panic(fmt.Sprintf("topology: coordinate %v has %d dims, want %d", c, len(c), len(dims)))
	}
	idx := 0
	for i := 0; i < len(dims); i++ {
		v := c[i]
		if v < 0 || v >= dims[i] {
			panic(fmt.Sprintf("topology: coordinate %v out of range for dims %v", c, dims))
		}
		idx = idx*dims[i] + v
	}
	return NodeID(idx)
}

// coordOf inverts indexOf.
func coordOf(dims []int, id NodeID) Coord {
	c := make(Coord, len(dims))
	coordInto(dims, id, c)
	return c
}

// coordInto writes id's coordinate into dst without allocating.
func coordInto(dims []int, id NodeID, dst Coord) {
	n := 1
	for _, k := range dims {
		n *= k
	}
	if id < 0 || int(id) >= n {
		panic(fmt.Sprintf("topology: node id %d out of range [0,%d)", id, n))
	}
	if len(dst) != len(dims) {
		panic(fmt.Sprintf("topology: coordinate buffer has %d dims, want %d", len(dst), len(dims)))
	}
	rem := int(id)
	for i := len(dims) - 1; i >= 0; i-- {
		dst[i] = rem % dims[i]
		rem /= dims[i]
	}
}

// coordTable precomputes every node's coordinate, flattened row-major
// (node id's coordinate occupies entries [id*n, id*n+n)). Mesh and
// torus keep one so the per-hop CoordInto/Step paths are table lookups
// instead of div/mod chains.
func coordTable(dims []int) []int32 {
	n := prod(dims)
	nd := len(dims)
	tbl := make([]int32, n*nd)
	c := make(Coord, nd)
	for id := 0; id < n; id++ {
		coordInto(dims, NodeID(id), c)
		for i, v := range c {
			tbl[id*nd+i] = int32(v)
		}
	}
	return tbl
}

// tableCoordInto reads id's coordinate out of a coordTable.
func tableCoordInto(tbl []int32, nd int, id NodeID, dst Coord) {
	if len(dst) != nd {
		panic(fmt.Sprintf("topology: coordinate buffer has %d dims, want %d", len(dst), nd))
	}
	row := tbl[int(id)*nd : int(id)*nd+nd]
	for i, v := range row {
		dst[i] = int(v)
	}
}

// strides returns the row-major stride of each dimension: moving ±1
// along dimension i changes the NodeID by ±strides[i].
func strides(dims []int) []int {
	s := make([]int, len(dims))
	st := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = st
		st *= dims[i]
	}
	return s
}

func prod(dims []int) int {
	p := 1
	for _, k := range dims {
		p *= k
	}
	return p
}

func validateDims(kind string, dims []int) {
	if len(dims) == 0 {
		panic(fmt.Sprintf("topology: %s needs at least one dimension", kind))
	}
	for i, k := range dims {
		if k < 2 {
			panic(fmt.Sprintf("topology: %s dimension %d has radix %d, need >= 2", kind, i, k))
		}
	}
	if prod(dims) > 1<<22 {
		panic(fmt.Sprintf("topology: %s with dims %v exceeds the 4M-node simulator limit", kind, dims))
	}
}
