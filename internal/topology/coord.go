package topology

import (
	"fmt"
	"strings"
)

// Coord is an n-dimensional node coordinate (x_0, x_1, ..., x_{n-1}),
// matching the paper's indexing scheme in §3. Dimension 0 is the most
// significant for NodeID assignment.
type Coord []int

// Clone returns a copy of c.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and o are the same coordinate.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Sub returns the per-dimension difference c − o: exactly the paper's
// distance vector V with v_i = y_i − x_i when c is the destination and o
// the source (§5).
func (c Coord) Sub(o Coord) Vector {
	if len(c) != len(o) {
		panic(fmt.Sprintf("topology: Sub of mismatched dims %v, %v", c, o))
	}
	v := make(Vector, len(c))
	for i := range c {
		v[i] = c[i] - o[i]
	}
	return v
}

// Add returns the coordinate c + v without bounds or wraparound
// handling; callers on a torus must reduce with Wrap.
func (c Coord) Add(v Vector) Coord {
	if len(c) != len(v) {
		panic(fmt.Sprintf("topology: Add of mismatched dims %v, %v", c, v))
	}
	out := make(Coord, len(c))
	for i := range c {
		out[i] = c[i] + v[i]
	}
	return out
}

// Xor returns the bitwise per-dimension XOR of two hypercube
// coordinates (every entry must be 0 or 1). It is the hypercube variant
// of the distance vector in the paper's Figure 4.
func (c Coord) Xor(o Coord) Coord {
	if len(c) != len(o) {
		panic(fmt.Sprintf("topology: Xor of mismatched dims %v, %v", c, o))
	}
	out := make(Coord, len(c))
	for i := range c {
		out[i] = c[i] ^ o[i]
	}
	return out
}

// Manhattan returns the L1 distance between c and o, the minimal hop
// count in a mesh.
func (c Coord) Manhattan(o Coord) int {
	if len(c) != len(o) {
		panic(fmt.Sprintf("topology: Manhattan of mismatched dims %v, %v", c, o))
	}
	d := 0
	for i := range c {
		d += abs(c[i] - o[i])
	}
	return d
}

func (c Coord) String() string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Vector is a per-dimension signed displacement — the paper's distance
// vector V. Unlike Coord, entries may be negative or exceed the radix
// (transiently, on non-minimal adaptive routes).
type Vector []int

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether v and o are identical.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// AddInPlace accumulates d into v: V' := V + Δ from Figure 4.
func (v Vector) AddInPlace(d Vector) {
	if len(v) != len(d) {
		panic(fmt.Sprintf("topology: AddInPlace of mismatched dims %v, %v", v, d))
	}
	for i := range v {
		v[i] += d[i]
	}
}

// Wrap reduces each component of v into the canonical residue range for
// the given dims: the unique value in (−k/2, k/2] for radix k (ties at
// exactly k/2 resolve to +k/2). On a torus every displacement class has
// one such shortest representative, which is what the victim uses to
// invert the marking.
func (v Vector) Wrap(dims []int) Vector {
	if len(v) != len(dims) {
		panic(fmt.Sprintf("topology: Wrap of mismatched dims %v, %v", v, dims))
	}
	out := make(Vector, len(v))
	for i := range v {
		k := dims[i]
		m := ((v[i] % k) + k) % k // canonical residue in [0,k)
		if m > k/2 {
			m -= k
		}
		out[i] = m
	}
	return out
}

// Mod reduces each component into [0, k_i), the representation used to
// recover S = D − V on a torus.
func (v Vector) Mod(dims []int) Vector {
	if len(v) != len(dims) {
		panic(fmt.Sprintf("topology: Mod of mismatched dims %v, %v", v, dims))
	}
	out := make(Vector, len(v))
	for i := range v {
		k := dims[i]
		out[i] = ((v[i] % k) + k) % k
	}
	return out
}

func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
