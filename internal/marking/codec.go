package marking

import (
	"fmt"

	"repro/internal/topology"
)

// VectorCodec packs a per-dimension signed distance vector into the
// 16-bit Marking Field and supports the in-place per-hop accumulation a
// switch performs (V' := V + Δ without ever unpacking the whole
// vector — each dimension's field is updated independently, which is
// what makes the hardware cost "only simple addition", §6.2).
type VectorCodec interface {
	// Bits returns the total MF bits the codec uses (≤ 16).
	Bits() int

	// Dims returns the number of vector dimensions.
	Dims() int

	// Encode packs v. It returns an error if any component is outside
	// the representable range of its field.
	Encode(v topology.Vector) (uint16, error)

	// Decode unpacks an MF into a vector. Every 16-bit value decodes
	// (fields wrap in two's complement), so Decode cannot fail.
	Decode(mf uint16) topology.Vector

	// Field locates dimension i's component in the MF. Decode is
	// Field(i).Value for every i; DDPM.At reads the fields once instead.
	Field(i int) Field

	// Add returns the MF after accumulating delta into each field with
	// wraparound two's-complement arithmetic — the switch's per-hop op.
	Add(mf uint16, delta topology.Vector) uint16
}

// Field is one dimension's slice of the MF: Mask applies once mf is
// shifted down by Shift; Sign is the sign bit, zero in an unsigned field.
type Field struct {
	Shift      uint8
	Mask, Sign uint16
}

// Value is the field's component of mf, sign-extended.
func (f Field) Value(mf uint16) int {
	d := int(mf>>f.Shift) & int(f.Mask)
	return (d ^ int(f.Sign)) - int(f.Sign)
}

// decode is Decode for any codec: every field's Value, in order.
func decode(c VectorCodec, mf uint16) topology.Vector {
	v := make(topology.Vector, c.Dims())
	for i := range v {
		v[i] = c.Field(i).Value(mf)
	}
	return v
}

// SignedFieldCodec lays out one two's-complement field per dimension,
// least-significant field = last dimension. The paper's layouts:
//
//	2-D mesh/torus:  widths {8, 8}   → up to 128 nodes per dimension
//	3-D mesh/torus:  widths {5, 5, 6} → the paper's 8192-node split
//
// A field of width w represents [−2^{w−1}, 2^{w−1}−1]. Arithmetic wraps
// mod 2^w, so the DDPM invariant decode(Σ Δ) ≡ D − S (mod k) holds
// exactly when either (a) the accumulated component never leaves the
// field range (true for minimal and boundedly-misrouted routing when
// k ≤ 2^{w−1}), or (b) the radix divides 2^w (power-of-two radixes),
// where wraparound commutes with the victim's mod-k reduction.
type SignedFieldCodec struct {
	widths []int
	shifts []int
	bits   int
}

// NewSignedFieldCodec builds a codec from per-dimension field widths.
// Total width must not exceed 16 and every field needs ≥ 2 bits (sign
// plus at least one magnitude bit).
func NewSignedFieldCodec(widths ...int) (*SignedFieldCodec, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("marking: codec needs at least one field")
	}
	total := 0
	for i, w := range widths {
		if w < 2 {
			return nil, fmt.Errorf("marking: field %d width %d < 2", i, w)
		}
		total += w
	}
	if total > 16 {
		return nil, fmt.Errorf("marking: fields need %d bits, MF has 16", total)
	}
	c := &SignedFieldCodec{widths: append([]int(nil), widths...), bits: total}
	c.shifts = make([]int, len(widths))
	shift := 0
	for i := len(widths) - 1; i >= 0; i-- {
		c.shifts[i] = shift
		shift += widths[i]
	}
	return c, nil
}

// CodecForDims chooses field widths for the given topology radixes:
// each dimension gets ⌈log₂ k⌉+1 bits (sign bit plus enough magnitude
// for distances in (−k, k)), then spare MF bits are distributed to the
// widest dimensions for extra misroute headroom. Errors if 16 bits
// cannot cover the topology — the Table 3 scalability boundary.
func CodecForDims(dims []int) (*SignedFieldCodec, error) {
	widths := make([]int, len(dims))
	total := 0
	for i, k := range dims {
		widths[i] = ceilLog2(k) + 1
		if widths[i] < 2 {
			widths[i] = 2
		}
		total += widths[i]
	}
	if total > 16 {
		return nil, fmt.Errorf("marking: dims %v need %d MF bits, have 16 (beyond DDPM scalability)", dims, total)
	}
	// Hand out spare bits round-robin to the largest radixes.
	for spare := 16 - total; spare > 0; spare-- {
		best := 0
		for i := 1; i < len(dims); i++ {
			if dims[i] > dims[best] || (dims[i] == dims[best] && widths[i] < widths[best]) {
				best = i
			}
		}
		// Prefer the widest radix with the narrowest current field.
		for i := range dims {
			if dims[i] == dims[best] && widths[i] < widths[best] {
				best = i
			}
		}
		widths[best]++
	}
	return NewSignedFieldCodec(widths...)
}

func (c *SignedFieldCodec) Bits() int { return c.bits }
func (c *SignedFieldCodec) Dims() int { return len(c.widths) }

// Range returns the representable interval [min, max] of dimension i.
func (c *SignedFieldCodec) Range(i int) (min, max int) {
	w := c.widths[i]
	return -(1 << (w - 1)), 1<<(w-1) - 1
}

func (c *SignedFieldCodec) Encode(v topology.Vector) (uint16, error) {
	if len(v) != len(c.widths) {
		return 0, fmt.Errorf("marking: vector %v has %d dims, codec has %d", v, len(v), len(c.widths))
	}
	var mf uint16
	for i, x := range v {
		lo, hi := c.Range(i)
		if x < lo || x > hi {
			return 0, fmt.Errorf("marking: component %d = %d outside field range [%d,%d]", i, x, lo, hi)
		}
		mask := uint16(1<<c.widths[i] - 1)
		mf |= (uint16(x) & mask) << c.shifts[i]
	}
	return mf, nil
}

func (c *SignedFieldCodec) Decode(mf uint16) topology.Vector { return decode(c, mf) }

func (c *SignedFieldCodec) Field(i int) Field {
	w := c.widths[i]
	return Field{Shift: uint8(c.shifts[i]), Mask: 1<<w - 1, Sign: 1 << (w - 1)}
}

func (c *SignedFieldCodec) Add(mf uint16, delta topology.Vector) uint16 {
	if len(delta) != len(c.widths) {
		panic(fmt.Sprintf("marking: delta %v has %d dims, codec has %d", delta, len(delta), len(c.widths)))
	}
	for i, d := range delta {
		if d == 0 {
			continue
		}
		w := c.widths[i]
		mask := uint16(1<<w-1) << c.shifts[i]
		field := mf & mask
		sum := (field + (uint16(d) << c.shifts[i] & mask)) & mask
		mf = mf&^mask | sum
	}
	return mf
}

// AddSat is the DESIGN.md §6.2 ablation alternative: per-field
// accumulation that CLAMPS at the representable extremes instead of
// wrapping. Saturation looks safer but silently corrupts long
// accumulations — once a field pins at ±max, the telescoping invariant
// is gone even after the walk returns toward the origin, whereas
// two's-complement wraparound stays exact whenever the radix divides
// the field modulus. The benchmark suite compares both; DDPM uses Add.
func (c *SignedFieldCodec) AddSat(mf uint16, delta topology.Vector) uint16 {
	if len(delta) != len(c.widths) {
		panic(fmt.Sprintf("marking: delta %v has %d dims, codec has %d", delta, len(delta), len(c.widths)))
	}
	v := c.Decode(mf)
	for i, d := range delta {
		lo, hi := c.Range(i)
		nv := v[i] + d
		if nv < lo {
			nv = lo
		}
		if nv > hi {
			nv = hi
		}
		v[i] = nv
	}
	out, err := c.Encode(v)
	if err != nil {
		panic("marking: AddSat produced out-of-range value") // unreachable: clamped
	}
	return out
}

// CubeCodec is the hypercube layout: the whole MF is a bit vector, one
// bit per dimension; the per-hop op is an XOR of the flipped
// dimension's bit (Figure 4's hypercube variant). Dimension 0 occupies
// the most significant used bit, mirroring topology.Hypercube addresses.
type CubeCodec struct {
	n int
}

// NewCubeCodec builds a codec for an n-cube, n ≤ 16 (Table 3: a 16-cube
// — 65536 nodes — saturates the MF).
func NewCubeCodec(n int) (*CubeCodec, error) {
	if n < 1 || n > 16 {
		return nil, fmt.Errorf("marking: hypercube dimension %d outside [1,16]", n)
	}
	return &CubeCodec{n: n}, nil
}

func (c *CubeCodec) Bits() int { return c.n }
func (c *CubeCodec) Dims() int { return c.n }

func (c *CubeCodec) Encode(v topology.Vector) (uint16, error) {
	if len(v) != c.n {
		return 0, fmt.Errorf("marking: vector %v has %d dims, codec has %d", v, len(v), c.n)
	}
	var mf uint16
	for i, x := range v {
		switch x {
		case 0:
		case 1:
			mf |= 1 << (c.n - 1 - i)
		default:
			return 0, fmt.Errorf("marking: hypercube component %d = %d not in {0,1}", i, x)
		}
	}
	return mf, nil
}

func (c *CubeCodec) Decode(mf uint16) topology.Vector { return decode(c, mf) }

func (c *CubeCodec) Field(i int) Field { return Field{Shift: uint8(c.n - 1 - i), Mask: 1} }

// Add XORs each nonzero delta component's bit; in the hypercube every
// per-hop displacement is ±1 in exactly one dimension and XOR is its
// own inverse, so addition and subtraction coincide (paper: "The only
// difference is that it uses XOR rather than addition and subtraction").
func (c *CubeCodec) Add(mf uint16, delta topology.Vector) uint16 {
	if len(delta) != c.n {
		panic(fmt.Sprintf("marking: delta %v has %d dims, codec has %d", delta, len(delta), c.n))
	}
	for i, d := range delta {
		if d != 0 {
			mf ^= 1 << (c.n - 1 - i)
		}
	}
	return mf
}
