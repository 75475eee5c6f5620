package marking

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/topology"
)

func TestSignedFieldCodecRoundTrip(t *testing.T) {
	c, err := NewSignedFieldCodec(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bits() != 16 || c.Dims() != 2 {
		t.Fatalf("Bits=%d Dims=%d", c.Bits(), c.Dims())
	}
	for _, v := range []topology.Vector{
		{0, 0}, {1, 2}, {-1, -2}, {127, -128}, {-128, 127}, {5, -5},
	} {
		mf, err := c.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%v): %v", v, err)
		}
		if got := c.Decode(mf); !got.Equal(v) {
			t.Errorf("round trip %v -> %#04x -> %v", v, mf, got)
		}
	}
}

func TestSignedFieldCodecRange(t *testing.T) {
	c, _ := NewSignedFieldCodec(5, 5, 6)
	lo, hi := c.Range(0)
	if lo != -16 || hi != 15 {
		t.Errorf("5-bit range [%d,%d]", lo, hi)
	}
	lo, hi = c.Range(2)
	if lo != -32 || hi != 31 {
		t.Errorf("6-bit range [%d,%d]", lo, hi)
	}
	if _, err := c.Encode(topology.Vector{16, 0, 0}); err == nil {
		t.Error("out-of-range component encoded")
	}
	if _, err := c.Encode(topology.Vector{0, 0}); err == nil {
		t.Error("wrong-dims vector encoded")
	}
}

func TestSignedFieldCodecAddMatchesVectorAdd(t *testing.T) {
	c, _ := NewSignedFieldCodec(8, 8)
	f := func(a0, a1 int8, steps []int8) bool {
		v := topology.Vector{int(a0) / 2, int(a1) / 2}
		mf, err := c.Encode(v)
		if err != nil {
			return true
		}
		for _, s := range steps {
			d := topology.Vector{0, 0}
			switch s % 4 {
			case 0:
				d[0] = 1
			case 1, -1:
				d[0] = -1
			case 2, -2:
				d[1] = 1
			default:
				d[1] = -1
			}
			mf = c.Add(mf, d)
			v.AddInPlace(d)
			if v[0] < -128 || v[0] > 127 || v[1] < -128 || v[1] > 127 {
				return true // left the representable range; wrap semantics differ by design
			}
		}
		return c.Decode(mf).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSignedFieldCodecAddWrapsModuloField(t *testing.T) {
	// ±1 hops on a ring of radix 2^w stay correct through field
	// wraparound: decode ≡ true displacement (mod 2^w).
	c, _ := NewSignedFieldCodec(4, 4) // fields hold [-8,7]
	mf := uint16(0)
	for i := 0; i < 20; i++ { // 20 > 7: wraps
		mf = c.Add(mf, topology.Vector{1, 0})
	}
	got := c.Decode(mf)
	if ((got[0]-20)%16+16)%16 != 0 {
		t.Errorf("wrapped decode %v, want ≡20 (mod 16)", got)
	}
	if got[1] != 0 {
		t.Errorf("neighbor field disturbed: %v", got)
	}
}

func TestSignedFieldCodecAddNoCrossFieldCarry(t *testing.T) {
	c, _ := NewSignedFieldCodec(8, 8)
	// Saturate the low field's positive range and overflow it; the high
	// field must be untouched.
	mf, _ := c.Encode(topology.Vector{3, 127})
	mf = c.Add(mf, topology.Vector{0, 1})
	got := c.Decode(mf)
	if got[0] != 3 {
		t.Errorf("carry leaked across fields: %v", got)
	}
	if got[1] != -128 { // two's complement wrap
		t.Errorf("low field = %d, want -128", got[1])
	}
}

func TestSignedFieldCodecValidation(t *testing.T) {
	cases := [][]int{{}, {1}, {8, 8, 8}, {17}, {2, 15}}
	for _, widths := range cases {
		if _, err := NewSignedFieldCodec(widths...); err == nil {
			t.Errorf("NewSignedFieldCodec(%v) accepted", widths)
		}
	}
	if _, err := NewSignedFieldCodec(2, 14); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestCodecForDimsPaperLayouts(t *testing.T) {
	// 2-D 128×128 (Table 3 maximum): 8/8.
	c, err := CodecForDims([]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	w := c.widths
	if w[0] != 8 || w[1] != 8 {
		t.Errorf("128x128 widths = %v, want [8 8]", w)
	}
	// Beyond Table 3: 256×256 must not fit.
	if _, err := CodecForDims([]int{256, 256}); err == nil {
		t.Error("256x256 codec built; Table 3 says it must not fit")
	}
	// The paper's 3-D split 16×16×32 fits (5/5/6).
	c, err = CodecForDims([]int{16, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if c.Bits() != 16 {
		t.Errorf("3-D bits = %d", c.Bits())
	}
	w = c.widths
	if w[2] < 6 {
		t.Errorf("widest dimension got %d bits, want >= 6 (radix 32)", w[2])
	}
}

func TestCodecForDimsSpareBitsGoToWidestRadix(t *testing.T) {
	c, err := CodecForDims([]int{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	w := c.widths
	if w[1] <= w[0] {
		t.Errorf("widths = %v: radix-64 dimension should receive the spare bits", w)
	}
	if w[0]+w[1] != 16 {
		t.Errorf("spare bits unallocated: %v", w)
	}
}

func TestCubeCodecRoundTrip(t *testing.T) {
	c, err := NewCubeCodec(3)
	if err != nil {
		t.Fatal(err)
	}
	for mf := uint16(0); mf < 8; mf++ {
		v := c.Decode(mf)
		back, err := c.Encode(v)
		if err != nil || back != mf {
			t.Errorf("cube round trip %#x -> %v -> %#x (%v)", mf, v, back, err)
		}
	}
	if _, err := c.Encode(topology.Vector{2, 0, 0}); err == nil {
		t.Error("non-binary component encoded")
	}
	if _, err := c.Encode(topology.Vector{0, 0}); err == nil {
		t.Error("wrong dims encoded")
	}
}

func TestCubeCodecAddIsXor(t *testing.T) {
	c, _ := NewCubeCodec(4)
	mf := uint16(0)
	mf = c.Add(mf, topology.Vector{1, 0, 0, 0})
	mf = c.Add(mf, topology.Vector{0, 0, 1, 0})
	if !c.Decode(mf).Equal(topology.Vector{1, 0, 1, 0}) {
		t.Errorf("decode = %v", c.Decode(mf))
	}
	// XOR is self-inverse: re-flipping dimension 0 clears it.
	mf = c.Add(mf, topology.Vector{1, 0, 0, 0})
	if !c.Decode(mf).Equal(topology.Vector{0, 0, 1, 0}) {
		t.Errorf("decode after re-flip = %v", c.Decode(mf))
	}
}

func TestCubeCodecBounds(t *testing.T) {
	for _, n := range []int{0, 17} {
		if _, err := NewCubeCodec(n); err == nil {
			t.Errorf("NewCubeCodec(%d) accepted", n)
		}
	}
	c, _ := NewCubeCodec(16)
	if c.Bits() != 16 {
		t.Errorf("16-cube bits = %d", c.Bits())
	}
}

func TestAddPanicsOnDimMismatch(t *testing.T) {
	c, _ := NewSignedFieldCodec(8, 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SignedFieldCodec.Add dim mismatch did not panic")
			}
		}()
		c.Add(0, topology.Vector{1})
	}()
	cc, _ := NewCubeCodec(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CubeCodec.Add dim mismatch did not panic")
			}
		}()
		cc.Add(0, topology.Vector{1})
	}()
}

func TestCodecRandomWalkProperty(t *testing.T) {
	// Full-stack property: pack a random walk's displacements through
	// the codec and compare with exact vector arithmetic, on a torus
	// whose radix divides the field modulus (wrap-commutes case).
	tr := topology.NewTorus2D(16) // radix 16 divides 2^8
	c, err := CodecForDims(tr.Dims())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewStream(1234)
	for trial := 0; trial < 50; trial++ {
		src := topology.NodeID(r.Intn(tr.NumNodes()))
		cur := src
		mf := uint16(0)
		for s := 0; s < 300; s++ {
			nbs := tr.Neighbors(cur)
			next := nbs[r.Intn(len(nbs))]
			mf = c.Add(mf, topology.Displacement(tr, cur, next))
			cur = next
		}
		got := topology.Vector(c.Decode(mf)).Mod(tr.Dims())
		want := tr.CoordOf(cur).Sub(tr.CoordOf(src)).Mod(tr.Dims())
		if !got.Equal(want) {
			t.Fatalf("trial %d: decode %v, want %v", trial, got, want)
		}
	}
}
