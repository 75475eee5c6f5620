package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoordSubAddRoundTrip(t *testing.T) {
	c := Coord{2, 3}
	o := Coord{1, 1}
	v := c.Sub(o) // paper example §5: (2,3) − (1,1) = (1,2)
	if !v.Equal(Vector{1, 2}) {
		t.Errorf("Sub = %v, want (1,2)", v)
	}
	if !o.Add(v).Equal(c) {
		t.Errorf("Add did not invert Sub")
	}
}

func TestVectorWrap(t *testing.T) {
	dims := []int{4, 4}
	cases := []struct {
		in, want Vector
	}{
		{Vector{0, 0}, Vector{0, 0}},
		{Vector{3, 0}, Vector{-1, 0}}, // 3 ≡ −1 (mod 4), and |−1| < |3|
		{Vector{-3, 0}, Vector{1, 0}}, // −3 ≡ 1
		{Vector{2, -2}, Vector{2, 2}}, // tie at k/2 canonicalizes to +2
		{Vector{5, 7}, Vector{1, -1}}, // general reduction
		{Vector{-5, -7}, Vector{-1, 1}},
	}
	for _, tc := range cases {
		if got := tc.in.Wrap(dims); !got.Equal(tc.want) {
			t.Errorf("Wrap(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestVectorMod(t *testing.T) {
	dims := []int{4, 5}
	if got := (Vector{-1, 7}).Mod(dims); !got.Equal(Vector{3, 2}) {
		t.Errorf("Mod = %v, want (3,2)", got)
	}
}

func TestVectorWrapIsCanonicalResidue(t *testing.T) {
	// Property: Wrap(v) ≡ v (mod k) per dimension and lies in (−k/2, k/2].
	f := func(a, b int8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{2 + r.Intn(15), 2 + r.Intn(15)}
		v := Vector{int(a), int(b)}
		w := v.Wrap(dims)
		for i := range w {
			k := dims[i]
			if ((w[i]-v[i])%k+k)%k != 0 {
				return false
			}
			if w[i] <= -(k+1)/2 || w[i] > k/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestVectorAddInPlaceAccumulates(t *testing.T) {
	v := make(Vector, 2)
	for _, d := range []Vector{{1, 0}, {1, 0}, {0, -1}, {-1, 0}, {0, 1}, {0, 1}, {0, 1}} {
		v.AddInPlace(d)
	}
	// This is the adaptive route of Figure 3(b): final vector (1,2).
	if !v.Equal(Vector{1, 2}) {
		t.Errorf("accumulated vector = %v, want (1,2)", v)
	}
}

func TestVectorHelpers(t *testing.T) {
	v := Vector{3, -4}
	c := v.Clone()
	c[0] = 99
	if v[0] == 99 {
		t.Error("Clone aliases the original")
	}
}

func TestCoordString(t *testing.T) {
	if got := (Coord{1, 2, 3}).String(); got != "(1,2,3)" {
		t.Errorf("String = %q", got)
	}
	if got := (Vector{-1, 0}).String(); got != "(-1,0)" {
		t.Errorf("String = %q", got)
	}
}

func TestMismatchedDimsPanic(t *testing.T) {
	funcs := map[string]func(){
		"Sub":        func() { _ = Coord{1}.Sub(Coord{1, 2}) },
		"Add":        func() { _ = Coord{1}.Add(Vector{1, 2}) },
		"Xor":        func() { _ = Coord{1}.Xor(Coord{1, 2}) },
		"Manhattan":  func() { _ = Coord{1}.Manhattan(Coord{1, 2}) },
		"AddInPlace": func() { Vector{1}.AddInPlace(Vector{1, 2}) },
		"Wrap":       func() { Vector{1}.Wrap([]int{2, 2}) },
		"Mod":        func() { Vector{1}.Mod([]int{2, 2}) },
	}
	for name, fn := range funcs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched dims did not panic", name)
				}
			}()
			fn()
		}()
	}
}
