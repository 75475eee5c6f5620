package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewStream(12345)
	b := NewStream(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewStream(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square check over 8 buckets; loose bound, deterministic seed.
	r := NewStream(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 7 degrees of freedom; 99.9th percentile ≈ 24.3.
	if chi2 > 24.3 {
		t.Errorf("chi-square = %.2f, counts %v", chi2, counts)
	}
}

func TestIntnPanicsOnBadBound(t *testing.T) {
	r := NewStream(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewStream(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewStream(11)
	const rate = 2.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean = %v, want %v", mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	NewStream(1).Exp(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewStream(5)
	for _, n := range []int{0, 1, 2, 17} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSourceNamedStreamsIndependentOfOrder(t *testing.T) {
	s1 := NewSource(42)
	a1 := s1.Stream("traffic").Uint64()
	b1 := s1.Stream("routing").Uint64()

	s2 := NewSource(42)
	b2 := s2.Stream("routing").Uint64()
	a2 := s2.Stream("traffic").Uint64()

	if a1 != a2 || b1 != b2 {
		t.Error("stream derivation depends on order")
	}
	if a1 == b1 {
		t.Error("distinct names produced identical streams")
	}
}

func TestMul64AgainstBig(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via 32-bit schoolbook recomputation.
		aL, aH := a&0xffffffff, a>>32
		bL, bH := b&0xffffffff, b>>32
		ll := aL * bL
		lh := aL * bH
		hl := aH * bL
		hh := aH * bH
		wantLo := ll + (lh << 32)
		carry := uint64(0)
		if wantLo < ll {
			carry++
		}
		tmp := wantLo
		wantLo += hl << 32
		if wantLo < tmp {
			carry++
		}
		wantHi := hh + (lh >> 32) + (hl >> 32) + carry
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestBoolRoughlyFair(t *testing.T) {
	r := NewStream(123)
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < 4700 || trues > 5300 {
		t.Errorf("Bool true count = %d/%d", trues, n)
	}
}
