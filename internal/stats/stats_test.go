package stats

import (
	"math"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if !almost(r.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want %v", r.Var(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.Std() != 0 || r.Min() != 0 || r.Max() != 0 || r.CI95() != 0 {
		t.Error("empty accumulator must report zeros")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	if p := h.Percentile(50); !almost(p, 50, 1.5) {
		t.Errorf("P50 = %v", p)
	}
	if p := h.Percentile(90); !almost(p, 90, 1.5) {
		t.Errorf("P90 = %v", p)
	}
	if !almost(h.Mean(), 50, 1e-9) {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(15)
	h.Add(5)
	under, over := h.OutOfRange()
	if under != 1 || over != 1 {
		t.Errorf("under/over = %d/%d", under, over)
	}
	if h.N() != 3 {
		t.Errorf("N = %d", h.N())
	}
	if h.Percentile(1) != 0 {
		t.Errorf("P1 with underflow = %v, want lo", h.Percentile(1))
	}
	if h.Percentile(100) != 10 {
		t.Errorf("P100 with overflow = %v, want hi", h.Percentile(100))
	}
}

func TestHistogramEmptyAndBadSpec(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report 0")
	}
	for _, spec := range []struct {
		lo, hi float64
		n      int
	}{{1, 1, 4}, {2, 1, 4}, {0, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%v,%d) did not panic", spec.lo, spec.hi, spec.n)
				}
			}()
			NewHistogram(spec.lo, spec.hi, spec.n)
		}()
	}
}

func TestCounterEntropy(t *testing.T) {
	c := NewCounter[string]()
	// Uniform over 4 keys → 2 bits.
	for _, k := range []string{"a", "b", "c", "d"} {
		for i := 0; i < 10; i++ {
			c.Add(k)
		}
	}
	if !almost(c.Entropy(), 2, 1e-12) {
		t.Errorf("Entropy = %v, want 2", c.Entropy())
	}
	c.Reset()
	if c.Total() != 0 || c.Distinct() != 0 || c.Entropy() != 0 {
		t.Error("Reset did not clear")
	}
	// Single key → 0 bits.
	c.Add("x")
	c.Add("x")
	if c.Entropy() != 0 {
		t.Errorf("single-key entropy = %v", c.Entropy())
	}
}

func TestCounterTop(t *testing.T) {
	c := NewCounter[int]()
	for i := 0; i < 5; i++ {
		c.Add(1)
	}
	for i := 0; i < 3; i++ {
		c.Add(2)
	}
	c.Add(3)
	top := c.Top(2, func(a, b int) bool { return a < b })
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Errorf("Top = %v", top)
	}
	if all := c.Top(99, func(a, b int) bool { return a < b }); len(all) != 3 {
		t.Errorf("Top(99) = %v", all)
	}
	if c.Count(1) != 5 || c.Count(404) != 0 {
		t.Error("Count wrong")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if v := e.Update(10); v != 10 {
		t.Errorf("first update = %v, want exact init", v)
	}
	if v := e.Update(20); !almost(v, 15, 1e-12) {
		t.Errorf("second update = %v, want 15", v)
	}
	if e.Value() != 15 {
		t.Errorf("Value = %v", e.Value())
	}
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Update(7)
	}
	if !almost(e.Value(), 7, 1e-9) {
		t.Errorf("EWMA did not converge: %v", e.Value())
	}
}

func TestRunningCI95Shrinks(t *testing.T) {
	var small, large Running
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 3))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 3))
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI did not shrink: n=10 %v vs n=1000 %v", small.CI95(), large.CI95())
	}
}
