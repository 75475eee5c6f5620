package stats

import (
	"strings"
	"testing"
)

func TestRunningString(t *testing.T) {
	var r Running
	r.Add(2)
	r.Add(4)
	s := r.String()
	for _, want := range []string{"n=2", "mean=3", "min=2", "max=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestRunningExtremesTracking(t *testing.T) {
	var r Running
	for _, x := range []float64{3, -1, 7, 7, -1} {
		r.Add(x)
	}
	if r.Min() != -1 || r.Max() != 7 {
		t.Errorf("min/max = %v/%v", r.Min(), r.Max())
	}
}

func TestHistogramBins(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	for _, x := range []float64{0.5, 1.5, 1.6, 3.9} {
		h.Add(x)
	}
	bins := h.Bins()
	want := []int64{1, 2, 0, 1}
	for i, w := range want {
		if bins[i] != w {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
	// The copy does not alias internal state.
	bins[0] = 99
	if h.Bins()[0] == 99 {
		t.Error("Bins aliases internal storage")
	}
}

func TestHistogramEdgeAtUpperBound(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(0.999999999999) // lands in the last bin, not overflow
	if _, over := h.OutOfRange(); over != 0 {
		t.Error("near-hi value counted as overflow")
	}
	if h.Bins()[2] != 1 {
		t.Errorf("bins = %v", h.Bins())
	}
}

func TestHistogramPercentileClamps(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	if p := h.Percentile(-5); p < 0 {
		t.Errorf("P(-5) = %v", p)
	}
	if p := h.Percentile(150); p != h.Percentile(100) {
		t.Errorf("P(150) = %v != P(100) = %v", p, h.Percentile(100))
	}
}

func TestCounterTopNilLess(t *testing.T) {
	c := NewCounter[string]()
	c.Add("a")
	c.Add("a")
	c.Add("b")
	top := c.Top(2, nil)
	if len(top) != 2 || top[0] != "a" {
		t.Errorf("Top with nil less = %v", top)
	}
	// Tie with nil less: both orders are acceptable, but the call must
	// not panic and must return both keys.
	c.Add("b")
	top = c.Top(2, nil)
	if len(top) != 2 {
		t.Errorf("tied Top = %v", top)
	}
}
