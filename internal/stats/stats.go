// Package stats provides the streaming statistics the experiments and
// detectors use: Welford mean/variance accumulators, fixed-bin
// histograms with percentile queries, Shannon entropy over categorical
// counters, EWMA trackers, and normal-approximation confidence
// intervals. Everything is allocation-light and deterministic.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean and variance in one pass using
// Welford's algorithm, which is numerically stable for long runs.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the sample count.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (0 for n < 2).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min and Max return the observed extremes (0 when empty).
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval of the mean.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.Std() / math.Sqrt(float64(r.n))
}

func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		r.n, r.Mean(), r.Std(), r.Min(), r.Max())
}

// Histogram is a fixed-width-bin histogram over [lo, hi) with overflow
// and underflow bins, supporting approximate percentile queries.
type Histogram struct {
	lo, hi float64
	width  float64
	bins   []int64
	under  int64
	over   int64
	n      int64
	sum    float64
}

// NewHistogram builds a histogram with nbins equal bins spanning
// [lo, hi). It panics on a degenerate range or nbins < 1.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if !(hi > lo) || nbins < 1 {
		panic(fmt.Sprintf("stats: bad histogram spec [%v,%v) x%d", lo, hi, nbins))
	}
	return &Histogram{lo: lo, hi: hi, width: (hi - lo) / float64(nbins), bins: make([]int64, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum += x
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.bins) { // float edge case at exactly hi-ε
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// N returns the observation count; Mean the exact running mean.
func (h *Histogram) N() int64 { return h.n }

func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Percentile returns an approximation of the p-th percentile
// (0 < p < 100) using linear interpolation within the containing bin.
// Underflow mass maps to lo, overflow mass to hi.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p >= 100 {
		p = 100
	}
	target := p / 100 * float64(h.n)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	for i, c := range h.bins {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*h.width
		}
		cum = next
	}
	return h.hi
}

// Bins exposes a copy of the bin counts (for CSV dumps).
func (h *Histogram) Bins() []int64 {
	out := make([]int64, len(h.bins))
	copy(out, h.bins)
	return out
}

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }

// Counter tallies categorical observations (e.g. source addresses seen
// at a victim NIC) and reports their Shannon entropy, which collapses
// during a fixed-spoof flood and explodes under random spoofing —
// both useful DDoS signals.
type Counter[K comparable] struct {
	counts map[K]int64
	total  int64
}

// NewCounter returns an empty counter.
func NewCounter[K comparable]() *Counter[K] {
	return &Counter[K]{counts: make(map[K]int64)}
}

// Add increments key's count.
func (c *Counter[K]) Add(key K) {
	c.counts[key]++
	c.total++
}

// Total returns the number of observations; Distinct the number of
// distinct keys.
func (c *Counter[K]) Total() int64  { return c.total }
func (c *Counter[K]) Distinct() int { return len(c.counts) }

// Count returns the tally for key.
func (c *Counter[K]) Count(key K) int64 { return c.counts[key] }

// Entropy returns the Shannon entropy in bits of the empirical
// distribution.
func (c *Counter[K]) Entropy() float64 {
	if c.total == 0 {
		return 0
	}
	hBits := 0.0
	for _, n := range c.counts {
		p := float64(n) / float64(c.total)
		hBits -= p * math.Log2(p)
	}
	return hBits
}

// Top returns the k most frequent keys, most frequent first; ties
// break on insertion-independent key comparison via the provided less
// function over keys when frequencies are equal (callers that don't
// care can pass nil for arbitrary-but-deterministic fallback ordering
// on count only — with nil, equal-count ordering is unspecified).
// k <= 0 yields an empty result rather than a slice-bounds panic.
func (c *Counter[K]) Top(k int, less func(a, b K) bool) []K {
	if k <= 0 {
		return nil
	}
	keys := make([]K, 0, len(c.counts))
	for key := range c.counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := c.counts[keys[i]], c.counts[keys[j]]
		if ci != cj {
			return ci > cj
		}
		if less != nil {
			return less(keys[i], keys[j])
		}
		return false
	})
	if k > len(keys) {
		k = len(keys)
	}
	return keys[:k]
}

// Reset clears all tallies. The map's capacity is retained so that
// windowed users (the entropy detector closes and reopens a window per
// interval) stop allocating once they have seen a full key population.
func (c *Counter[K]) Reset() {
	clear(c.counts)
	c.total = 0
}

// EWMA is an exponentially weighted moving average with smoothing
// factor alpha in (0, 1]; higher alpha follows the signal faster.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA creates a tracker. It panics for alpha outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds x in and returns the new average. The first observation
// initializes the average exactly.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
	} else {
		e.value += e.alpha * (x - e.value)
	}
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }
