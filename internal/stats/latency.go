package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// AtomicHistogram is the concurrency-safe sibling of Histogram for hot
// paths: fixed-width bins over [lo, hi) exactly like Histogram, but
// every bucket is an atomic counter sharded S ways so concurrent
// writers on different shards never contend on a cache line. Observe
// is lock-free; Snapshot merges the shards into a plain Histogram for
// the existing percentile/mean math.
//
// Consistency model: each bucket is individually exact, but a Snapshot
// taken during concurrent Observes may see some observations' buckets
// and not others'. For telemetry (latency percentiles on /metrics)
// that skew is harmless; it is never used for invariant checks.
type AtomicHistogram struct {
	lo, hi float64
	width  float64
	nbins  int
	mask   uint64 // shard index mask (len(shards)-1, power of two)
	shards []atomicBins

	// Exemplars: each bin remembers the id and value of the last tagged
	// observation recorded into it (flight-recorder trace ids in ddpmd),
	// so a histogram percentile links to one concrete retrievable
	// record. Last-write-wins across shards — exemplars are pointers,
	// not counters, so the race is benign; id and value are stored as
	// two independent atomics and may transiently mismatch under
	// concurrent stamps, which exemplar consumers tolerate.
	exID  []atomic.Uint64
	exVal []atomic.Uint64 // math.Float64bits of the tagged observation
}

// atomicBins is one shard's counters. The trailing pad keeps adjacent
// shards' hot fields out of one cache line; the bins slices are
// separate allocations and pad themselves naturally.
type atomicBins struct {
	bins  []atomic.Int64
	under atomic.Int64
	over  atomic.Int64
	_     [40]byte
}

// NewAtomicHistogram builds a sharded histogram with nbins equal bins
// spanning [lo, hi) across shards write shards (rounded up to a power
// of two, minimum 1). It panics on a degenerate range or nbins < 1,
// like NewHistogram.
func NewAtomicHistogram(lo, hi float64, nbins, shards int) *AtomicHistogram {
	if !(hi > lo) || nbins < 1 {
		panic(fmt.Sprintf("stats: bad histogram spec [%v,%v) x%d", lo, hi, nbins))
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	h := &AtomicHistogram{
		lo: lo, hi: hi, width: (hi - lo) / float64(nbins),
		nbins:  nbins,
		mask:   uint64(n - 1),
		shards: make([]atomicBins, n),
	}
	for i := range h.shards {
		h.shards[i].bins = make([]atomic.Int64, nbins)
	}
	h.exID = make([]atomic.Uint64, nbins)
	h.exVal = make([]atomic.Uint64, nbins)
	return h
}

// binOf maps an observation to its bin index, clamping out-of-range
// values to the nearest bin (exemplars want a home even for outliers).
func (h *AtomicHistogram) binOf(x float64) int {
	switch {
	case x < h.lo:
		return 0
	case x >= h.hi:
		return h.nbins - 1
	default:
		i := int((x - h.lo) / h.width)
		if i >= h.nbins {
			i = h.nbins - 1
		}
		return i
	}
}

// SetExemplar stamps id as the exemplar of the bin x falls in. It does
// not count an observation — callers pair it with Observe when the
// tagged observation should also be tallied. id 0 is ignored (the
// "untraced" sentinel).
func (h *AtomicHistogram) SetExemplar(x float64, id uint64) {
	if id == 0 {
		return
	}
	i := h.binOf(x)
	h.exID[i].Store(id)
	h.exVal[i].Store(math.Float64bits(x))
}

// Exemplar returns bin i's exemplar id and observation value; id 0
// means the bin has none.
func (h *AtomicHistogram) Exemplar(i int) (id uint64, x float64) {
	if i < 0 || i >= h.nbins {
		return 0, 0
	}
	return h.exID[i].Load(), math.Float64frombits(h.exVal[i].Load())
}

// BinUpperBound returns bin i's upper edge.
func (h *AtomicHistogram) BinUpperBound(i int) float64 { return h.lo + float64(i+1)*h.width }

// Observe records one observation. hint selects the write shard —
// callers that already have a worker/shard index pass it so each
// worker stays on its own cache lines; any value is correct.
func (h *AtomicHistogram) Observe(hint uint64, x float64) {
	s := &h.shards[hint&h.mask]
	switch {
	case x < h.lo:
		s.under.Add(1)
	case x >= h.hi:
		s.over.Add(1)
	default:
		i := int((x - h.lo) / h.width)
		if i >= h.nbins { // float edge case at exactly hi-ε
			i = h.nbins - 1
		}
		s.bins[i].Add(1)
	}
}

// Snapshot merges every shard into a plain Histogram, on which the
// usual Percentile/N/Bins queries run. The snapshot's mean is the bin
// midpoint approximation (the atomic path does not track an exact
// running sum; callers that need one keep it beside the histogram).
func (h *AtomicHistogram) Snapshot() *Histogram {
	out := &Histogram{lo: h.lo, hi: h.hi, width: h.width, bins: make([]int64, h.nbins)}
	for si := range h.shards {
		s := &h.shards[si]
		out.under += s.under.Load()
		out.over += s.over.Load()
		for i := range s.bins {
			out.bins[i] += s.bins[i].Load()
		}
	}
	out.n = out.under + out.over
	mid := h.lo + h.width/2
	for i, c := range out.bins {
		out.n += c
		out.sum += float64(c) * (mid + float64(i)*h.width)
	}
	out.sum += float64(out.under)*h.lo + float64(out.over)*h.hi
	return out
}

// N returns the total observation count without materializing a full
// snapshot (cheap enough for hot-path guards).
func (h *AtomicHistogram) N() int64 {
	var n int64
	for si := range h.shards {
		s := &h.shards[si]
		n += s.under.Load() + s.over.Load()
		for i := range s.bins {
			n += s.bins[i].Load()
		}
	}
	return n
}

// Log2NS converts a duration in nanoseconds to the log2 domain used by
// the latency histograms (exponential buckets out of fixed-width bins:
// record log2(ns) into linear bins and exponentiate the edges back on
// read). Sub-nanosecond readings clamp to 0.
func Log2NS(ns int64) float64 {
	if ns < 1 {
		return 0
	}
	return math.Log2(float64(ns))
}
