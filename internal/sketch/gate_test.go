package sketch

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestGateOfferAdmit scripts the gate's contract one offer at a time:
// what Offer reports, which earlier items it hands back, and how many
// keys stay tracked. Every gate counts keys 0–63; items are ints so a
// prefix names exactly which offers it holds.
func TestGateOfferAdmit(t *testing.T) {
	type step struct {
		key    uint64
		item   int
		hot    bool
		prefix []int // want when hot
		admit  bool  // call Admit(key) after this offer
		len    int   // want Len() after the step
	}
	cases := []struct {
		name                     string
		slots, admit, decayEvery int
		steps                    []step
	}{
		{"crossing returns exactly the earlier items in order", 4, 3, 1000, []step{
			{key: 7, item: 10, len: 1},
			{key: 7, item: 11, len: 1},
			{key: 7, item: 12, hot: true, prefix: []int{10, 11}, len: 1},
		}},
		{"an evicted then reinserted key starts from what it missed while slotless", 1, 3, 1000, []step{
			{key: 1, item: 10, len: 1}, // key 1 holds the only slot
			{key: 2, item: 20, len: 1}, // no hotter than key 1: turned away
			{key: 2, item: 21, len: 1}, // count 2 > 1: evicts key 1 (and its 10), recovers 20
			{key: 1, item: 11, len: 1}, // count 2 <= key 2's 3: turned away
			{key: 1, item: 12, len: 1}, // 3 <= 3: turned away
			// 4 > 3: wins the slot back, with both.
			{key: 1, item: 13, hot: true, prefix: []int{11, 12}, len: 1},
			{key: 1, item: 14, hot: true, prefix: []int{11, 12, 13}, len: 1},
		}},
		// The destination-scan case: every slot holds a one-shot key, so a
		// new key's first item cannot win one. It used to be lost for good.
		{"a burst meeting a full table keeps its first item", 2, 4, 1000, []step{
			{key: 1, item: 10, len: 1},
			{key: 2, item: 20, len: 2},
			{key: 3, item: 30, len: 2}, // count 1 <= 1: turned away
			{key: 3, item: 31, len: 2}, // 2 > 1: evicts a one-shot key, recovers 30
			{key: 3, item: 32, len: 2},
			{key: 3, item: 33, hot: true, prefix: []int{30, 31, 32}, len: 2},
		}},
		{"hot without Admit stays tracked, hot, and capped", 4, 2, 1000, []step{
			{key: 5, item: 1, len: 1},
			{key: 5, item: 2, hot: true, prefix: []int{1}, len: 1},
			{key: 5, item: 3, hot: true, prefix: []int{1, 2}, len: 1}, // buffer full: 3 not kept
			{key: 5, item: 4, hot: true, prefix: []int{1, 2}, len: 1},
		}},
		// The third offer's decay halves the slot, so the buffer (cap 4)
		// fills before the guaranteed count reaches 4: the crossing item
		// is not in it, and must not be mistaken for its equal twin.
		{"equal items straddling a full buffer", 4, 4, 3, []step{
			{key: 9, item: 1, len: 1},
			{key: 9, item: 2, len: 1},
			{key: 9, item: 3, len: 1},
			{key: 9, item: 4, len: 1},
			{key: 9, item: 4, hot: true, prefix: []int{1, 2, 3, 4}, len: 1},
		}},
		{"a key outside the range is neither counted nor tracked", 4, 2, 1000, []step{
			{key: 64, item: 1, len: 0},
			{key: 64, item: 2, len: 0},
			{key: 1 << 40, item: 3, len: 0},
			{key: 1 << 40, item: 4, len: 0},
		}},
		{"Admit recycles the slot", 4, 2, 1000, []step{
			{key: 3, item: 1, len: 1},
			{key: 3, item: 2, hot: true, prefix: []int{1}, admit: true, len: 0},
			{key: 3, item: 3, len: 1}, // cold again
			{key: 3, item: 4, hot: true, prefix: []int{3}, len: 1},
		}},
	}
	for _, c := range cases {
		g := NewGate[int](64, c.slots, c.admit, c.decayEvery)
		for i, st := range c.steps {
			prefix, hot := g.Offer(st.key, st.item)
			if hot != st.hot || (hot && !reflect.DeepEqual(prefix, st.prefix)) {
				t.Errorf("%s: offer %d (key %d, item %d) = %v, %v; want %v, %v",
					c.name, i, st.key, st.item, prefix, hot, st.prefix, st.hot)
			}
			if !hot && prefix != nil {
				t.Errorf("%s: offer %d returned prefix %v for a cold key", c.name, i, prefix)
			}
			if st.admit {
				g.Admit(st.key)
			}
			if g.Len() != st.len {
				t.Errorf("%s: Len() = %d after offer %d, want %d", c.name, g.Len(), i, st.len)
			}
		}
	}
}

// TestGateMatchesLiteralSequence pins the order of operations inside
// Offer. The reference below is the admission sequence written out
// against the exported structures — count, decay if due, touch,
// threshold — as the pipeline and the cluster each had it before Gate
// existed; the benchmark's correctness gate and the metrics golden
// depend on that order not drifting. A hot key is admitted two times in
// three, so hot-and-waiting keys are in the mix.
func TestGateMatchesLiteralSequence(t *testing.T) {
	const keys, slots, admit, decayEvery = 1 << 20, 64, 8, 4096
	g := NewGate[int](keys, slots, admit, decayEvery)

	counts := make([]uint32, keys)
	hh := NewSpaceSaving[int](slots, admit)
	var since, decays uint64
	refOffer := func(key uint64, item int) bool {
		counts[key]++
		est := counts[key]
		if since++; since >= decayEvery {
			since = 0
			for i := range counts {
				counts[i] >>= 1
			}
			hh.Halve()
			decays++
		}
		slot := hh.Touch(key, est, item)
		return slot != nil && slot.Guaranteed() >= admit
	}

	rnd := rand.New(rand.NewSource(1))
	hots := 0
	for i := 0; i < 100000; i++ {
		key := uint64(rnd.Intn(1 << 20)) // the cold tail
		if rnd.Intn(2) == 0 {
			key = uint64(rnd.Intn(96)) // more hot keys than slots
		}
		_, hot := g.Offer(key, i)
		if want := refOffer(key, i); hot != want {
			t.Fatalf("offer %d (key %d): hot = %v, the literal sequence says %v", i, key, hot, want)
		}
		if hot {
			if hots++; hots%3 != 0 {
				g.Admit(key)
				hh.Remove(key)
			}
		}
	}
	if hots < 1000 {
		t.Fatalf("stream crossed the threshold only %d times; the comparison is vacuous", hots)
	}
	if g.Len() != hh.Len() || g.Decays() != decays {
		t.Fatalf("end state: Len %d, Decays %d; the literal sequence has %d, %d", g.Len(), g.Decays(), hh.Len(), decays)
	}
}

// TestGateSweepKeepsSeenKeys is what exact counts buy. A gate at the
// daemon's sizing over a 16-cube's 2¹⁶ keys has seen 512 keys twice
// each, filling its table; a sweep of every other key once must not
// evict any of them, because a one-shot key's count (1) never exceeds
// the table's minimum (2). A count-min of the old default size inflated
// enough one-shot estimates past 2 to evict 91 of the 512.
func TestGateSweepKeepsSeenKeys(t *testing.T) {
	const keys, admit = 1 << 16, 64
	g := NewGate[int](keys, DefaultSlots, admit, DefaultDecayEvery)
	seen := func(k uint64) bool { return k%(keys/DefaultSlots) == 0 }
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < keys; k++ {
			if seen(k) {
				g.Offer(k, int(k))
			}
		}
	}
	for k := uint64(0); k < keys; k++ {
		if !seen(k) {
			g.Offer(k, int(k))
		}
	}
	kept := 0
	for k := uint64(0); k < keys; k++ {
		if seen(k) && g.hh.Get(k) != nil {
			kept++
		}
	}
	if kept != DefaultSlots {
		t.Fatalf("the sweep left %d of the %d seen keys tracked, want all", kept, DefaultSlots)
	}
}

// BenchmarkGateOfferSweep offers 1 024 distinct hypercube-16 victims
// per op, as four shard gates keyed victim / 4 see a slab of a scan.
func BenchmarkGateOfferSweep(b *testing.B) {
	const nodes, shards, n = 1 << 16, 4, 1024
	gates := make([]*Gate[int], shards)
	for i := range gates {
		gates[i] = NewGate[int](nodes/shards, DefaultSlots, 64, DefaultDecayEvery)
	}
	rnd := rand.New(rand.NewSource(1))
	victims := rnd.Perm(nodes)[:n]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range victims {
			gates[v%shards].Offer(uint64(v/shards), v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
}
