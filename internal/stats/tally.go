package stats

import (
	"math"
	"math/bits"
	"slices"
)

// Tally counts uint32 keys: the identifier's source → count table, and
// the entropy detector's per-window source counts. It grows with the
// keys it has counted, not with the key space: one open-addressed
// table, power-of-two slots, linear probing from a Fibonacci hash,
// doubled at 3/4 load; 12 bytes a slot, 8 slots to start. A slot is
// empty while its count is 0, so every uint32 is a key. Given a dense
// bound, the doubling that would cost more than a counter per key below
// it (12·slots > 8·dense) lays the counters out by key instead and
// drops the keys, for good. Not a map: tests pin these bytes, and slot
// order is a function of the keys added, so an iteration over the
// counts — Entropy's sum — reproduces bit for bit.
type Tally struct {
	keys   []uint32 // keys[i] is slot i's key while counts[i] != 0; nil once dense
	counts []int64  // per slot; per key once dense
	used   int      // occupied slots
	dense  int      // key bound of the dense layout; 0 never goes dense
	total  int64
}

// NewTally returns an empty tally. dense > 0 bounds every key it will
// count below dense and lets it switch to one counter per key.
func NewTally(dense int) Tally {
	t := Tally{dense: dense}
	t.grow()
	return t
}

// slot finds key's place in counts. fresh reports an empty slot key
// would claim: its count reads 0 and Add must write the key.
func (t *Tally) slot(key uint32) (i int, fresh bool) {
	if t.keys == nil {
		return int(key), false
	}
	mask := len(t.keys) - 1
	i = int((uint64(key) + 1) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask)))
	for ; t.counts[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == key {
			return i, false
		}
	}
	return i, true
}

// Add credits n > 0 to key.
func (t *Tally) Add(key uint32, n int64) {
	t.total += n
	t.place(key, n)
}

func (t *Tally) place(key uint32, n int64) {
	i, fresh := t.slot(key)
	t.counts[i] += n
	if fresh {
		t.keys[i] = key
		if t.used++; 4*t.used >= 3*len(t.keys) {
			t.grow()
		}
	}
}

// grow doubles the table and re-adds what it held or, when that would
// cost more than a counter per key below the dense bound, goes dense and
// never grows again.
func (t *Tally) grow() {
	keys, counts := t.keys, t.counts
	if slots := max(8, 2*len(keys)); t.dense > 0 && 12*slots > 8*t.dense {
		t.keys, t.counts = nil, make([]int64, t.dense)
	} else {
		t.keys, t.counts = make([]uint32, slots), make([]int64, slots)
	}
	t.used = 0
	for i, c := range counts {
		if c != 0 {
			t.place(keys[i], c)
		}
	}
}

// Count returns key's count (0 if never added, or past the dense bound).
func (t *Tally) Count(key uint32) int64 {
	if t.keys == nil && int(key) >= len(t.counts) {
		return 0
	}
	i, _ := t.slot(key)
	return t.counts[i]
}

// Total returns the sum of every count added since the last Reset.
func (t *Tally) Total() int64 { return t.total }

// AppendKeys appends every key t counts to dst in slot order —
// ascending once dense, the table's order otherwise — growing dst once
// for them while t is a table.
func AppendKeys[K ~int](dst []K, t *Tally) []K {
	dst = slices.Grow(dst, t.used)
	for i, c := range t.counts {
		if c == 0 {
			continue
		}
		if t.keys == nil {
			dst = append(dst, K(i))
		} else {
			dst = append(dst, K(t.keys[i]))
		}
	}
	return dst
}

// Entropy returns the Shannon entropy in bits of the counts, summed in
// slot order.
func (t *Tally) Entropy() float64 {
	if t.total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range t.counts {
		if c != 0 {
			p := float64(c) / float64(t.total)
			h -= p * math.Log2(p)
		}
	}
	return h
}

// Reset zeroes every count and keeps the slots, so a windowed user
// stops allocating once it has seen a window's worth of keys.
func (t *Tally) Reset() {
	if t.total != 0 {
		clear(t.counts)
		t.used, t.total = 0, 0
	}
}
