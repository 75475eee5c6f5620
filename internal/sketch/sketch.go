// Package sketch provides the pre-identification stage of the
// pipeline: a space-saving heavy-hitter table over destination ids,
// fed exact per-destination counts. Together they answer "is this
// destination hot enough to deserve exact per-victim state?" in O(1)
// per record, in the spirit of in-network volumetric victim
// identification — the cheap discovery pass that gates the paper's
// expensive exact identification (§5).
//
// Gate composes the two into the admission test the daemon's tiers
// call; its counts are a dense array over the fabric, not a sketch (see
// Gate). CountMin remains for callers that time it. Every structure
// here is single-writer and takes no lock; its owner (a pipeline
// shard, the cluster's forwarding gate) brings one.
package sketch

// mix64 is the SplitMix64 finalizer — the per-row hash for CountMin.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CountMin is a conservative-update count-min sketch over uint64 keys.
// Width rounds up to a power of two so row indexing is a mask, and
// conservative update (only raise cells below the new estimate) keeps
// the overestimate bias minimal for skewed streams.
type CountMin struct {
	mask  uint64
	depth int
	rows  []uint32 // depth rows of width cells, flattened
}

// NewCountMin builds a sketch with the given row width (rounded up to
// a power of two, minimum 16) and depth (minimum 1).
func NewCountMin(width, depth int) *CountMin {
	w := uint64(16)
	for int(w) < width {
		w <<= 1
	}
	if depth < 1 {
		depth = 1
	}
	return &CountMin{mask: w - 1, depth: depth, rows: make([]uint32, w*uint64(depth))}
}

// Add counts one occurrence of key with conservative update and
// returns the new estimate (the minimum cell across rows). Saturates
// at MaxUint32 instead of wrapping.
func (c *CountMin) Add(key uint64) uint32 {
	h := mix64(key)
	w := c.mask + 1
	est := ^uint32(0)
	for r := 0; r < c.depth; r++ {
		i := uint64(r)*w + (h & c.mask)
		if v := c.rows[i]; v < est {
			est = v
		}
		h = mix64(h + uint64(r) + 1)
	}
	if est != ^uint32(0) {
		est++
	}
	h = mix64(key)
	for r := 0; r < c.depth; r++ {
		i := uint64(r)*w + (h & c.mask)
		if c.rows[i] < est {
			c.rows[i] = est
		}
		h = mix64(h + uint64(r) + 1)
	}
	return est
}

// Halve ages every cell by half — the windowed decay, so stale scans
// stop looking hot.
func (c *CountMin) Halve() {
	for i := range c.rows {
		c.rows[i] >>= 1
	}
}

// Bytes reports the sketch's memory footprint.
func (c *CountMin) Bytes() int { return len(c.rows) * 4 }

// Slot is one tracked heavy-hitter candidate. Count follows the
// space-saving rule (inherits the evicted minimum plus its own hits);
// Errs is the inherited part, so Count-Errs counts occurrences actually
// seen: every one since insertion plus those recovered from the ring.
// Buf holds the replay payloads appended while the key was tracked
// (and, first, what the missed ring kept from just before it was),
// capped at the table's bufCap — the pipeline replays them through the
// exact path on admission so no pre-admission record is lost.
type Slot[P any] struct {
	Key   uint64
	Count uint32
	Errs  uint32
	Buf   []P
}

// Guaranteed is the lower bound on the key's true count since shortly
// before the slot was (re)inserted — the admission test the pipeline
// applies.
func (s *Slot[P]) Guaranteed() uint32 { return s.Count - s.Errs }

// SpaceSaving tracks the top-K candidate keys of a stream with the
// space-saving algorithm, each slot carrying a bounded replay buffer.
// Eviction is additionally gated on the caller-provided count: a key
// only displaces the minimum slot when that count says it is genuinely
// hotter, which stops one-shot scan keys from churning the table
// (classic space-saving would rotate every slot under a
// 1M-distinct-destination sweep).
type SpaceSaving[P any] struct {
	slots  []Slot[P]
	idx    map[uint64]int
	bufCap int

	// minHint is a monotone-safe lower bound on the minimum slot count
	// once the table is full: the true minimum never drops below it
	// (counts only grow between rescans), so estimates at or below it
	// reject in O(1) without scanning.
	minHint uint32

	// missed rings the last bufCap items whose key found the table full
	// and was turned away, oldest at missedAt (allocated at the first
	// miss). A key needs est > min to win a slot, so its first records
	// always miss; when it does win one, those still in the ring are
	// counted and buffered ahead of the winning item, and its replay
	// loses nothing so long as fewer than bufCap other misses came
	// between — always true of one slab's victim group.
	missed   []missedItem[P]
	missedAt int
}

type missedItem[P any] struct {
	key  uint64
	item P
	live bool
}

// NewSpaceSaving builds a table with the given slot capacity (minimum
// 1) and per-slot replay-buffer capacity (0 disables buffering).
func NewSpaceSaving[P any](capacity, bufCap int) *SpaceSaving[P] {
	if capacity < 1 {
		capacity = 1
	}
	if bufCap < 0 {
		bufCap = 0
	}
	return &SpaceSaving[P]{
		slots:  make([]Slot[P], 0, capacity),
		idx:    make(map[uint64]int, capacity),
		bufCap: bufCap,
	}
}

// Len returns the number of tracked keys.
func (t *SpaceSaving[P]) Len() int { return len(t.slots) }

// Touch counts one occurrence of key, appending item to its replay
// buffer while tracked (and under the buffer cap). est is the caller's
// exact count for the key (Gate keeps it), consulted only when a full
// table would need an eviction. Returns the key's slot, or nil when the
// key is not tracked (table full and the count no hotter than the
// current minimum).
func (t *SpaceSaving[P]) Touch(key uint64, est uint32, item P) *Slot[P] {
	s, _ := t.touch(key, est, item)
	return s
}

// touch is Touch, also reporting whether item went into the slot's
// buffer (as its last element): how Gate.Offer knows what came before.
func (t *SpaceSaving[P]) touch(key uint64, est uint32, item P) (s *Slot[P], buffered bool) {
	if i, ok := t.idx[key]; ok {
		s = &t.slots[i]
		s.Count++
		if buffered = len(s.Buf) < t.bufCap; buffered {
			s.Buf = append(s.Buf, item)
		}
		return s, buffered
	}
	buffered = t.bufCap > 0
	if len(t.slots) < cap(t.slots) {
		// Reslice rather than append: a slot Remove freed keeps its
		// replay buffer (and Remove zeroed the rest), so re-inserting
		// into it allocates nothing.
		i := len(t.slots)
		t.slots = t.slots[:i+1]
		t.idx[key] = i
		s = &t.slots[i]
		s.Key, s.Count = key, 1
		if buffered {
			if s.Buf == nil {
				s.Buf = make([]P, 0, t.bufCap)
			}
			t.recoverMissed(s)
			s.Buf = append(s.Buf, item)
		}
		return s, buffered
	}
	if est <= t.minHint {
		t.miss(key, item)
		return nil, false // certainly no hotter than the coldest slot
	}
	mi := 0
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].Count < t.slots[mi].Count {
			mi = i
		}
	}
	min := t.slots[mi].Count
	t.minHint = min
	if est <= min {
		t.miss(key, item)
		return nil, false
	}
	// Space-saving eviction: the newcomer inherits the minimum count as
	// its error bound and starts a fresh replay buffer.
	s = &t.slots[mi]
	delete(t.idx, s.Key)
	t.idx[key] = mi
	s.Key = key
	s.Errs = min
	s.Count = min + 1
	s.Buf = s.Buf[:0]
	if buffered {
		t.recoverMissed(s)
		s.Buf = append(s.Buf, item)
	}
	return s, buffered
}

// miss remembers an item turned away from a full table.
func (t *SpaceSaving[P]) miss(key uint64, item P) {
	if t.bufCap == 0 {
		return
	}
	if t.missed == nil {
		t.missed = make([]missedItem[P], t.bufCap)
	}
	t.missed[t.missedAt] = missedItem[P]{key, item, true}
	if t.missedAt++; t.missedAt == len(t.missed) {
		t.missedAt = 0
	}
}

// recoverMissed moves what the ring still holds of the key that just
// won slot s into the slot, oldest first, leaving room for the winning
// item; what does not fit is dropped, as all of it used to be.
func (t *SpaceSaving[P]) recoverMissed(s *Slot[P]) {
	for i := range t.missed {
		m := &t.missed[(t.missedAt+i)%len(t.missed)]
		if !m.live || m.key != s.Key {
			continue
		}
		m.live = false
		if len(s.Buf) < t.bufCap-1 {
			s.Buf = append(s.Buf, m.item)
			s.Count++
		}
	}
}

// Get returns the slot tracking key, or nil.
func (t *SpaceSaving[P]) Get(key uint64) *Slot[P] {
	if i, ok := t.idx[key]; ok {
		return &t.slots[i]
	}
	return nil
}

// Remove frees key's slot (Gate.Admit calls it when the key
// graduates). The freed slot's replay buffer is kept for the next
// insert to reuse. Reports whether the key was tracked.
func (t *SpaceSaving[P]) Remove(key uint64) bool {
	i, ok := t.idx[key]
	if !ok {
		return false
	}
	delete(t.idx, key)
	last := len(t.slots) - 1
	freed := t.slots[i].Buf[:0]
	if i != last {
		t.slots[i] = t.slots[last]
		t.idx[t.slots[i].Key] = i
		t.slots[last].Buf = freed
	} else {
		t.slots[i].Buf = freed
	}
	t.slots[last].Key = 0
	t.slots[last].Count = 0
	t.slots[last].Errs = 0
	t.slots = t.slots[:last]
	t.minHint = 0 // the table is no longer full; hint re-derives on next scan
	return true
}

// Halve ages every slot by half, dropping slots that reach zero —
// run alongside the caller's count halving so the two stay comparable.
func (t *SpaceSaving[P]) Halve() {
	for i := 0; i < len(t.slots); {
		s := &t.slots[i]
		s.Count >>= 1
		s.Errs >>= 1
		if s.Count == 0 {
			t.Remove(s.Key)
			continue // Remove swapped a new slot into i
		}
		i++
	}
	t.minHint >>= 1
}
