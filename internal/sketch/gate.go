package sketch

// Default gate sizing, shared by every tier that runs a Gate so the
// pipeline's shard gates and the cluster's forwarding gate cannot drift.
const (
	DefaultWidth      = 1 << 15 // count-min row width
	DefaultDepth      = 4       // count-min rows
	DefaultSlots      = 512     // space-saving slots
	DefaultDecayEvery = 1 << 20 // offers between halvings
)

// Gate is the admission test: a key (a destination id) is hot once the
// space-saving table guarantees it admit occurrences since it was last
// (re)inserted. Until then its items are buffered in its slot, up to
// admit of them, so whoever acts on the crossing can replay what came
// before and lose nothing from the moment the key won a slot — nor, while
// the table's ring of the last admit turned-away items still holds them,
// the items it offered before it could win one (SpaceSaving.missed).
//
// The order inside Offer — count-min add, decay if due, touch, threshold
// — is part of the contract (gate_test.go pins it): the decay must see
// the add, and the touch the decayed table. Single-writer, like the
// structures it owns; an owner that shares a Gate brings its own lock.
type Gate[P any] struct {
	cm         *CountMin
	hh         *SpaceSaving[P]
	admit      uint32
	decayEvery uint64
	since      uint64 // offers since the last decay
	decays     uint64
}

// NewGate builds a gate over a width × depth count-min sketch and a
// space-saving table of slots entries. admit is both the guaranteed
// count that makes a key hot and each slot's buffer cap; the structures
// halve every decayEvery offers. Both must be positive.
func NewGate[P any](width, depth, slots, admit, decayEvery int) *Gate[P] {
	return &Gate[P]{
		cm:         NewCountMin(width, depth),
		hh:         NewSpaceSaving[P](slots, admit),
		admit:      uint32(admit),
		decayEvery: uint64(decayEvery),
	}
}

// Offer counts one occurrence of key, buffers item while the key is
// tracked and its buffer has room, and reports whether the key is hot.
// When it is, prefix holds the buffered items strictly before item,
// oldest first; it aliases the slot and is valid until the next call on
// the gate. A hot key stays tracked and keeps reporting hot until Admit,
// so a caller that cannot act on the crossing yet waits for a later one.
func (g *Gate[P]) Offer(key uint64, item P) (prefix []P, hot bool) {
	est := g.cm.Add(key)
	if g.since++; g.since >= g.decayEvery {
		// Windowed decay: halving both structures ages historical mass
		// out, so admission tracks current rates, not lifetime totals.
		g.since = 0
		g.cm.Halve()
		g.hh.Halve()
		g.decays++
	}
	slot, buffered := g.hh.touch(key, est, item)
	if slot == nil || slot.Guaranteed() < g.admit {
		return nil, false
	}
	prefix = slot.Buf
	if buffered {
		prefix = prefix[:len(prefix)-1]
	}
	return prefix, true
}

// Admit recycles key's slot once the caller has acted on a hot Offer;
// the key's next offer, if any, starts cold.
func (g *Gate[P]) Admit(key uint64) { g.hh.Remove(key) }

// Len returns the number of keys the gate currently tracks.
func (g *Gate[P]) Len() int { return g.hh.Len() }

// Decays returns how many windowed halvings the gate has run.
func (g *Gate[P]) Decays() uint64 { return g.decays }
