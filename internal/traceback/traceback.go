// Package traceback implements the victim side of every marking scheme:
// turning the marking fields of received packets back into attack
// sources. It contains the single-packet DDPM identifier (the paper's
// contribution), the multi-packet PPM path reconstructor (whose packet
// appetite is experiment E1), the Savage fragment reconstructor, and
// the DPM signature table (whose ambiguity is experiment E2).
//
// Nothing in this package reads simulator ground truth; identifiers see
// only what a real victim NIC would: the IP header and, for the
// idealized wide variants, the side-band mark.
package traceback

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/topology"
)

// DDPMIdentifier recovers the source of every observed packet directly
// from its marking field (Figure 4's destination-side branch:
// V := Extract_MF(); S := X − V). It also tallies identified sources so
// a victim under attack can rank offenders. It keeps the victim's
// decoder (marking.Victim: arithmetic, no cache), the tally and two
// counters.
//
// The tally grows with the sources heard, not with the fabric (an
// attacker multiplies per-victim state by the victims it can make a
// daemon track): one open-addressed source → count table, power-of-two
// slots, linear probing, doubled at 3/4 load, nothing ever deleted;
// 12 bytes a slot, 8 slots to start. The doubling that would cost more
// than a counter per node (12·slots > 8·nodes: a quarter to a half of the
// fabric heard from) lays the counters out by node id instead and drops
// the keys, for good, so the worst case is 8 bytes a node. Not a map:
// tests pin these bytes and the switch-over is arithmetic on them; a
// map's bytes belong to the runtime and move with the Go version.
type DDPMIdentifier struct {
	at       marking.Victim
	keys     []int32 // src+1 per slot, 0 = empty; nil once dense
	counts   []int64 // counts[i] belongs to keys[i]; to node i once dense
	used     int     // occupied slots
	nodes    int
	observed int64
	undec    int64
}

// NewDDPMIdentifier builds the identifier for a victim node.
func NewDDPMIdentifier(scheme *marking.DDPM, victim topology.NodeID) *DDPMIdentifier {
	d := &DDPMIdentifier{at: scheme.At(victim), nodes: scheme.Net().NumNodes()}
	d.grow()
	return d
}

// slot finds src's place in counts, probing from the top log2(slots)
// bits of a Fibonacci hash. fresh reports an empty slot src would
// claim: its count reads 0 and add must write the key.
func (d *DDPMIdentifier) slot(src topology.NodeID) (i int, fresh bool) {
	if d.keys == nil {
		return int(src), false
	}
	key, mask := int32(src)+1, len(d.keys)-1
	i = int(uint64(key) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask)))
	for ; d.keys[i] != key; i = (i + 1) & mask {
		if d.keys[i] == 0 {
			return i, true
		}
	}
	return i, false
}

// add credits n > 0 identifications to an in-fabric src.
func (d *DDPMIdentifier) add(src topology.NodeID, n int64) {
	i, fresh := d.slot(src)
	d.counts[i] += n
	if fresh {
		d.keys[i] = int32(src) + 1
		if d.used++; 4*d.used >= 3*len(d.keys) {
			d.grow()
		}
	}
}

// grow doubles the table and re-adds what it held or, when that would
// cost more than a counter per node, goes dense and never grows again.
func (d *DDPMIdentifier) grow() {
	keys, counts := d.keys, d.counts
	if slots := max(8, 2*len(keys)); 12*slots > 8*d.nodes {
		d.keys, d.counts = nil, make([]int64, d.nodes)
	} else {
		d.keys, d.counts = make([]int32, slots), make([]int64, slots)
	}
	d.used = 0
	for i, k := range keys {
		if k != 0 {
			d.add(topology.NodeID(k-1), counts[i])
		}
	}
}

// sources returns every tallied source, ascending by node id.
func (d *DDPMIdentifier) sources() []topology.NodeID {
	out := slices.Grow([]topology.NodeID(nil), d.used) // nil while nothing is tallied
	for i, c := range d.counts {
		if c != 0 {
			out = append(out, topology.NodeID(i))
		}
	}
	if d.keys == nil {
		return out // dense: slot i is node i, already in order
	}
	for j, i := range out {
		out[j] = topology.NodeID(d.keys[i] - 1)
	}
	slices.Sort(out)
	return out
}

// Observe identifies the packet's source. ok is false when the MF does
// not decode to a node of the topology (corruption or marking bypass).
func (d *DDPMIdentifier) Observe(pk *packet.Packet) (topology.NodeID, bool) {
	return d.ObserveMF(pk.Hdr.ID)
}

// ObserveMF identifies and tallies from a bare marking field — the
// entry point for wire-format records, which carry the MF without a
// full packet. Only a source not heard before can make it allocate.
func (d *DDPMIdentifier) ObserveMF(mf uint16) (topology.NodeID, bool) {
	src, ok := d.at.Source(mf)
	if !ok {
		d.undec++
		return topology.None, false
	}
	d.add(src, 1)
	d.observed++
	return src, true
}

// Observed returns the number of successfully identified packets;
// Undecodable the number of rejects.
func (d *DDPMIdentifier) Observed() int64    { return d.observed }
func (d *DDPMIdentifier) Undecodable() int64 { return d.undec }

// AddTally merges n prior identifications of src into the tally — the
// victim-state handoff path when a clustered daemon inherits a victim
// from a dead peer: the replica's counts seed the successor's
// identifier so blocking thresholds pick up where the owner left off.
// Out-of-range sources and non-positive counts are ignored.
func (d *DDPMIdentifier) AddTally(src topology.NodeID, n int64) {
	if n <= 0 || src < 0 || int(src) >= d.nodes {
		return
	}
	d.add(src, n)
	d.observed += n
}

// AddUndecodable merges n prior decode rejects (handoff sibling of
// AddTally).
func (d *DDPMIdentifier) AddUndecodable(n int64) {
	if n > 0 {
		d.undec += n
	}
}

// EachSource calls fn for every source with a nonzero tally, ascending
// by node id — the export side of victim-state replication. fn may call
// back into the identifier (it walks a collected list, not live slots).
func (d *DDPMIdentifier) EachSource(fn func(src topology.NodeID, count int64)) {
	for _, src := range d.sources() {
		fn(src, d.Count(src))
	}
}

// Count returns the tally for one source node (0 if never heard from).
func (d *DDPMIdentifier) Count(src topology.NodeID) int64 {
	if src < 0 || int(src) >= d.nodes {
		return 0
	}
	i, _ := d.slot(src)
	return d.counts[i]
}

// TopSources returns the k most frequent identified sources, most
// frequent first, ties broken by ascending node id.
func (d *DDPMIdentifier) TopSources(k int) []topology.NodeID {
	if k <= 0 {
		return nil
	}
	seen := d.sources()
	// Stable over the ascending list, so equal counts stay in id order.
	slices.SortStableFunc(seen, func(a, b topology.NodeID) int {
		return cmp.Compare(d.Count(b), d.Count(a))
	})
	return seen[:min(k, len(seen))]
}

// SourcesAbove returns every source identified strictly more than
// threshold times, sorted by node id — the blocklist a victim feeds to
// the filter layer. A negative threshold returns the sources heard
// from, never the nodes of the fabric that stayed silent.
func (d *DDPMIdentifier) SourcesAbove(threshold int64) []topology.NodeID {
	var out []topology.NodeID
	for _, src := range d.sources() {
		if d.Count(src) > threshold {
			out = append(out, src)
		}
	}
	return out
}
