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
	"sort"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/topology"
)

// DDPMIdentifier recovers the source of every observed packet directly
// from its marking field (Figure 4's destination-side branch:
// V := Extract_MF(); S := X − V). It also tallies identified sources so
// a victim under attack can rank offenders. It keeps the victim's
// decoder (marking.Victim: arithmetic, no cache), a tally, two counters.
type DDPMIdentifier struct {
	at       marking.Victim
	tally    []int64 // identifications per source node, dense by NodeID
	observed int64
	undec    int64
}

// NewDDPMIdentifier builds the identifier for a victim node.
func NewDDPMIdentifier(scheme *marking.DDPM, victim topology.NodeID) *DDPMIdentifier {
	return &DDPMIdentifier{
		at:    scheme.At(victim),
		tally: make([]int64, scheme.Net().NumNodes()),
	}
}

// Observe identifies the packet's source. ok is false when the MF does
// not decode to a node of the topology (corruption or marking bypass).
func (d *DDPMIdentifier) Observe(pk *packet.Packet) (topology.NodeID, bool) {
	return d.ObserveMF(pk.Hdr.ID)
}

// ObserveMF identifies and tallies from a bare marking field — the
// entry point for wire-format records, which carry the MF without a
// full packet.
func (d *DDPMIdentifier) ObserveMF(mf uint16) (topology.NodeID, bool) {
	src, ok := d.at.Source(mf)
	if !ok {
		d.undec++
		return topology.None, false
	}
	d.tally[src]++
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
	if n <= 0 || src < 0 || int(src) >= len(d.tally) {
		return
	}
	d.tally[src] += n
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
// by node id — the export side of victim-state replication.
func (d *DDPMIdentifier) EachSource(fn func(src topology.NodeID, count int64)) {
	for n, c := range d.tally {
		if c != 0 {
			fn(topology.NodeID(n), c)
		}
	}
}

// Count returns the tally for one source node.
func (d *DDPMIdentifier) Count(src topology.NodeID) int64 {
	if src < 0 || int(src) >= len(d.tally) {
		return 0
	}
	return d.tally[src]
}

// TopSources returns the k most frequent identified sources, most
// frequent first, ties broken by ascending node id.
func (d *DDPMIdentifier) TopSources(k int) []topology.NodeID {
	if k <= 0 {
		return nil
	}
	var seen []topology.NodeID
	for n, c := range d.tally {
		if c > 0 {
			seen = append(seen, topology.NodeID(n))
		}
	}
	sort.Slice(seen, func(i, j int) bool {
		ci, cj := d.tally[seen[i]], d.tally[seen[j]]
		if ci != cj {
			return ci > cj
		}
		return seen[i] < seen[j]
	})
	if k > len(seen) {
		k = len(seen)
	}
	return seen[:k]
}

// SourcesAbove returns every source identified strictly more than
// threshold times, sorted by node id — the blocklist a victim feeds to
// the filter layer.
func (d *DDPMIdentifier) SourcesAbove(threshold int64) []topology.NodeID {
	var out []topology.NodeID
	for n, c := range d.tally {
		if c > threshold {
			out = append(out, topology.NodeID(n))
		}
	}
	return out
}
