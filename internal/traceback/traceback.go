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
	"slices"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/topology"
)

// DDPMIdentifier recovers the source of every observed packet directly
// from its marking field (Figure 4's destination-side branch:
// V := Extract_MF(); S := X − V). It also tallies identified sources so
// a victim under attack can rank offenders. It keeps the victim's
// decoder (marking.Victim: arithmetic, no cache), the tally and a
// reject counter.
//
// The tally grows with the sources heard, not with the fabric (an
// attacker multiplies per-victim state by the victims it can make a
// daemon track): a Tally bounded by the fabric's node count, so the
// worst case — a quarter to a half of the fabric heard from — is one
// 8-byte counter per node.
type DDPMIdentifier struct {
	at    marking.Victim
	tab   stats.Tally // source → identifications; its total is Observed
	nodes int
	undec int64
}

// NewDDPMIdentifier builds the identifier for a victim node.
func NewDDPMIdentifier(scheme *marking.DDPM, victim topology.NodeID) *DDPMIdentifier {
	n := scheme.Net().NumNodes()
	return &DDPMIdentifier{at: scheme.At(victim), tab: stats.NewTally(n), nodes: n}
}

// sources returns every tallied source, ascending by node id.
func (d *DDPMIdentifier) sources() []topology.NodeID {
	out := stats.AppendKeys[topology.NodeID](nil, &d.tab) // nil while nothing is tallied
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
	d.tab.Add(uint32(src), 1)
	return src, true
}

// Observed returns the number of successfully identified packets;
// Undecodable the number of rejects.
func (d *DDPMIdentifier) Observed() int64    { return d.tab.Total() }
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
	d.tab.Add(uint32(src), n)
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
	return d.tab.Count(uint32(src))
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
