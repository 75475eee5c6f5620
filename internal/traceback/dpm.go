package traceback

import (
	"repro/internal/packet"
	"repro/internal/stats"
)

// SignatureTable is the DPM victim logic (§4.3): once traffic is
// flagged as an attack, its MF values become blocking signatures
// ("we can block all traffic having 0011 or 1100 in the MF"). The table
// also tracks how many distinct signatures each flow generates — under
// deterministic routing a flow has one signature; under adaptive
// routing it shatters, which is experiment E2's headline measurement.
type SignatureTable struct {
	sigs map[uint16]int64

	// perFlow counts distinct signatures keyed by the (spoofable)
	// header source — diagnostic only.
	perFlow map[packet.Addr]*stats.Counter[uint16]
}

// NewSignatureTable returns an empty table.
func NewSignatureTable() *SignatureTable {
	return &SignatureTable{
		sigs:    make(map[uint16]int64),
		perFlow: make(map[packet.Addr]*stats.Counter[uint16]),
	}
}

// Learn records a packet known (by external detection) to be attack
// traffic; its MF becomes a blocking signature.
func (t *SignatureTable) Learn(pk *packet.Packet) {
	t.sigs[pk.Hdr.ID]++
	c := t.perFlow[pk.Hdr.Src]
	if c == nil {
		c = stats.NewCounter[uint16]()
		t.perFlow[pk.Hdr.Src] = c
	}
	c.Add(pk.Hdr.ID)
}

// Match reports whether the packet's MF equals a learned signature —
// the filtering predicate.
func (t *SignatureTable) Match(pk *packet.Packet) bool {
	_, ok := t.sigs[pk.Hdr.ID]
	return ok
}

// SignaturesForFlow returns the number of distinct signatures a header
// source has generated (1 under stable routing; many under adaptive).
func (t *SignatureTable) SignaturesForFlow(src packet.Addr) int {
	c := t.perFlow[src]
	if c == nil {
		return 0
	}
	return c.Distinct()
}
