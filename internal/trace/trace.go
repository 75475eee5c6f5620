// Package trace observes packets as they move through the fabric and
// logs one JSONL record per marking event — injection and every
// committed hop — without perturbing the scheme under observation. It
// is implemented as a transparent marking.Scheme wrapper, since the
// Figure 4 hook points (inject at the source switch, mark after the
// routing commit) are exactly the observation points a debugger wants.
package trace

import (
	"fmt"
	"io"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Event is one observed marking action.
type Event struct {
	Kind    string // "inject" or "forward"
	Seq     uint64 // packet sequence number (0 before netsim assigns one)
	Cur     topology.NodeID
	Next    topology.NodeID // forward only
	MFIn    uint16          // MF before the scheme ran
	MFOut   uint16          // MF after
	TTL     uint8
	SrcAddr packet.Addr
	DstAddr packet.Addr
}

// Tracer wraps an inner scheme, emitting a JSONL line per event. It is
// itself a marking.Scheme, so it drops into netsim, flitsim or manual
// walks unchanged. Writes are best-effort: the first write error is
// latched (Err) and further output is suppressed, so a broken sink
// cannot corrupt the simulation.
type Tracer struct {
	Inner marking.Scheme
	W     io.Writer

	// Filter, when set, limits output to events it returns true for.
	Filter func(Event) bool

	err error
}

// New wraps inner, logging to w.
func New(inner marking.Scheme, w io.Writer) *Tracer {
	if inner == nil {
		inner = marking.Nop{}
	}
	return &Tracer{Inner: inner, W: w}
}

// Name reports the inner scheme's name with a trace marker.
func (t *Tracer) Name() string { return t.Inner.Name() + "+trace" }

// Unwrap exposes the inner scheme, so core.Cluster.DDPM and similar
// accessors see through the tracer.
func (t *Tracer) Unwrap() marking.Scheme { return t.Inner }

// Err returns the latched sink error, if any.
func (t *Tracer) Err() error { return t.err }

func (t *Tracer) OnInject(pk *packet.Packet) {
	in := pk.Hdr.ID
	t.Inner.OnInject(pk)
	t.emit(Event{
		Kind: "inject", Seq: pk.Seq, Cur: pk.SrcNode,
		MFIn: in, MFOut: pk.Hdr.ID, TTL: pk.Hdr.TTL,
		SrcAddr: pk.Hdr.Src, DstAddr: pk.Hdr.Dst,
	})
}

func (t *Tracer) OnForward(cur, next topology.NodeID, pk *packet.Packet) {
	in := pk.Hdr.ID
	t.Inner.OnForward(cur, next, pk)
	t.emit(Event{
		Kind: "forward", Seq: pk.Seq, Cur: cur, Next: next,
		MFIn: in, MFOut: pk.Hdr.ID, TTL: pk.Hdr.TTL,
		SrcAddr: pk.Hdr.Src, DstAddr: pk.Hdr.Dst,
	})
}

func (t *Tracer) emit(e Event) {
	if t.err != nil || t.W == nil {
		return
	}
	if t.Filter != nil && !t.Filter(e) {
		return
	}
	// Hand-rolled JSON keeps the hot path allocation-light and the key
	// order fixed.
	var line string
	if e.Kind == "inject" {
		line = fmt.Sprintf(
			`{"kind":"inject","seq":%d,"node":%d,"mf_in":%d,"mf_out":%d,"ttl":%d,"src":%q,"dst":%q}`+"\n",
			e.Seq, e.Cur, e.MFIn, e.MFOut, e.TTL, e.SrcAddr.String(), e.DstAddr.String())
	} else {
		line = fmt.Sprintf(
			`{"kind":"forward","seq":%d,"cur":%d,"next":%d,"mf_in":%d,"mf_out":%d,"ttl":%d,"src":%q,"dst":%q}`+"\n",
			e.Seq, e.Cur, e.Next, e.MFIn, e.MFOut, e.TTL, e.SrcAddr.String(), e.DstAddr.String())
	}
	_, t.err = io.WriteString(t.W, line)
}
