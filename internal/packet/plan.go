package packet

import (
	"fmt"

	"repro/internal/topology"
)

// AddrPlan is the bidirectional mapping between cluster-private IP
// addresses and topology indexes (paper §4.1: "After establishing a
// mapping table between IP addresses and indexes, switches look for
// this index alone"). The plan assigns node i the address base+i inside
// a 10.0.0.0/8-style private block.
type AddrPlan struct {
	base Addr
	n    int
	byIP map[Addr]topology.NodeID
}

// DefaultBase is the first host address of the default private block.
var DefaultBase = AddrFrom4(10, 0, 0, 1)

// NewAddrPlan allocates addresses base, base+1, … base+n−1 for nodes
// 0…n−1. It panics if the block would wrap the IPv4 space.
func NewAddrPlan(base Addr, n int) *AddrPlan {
	if n <= 0 {
		panic("packet: AddrPlan needs at least one node")
	}
	if uint64(base)+uint64(n) > 1<<32 {
		panic(fmt.Sprintf("packet: address block %v + %d nodes overflows IPv4", base, n))
	}
	p := &AddrPlan{base: base, n: n, byIP: make(map[Addr]topology.NodeID, n)}
	for i := 0; i < n; i++ {
		p.byIP[base+Addr(i)] = topology.NodeID(i)
	}
	return p
}

// NumNodes returns the number of mapped nodes.
func (p *AddrPlan) NumNodes() int { return p.n }

// AddrOf returns the IP address of node id; it panics on out-of-range
// ids (a simulator bug, not an input error).
func (p *AddrPlan) AddrOf(id topology.NodeID) Addr {
	if id < 0 || int(id) >= p.n {
		panic(fmt.Sprintf("packet: node %d outside plan of %d nodes", id, p.n))
	}
	return p.base + Addr(id)
}

// NodeOf resolves an IP address to its node, reporting ok=false for
// addresses outside the plan — exactly the condition a victim hits when
// an attacker spoofs a source address that is not even a cluster node.
func (p *AddrPlan) NodeOf(a Addr) (topology.NodeID, bool) {
	id, ok := p.byIP[a]
	return id, ok
}

// Contains reports whether a belongs to the plan.
func (p *AddrPlan) Contains(a Addr) bool {
	_, ok := p.byIP[a]
	return ok
}

// Packet is the in-flight representation the simulator moves between
// switches. Header fields are mutated in place by marking schemes; the
// struct additionally carries simulator-only ground truth (TrueSrc) so
// experiments can score identification accuracy. Ground truth is never
// consulted by any scheme or victim logic.
type Packet struct {
	Hdr Header

	// SrcNode/DstNode are the topology endpoints. SrcNode is where the
	// packet physically entered the fabric — the value every traceback
	// scheme is trying to recover. DstNode is the routing destination
	// (derived from Hdr.Dst via the plan; kept denormalized for speed).
	SrcNode, DstNode topology.NodeID

	// TrueSrc records the real origin address even when Hdr.Src is
	// spoofed. Experiment scoring only.
	TrueSrc Addr

	// Spoofed marks packets whose Hdr.Src ≠ TrueSrc. Scoring only.
	Spoofed bool

	// Seq is a unique per-simulation sequence number for tracing.
	Seq uint64

	// Hops counts switch-to-switch traversals so far.
	Hops int

	// InjectedAt / DeliveredAt are simulation timestamps (ticks).
	InjectedAt, DeliveredAt int64

	// PayloadLen is the modeled payload size in bytes.
	PayloadLen int

	// MisroutesUsed counts the non-productive hops this packet has
	// taken, charged against the router's misroute budget. Fabric
	// state, maintained by the simulator.
	MisroutesUsed int

	// Wide is an optional out-of-band marking record used only by the
	// "idealized" marking variants that do not fit the 16-bit MF — the
	// paper's IP-option alternative ("It would be possible to store the
	// edge information in the IP additional option"), which it rejects
	// for real deployments but which we model to measure convergence
	// behavior independent of encoding limits. Schemes that fit in the
	// MF never touch it.
	Wide any
}

// NewPacket assembles a packet from src to dst with the given protocol
// and payload size, using genuine (non-spoofed) addressing.
func NewPacket(plan *AddrPlan, src, dst topology.NodeID, proto Proto, payload int) *Packet {
	srcAddr := plan.AddrOf(src)
	return &Packet{
		Hdr: Header{
			TTL:    DefaultTTL,
			Proto:  proto,
			Src:    srcAddr,
			Dst:    plan.AddrOf(dst),
			Length: uint16(HeaderLen + payload),
		},
		SrcNode:    src,
		DstNode:    dst,
		TrueSrc:    srcAddr,
		PayloadLen: payload,
	}
}

// Spoof overwrites the header source address, recording ground truth.
// This is the attacker's move: the marking field is untouched because
// the paper's threat model lets attackers forge any header field at
// injection time — which is precisely why schemes must write the MF in
// switches, after the packet leaves the attacker's control.
func (pk *Packet) Spoof(fake Addr) {
	pk.Hdr.Src = fake
	pk.Spoofed = fake != pk.TrueSrc
}

func (pk *Packet) String() string {
	spoof := ""
	if pk.Spoofed {
		spoof = " (spoofed)"
	}
	return fmt.Sprintf("pkt#%d %s %v->%v%s node %d->%d mf=%#04x ttl=%d",
		pk.Seq, pk.Hdr.Proto, pk.Hdr.Src, pk.Hdr.Dst, spoof, pk.SrcNode, pk.DstNode, pk.Hdr.ID, pk.Hdr.TTL)
}
