package marking

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topology"
)

// DDPM is the paper's Deterministic Distance Packet Marking (§5,
// Figure 4). Every switch, after routing decides the next node Y,
// computes the displacement Δ = Y − X and accumulates it into the MF:
// V' := V + Δ. Because the displacements of any walk telescope to the
// coordinate difference between its endpoints, the destination recovers
// the source as S = D − V (mesh/torus, reduced mod k on a torus) or
// S = D ⊕ V (hypercube) — from a single packet, independent of the
// route, which is what makes the scheme robust to adaptive routing.
//
// The MF is zeroed when the packet first enters the fabric ("V is set
// to a zero vector when the packet first enters a switch from a
// computing node"), which also erases any attacker-preloaded value —
// a load-bearing security property that the ZeroOnInject ablation knob
// lets experiments disable.
type DDPM struct {
	net   topology.Network
	codec VectorCodec

	// ZeroOnInject controls the Figure 4 injection rule. It defaults to
	// true; disabling it models a broken deployment where the source
	// switch trusts the attacker-supplied Identification field.
	ZeroOnInject bool

	// cc/nc/delta are per-hop scratch buffers keeping OnForward
	// allocation-free. They make a DDPM instance single-goroutine —
	// consistent with the one-simulation-per-goroutine design (parallel
	// sweeps build one scheme per cell).
	cc, nc topology.Coord
	delta  topology.Vector
}

// NewDDPM builds DDPM for any of the paper's topologies, choosing the
// codec automatically: CubeCodec for hypercubes, CodecForDims widths
// for meshes and tori. It errors where Table 3 says the topology
// exceeds the 16-bit MF.
func NewDDPM(net topology.Network) (*DDPM, error) {
	var codec VectorCodec
	var err error
	if h, ok := net.(*topology.Hypercube); ok {
		codec, err = NewCubeCodec(h.DimBits())
	} else {
		codec, err = CodecForDims(net.Dims())
	}
	if err != nil {
		return nil, fmt.Errorf("marking: DDPM on %s: %w", net.Name(), err)
	}
	return newDDPM(net, codec), nil
}

func newDDPM(net topology.Network, codec VectorCodec) *DDPM {
	n := len(net.Dims())
	return &DDPM{
		net: net, codec: codec, ZeroOnInject: true,
		cc: make(topology.Coord, n), nc: make(topology.Coord, n),
		delta: make(topology.Vector, n),
	}
}

// NewDDPMWithCodec builds DDPM with an explicit codec (e.g. the paper's
// 5/5/6 three-dimensional split).
func NewDDPMWithCodec(net topology.Network, codec VectorCodec) (*DDPM, error) {
	if codec.Dims() != len(net.Dims()) {
		return nil, fmt.Errorf("marking: codec has %d dims, %s has %d",
			codec.Dims(), net.Name(), len(net.Dims()))
	}
	return newDDPM(net, codec), nil
}

func (d *DDPM) Name() string { return "ddpm" }

// Net exposes the fabric this scheme marks for — victim-side consumers
// (identifier tallies, validation) size their tables from it.
func (d *DDPM) Net() topology.Network { return d.net }

// Codec exposes the MF layout for victim-side decoding.
func (d *DDPM) Codec() VectorCodec { return d.codec }

// OnInject zeroes the MF (unless the ablation knob disabled it).
func (d *DDPM) OnInject(pk *packet.Packet) {
	if d.ZeroOnInject {
		pk.Hdr.ID = 0
	}
}

// OnForward performs the Figure 4 switch procedure: Δ := Y − X;
// V' := V + Δ; Store_MF(V'). The displacement of a torus wraparound hop
// is the physical ±1 direction of travel (see topology.Displacement).
func (d *DDPM) OnForward(cur, next topology.NodeID, pk *packet.Packet) {
	topology.DisplacementInto(d.net, cur, next, d.delta, d.cc, d.nc)
	pk.Hdr.ID = d.codec.Add(pk.Hdr.ID, d.delta)
}

// IdentifySource is Figure 4's victim-side computation for one packet,
// At(dst).Source(mf); to identify many at one victim keep the Victim.
func (d *DDPM) IdentifySource(dst topology.NodeID, mf uint16) (topology.NodeID, bool) {
	v := d.At(dst)
	return v.Source(mf)
}

// Victim is DDPM at one victim node: Figure 4's destination-side branch
// with the victim's coordinate X worked out once, so identifying a
// packet is a few integer operations on its MF. Never written after At,
// so copies are goroutine-safe; the zero Victim identifies nothing.
type Victim struct {
	// Hypercube: node ids are the coordinates as bit vectors, dimension
	// 0 most significant, the order CubeCodec packs the MF in (any codec
	// used on a hypercube must), so S = X ⊕ V is one XOR on the id.
	cube bool
	self topology.NodeID
	mask uint16

	// Mesh and torus, per dimension: where V_i sits in the MF, the radix
	// k_i and X_i. Every field has a bit of the MF, so sixteen suffice.
	wrap bool
	n    int
	dim  [16]struct {
		Field
		k, x int32
	}
}

// At returns the victim-side decoder for node victim. It panics if
// victim is not a node of the fabric.
func (d *DDPM) At(victim topology.NodeID) Victim {
	if victim < 0 || int(victim) >= d.net.NumNodes() {
		panic(fmt.Sprintf("marking: victim %d is not a node of %s", victim, d.net.Name()))
	}
	if h, ok := d.net.(*topology.Hypercube); ok {
		return Victim{cube: true, self: victim, mask: uint16(uint32(1)<<h.DimBits() - 1)}
	}
	dims := d.net.Dims()
	v := Victim{wrap: d.net.Wraparound(), n: len(dims)}
	rem := int(victim) // peel X off the row-major id, last dimension first
	for i := len(dims) - 1; i >= 0; i-- {
		k := dims[i]
		e := &v.dim[i]
		e.Field, e.k, e.x = d.codec.Field(i), int32(k), int32(rem%k)
		rem /= k
	}
	return v
}

// Source recovers the packet's origin from its MF: S := X − V per
// dimension (mod k on a torus) or X ⊕ V — with intact marking the true
// injection point, whatever the header claims. ok is false when S falls
// outside the fabric (a mesh whose marking was corrupted or bypassed).
func (v *Victim) Source(mf uint16) (topology.NodeID, bool) {
	if v.cube {
		return v.self ^ topology.NodeID(mf&v.mask), true
	}
	id := 0
	for i := range v.dim[:v.n] {
		d := &v.dim[i]
		s := d.x - int32(d.Value(mf))
		if v.wrap {
			// Into [0, k): one add or subtract covers |V_i| < k, every MF
			// honest switches produce; beyond that a remainder, never a
			// correction loop — spare MF bits widen the fields (a 3×5
			// torus's radix-5 one holds ±819·k) and the attacker picks the MF.
			if s < -d.k || s >= 2*d.k {
				s %= d.k
			}
			if s < 0 {
				s += d.k
			} else if s >= d.k {
				s -= d.k
			}
		} else if s < 0 || s >= d.k {
			return topology.None, false
		}
		id = id*int(d.k) + int(s)
	}
	return topology.NodeID(id), v.n > 0
}
