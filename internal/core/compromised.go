package core

import (
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ---------------------------------------------------------------------
// X4 — compromised switch blast radius (§4.1 assumption, stress-tested):
// with one lying switch in the fabric, what fraction of flows does each
// scheme misattribute, and is the damage confined to flows that cross
// the bad switch?
// ---------------------------------------------------------------------

// X4Row is one (scheme, bad-switch placement) measurement.
type X4Row struct {
	Scheme        string
	Flows         int
	ThroughBad    int // flows whose route crossed the bad switch
	Misattributed int // flows identified as a wrong (or no) source
	// MisattributedClean counts misattributions among flows that never
	// touched the bad switch — containment means this stays zero.
	MisattributedClean int
}

// RunX4 measures DDPM vs ingress-stamp with a lying switch at badNode
// on a mesh under adaptive routing.
func RunX4(spec TopoSpec, schemeName string, badNode topology.NodeID, flows int, seed uint64) (X4Row, error) {
	net, err := BuildTopology(spec)
	if err != nil {
		return X4Row{}, err
	}
	src := rng.NewSource(seed)
	honest, err := BuildScheme(schemeName, net, ppmMarkProb, src.Stream("mark"))
	if err != nil {
		return X4Row{}, err
	}
	scheme := marking.NewCompromised(honest, badNode, nil)
	r := routing.NewRouter(net, routing.NewMinimalAdaptive(net))
	r.Sel = routing.RandomSelector{R: src.Stream("sel")}
	plan := packet.NewAddrPlan(packet.DefaultBase, net.NumNodes())

	identify := func(dst topology.NodeID, pk *packet.Packet) (topology.NodeID, bool) {
		switch h := honest.(type) {
		case *marking.DDPM:
			return h.IdentifySource(dst, pk.Hdr.ID)
		case *marking.IngressStamp:
			return h.IdentifySource(pk.Hdr.ID)
		default:
			return topology.None, false
		}
	}

	row := X4Row{Scheme: schemeName}
	pairStream := src.Stream("pairs")
	for row.Flows < flows {
		a := topology.NodeID(pairStream.Intn(net.NumNodes()))
		b := topology.NodeID(pairStream.Intn(net.NumNodes()))
		if a == b || b == badNode {
			continue
		}
		path, err := r.Walk(a, b, 0)
		if err != nil {
			return row, err
		}
		row.Flows++
		crossed := false
		// The bad switch corrupts when it FORWARDS (or injects); the
		// destination switch only ejects, so crossing as the final node
		// does not corrupt.
		for _, n := range path[:len(path)-1] {
			if n == badNode {
				crossed = true
			}
		}
		if crossed {
			row.ThroughBad++
		}
		pk := packet.NewPacket(plan, a, b, packet.ProtoTCPSYN, 0)
		scheme.OnInject(pk)
		for i := 0; i+1 < len(path); i++ {
			scheme.OnForward(path[i], path[i+1], pk)
		}
		got, ok := identify(b, pk)
		if !ok || got != a {
			row.Misattributed++
			if !crossed {
				row.MisattributedClean++
			}
		}
	}
	return row, nil
}
