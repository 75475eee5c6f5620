package flitsim

import (
	"testing"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestTorusFabricDrainsUnderUniformLoad(t *testing.T) {
	tr := topology.NewTorus2D(4)
	plan := packet.NewAddrPlan(packet.DefaultBase, tr.NumNodes())
	f, err := New(Config{Net: tr, Plan: plan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewStream(2)
	const N = 400
	for i := 0; i < N; i++ {
		src := topology.NodeID(r.Intn(tr.NumNodes()))
		dst := topology.NodeID(r.Intn(tr.NumNodes()))
		if src == dst {
			dst = (dst + 1) % topology.NodeID(tr.NumNodes())
		}
		f.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 32))
	}
	if !f.RunUntilDrained(500000) {
		t.Fatalf("torus deadlock: %d stuck", f.inFlight)
	}
	if f.Stats().Delivered != N {
		t.Errorf("delivered %d/%d", f.Stats().Delivered, N)
	}
}

func TestTorusTornadoStress(t *testing.T) {
	// Tornado traffic (half-ring hops for every node) maximizes
	// wraparound usage — the pattern that deadlocks a datelineless
	// escape network.
	tr := topology.NewTorus2D(6)
	plan := packet.NewAddrPlan(packet.DefaultBase, tr.NumNodes())
	f, err := New(Config{Net: tr, Plan: plan, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dims := tr.Dims()
	for round := 0; round < 8; round++ {
		for src := 0; src < tr.NumNodes(); src++ {
			c := tr.CoordOf(topology.NodeID(src))
			d := topology.Coord{(c[0] + dims[0]/2) % dims[0], (c[1] + dims[1]/2) % dims[1]}
			f.Inject(packet.NewPacket(plan, topology.NodeID(src), tr.IndexOf(d), packet.ProtoUDP, 32))
		}
	}
	if !f.RunUntilDrained(1_000_000) {
		t.Fatalf("tornado deadlock: %d stuck", f.inFlight)
	}
}

func TestTorusDDPMThroughWormhole(t *testing.T) {
	tr := topology.NewTorus2D(8)
	d, err := marking.NewDDPM(tr)
	if err != nil {
		t.Fatal(err)
	}
	plan := packet.NewAddrPlan(packet.DefaultBase, tr.NumNodes())
	f, err := New(Config{Net: tr, Plan: plan, Scheme: d, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	f.OnDeliver(func(_ int64, pk *packet.Packet) {
		total++
		if got, ok := d.IdentifySource(pk.DstNode, pk.Hdr.ID); ok && got == pk.SrcNode {
			correct++
		}
	})
	r := rng.NewStream(5)
	const N = 300
	for i := 0; i < N; i++ {
		src := topology.NodeID(r.Intn(tr.NumNodes()))
		dst := topology.NodeID(r.Intn(tr.NumNodes()))
		if src == dst {
			dst = (dst + 13) % topology.NodeID(tr.NumNodes())
		}
		pk := packet.NewPacket(plan, src, dst, packet.ProtoTCPSYN, 40)
		pk.Hdr.ID = uint16(r.Intn(1 << 16))
		f.Inject(pk)
	}
	if !f.RunUntilDrained(500000) {
		t.Fatal("torus fabric stuck")
	}
	if total != N || correct != N {
		t.Errorf("identified %d/%d (delivered %d)", correct, N, total)
	}
}

func TestEscapeVCDatelineRule(t *testing.T) {
	tr := topology.NewTorus2D(8)
	plan := packet.NewAddrPlan(packet.DefaultBase, tr.NumNodes())
	f, err := New(Config{Net: tr, Plan: plan, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	at := func(r, c int) topology.NodeID { return tr.IndexOf(topology.Coord{r, c}) }
	// +direction without wrap ahead: (0,1) -> (0,3): VC0.
	if vc := f.escapeVC(at(0, 1), at(0, 3)); vc != 0 {
		t.Errorf("no-wrap + route on VC %d, want 0", vc)
	}
	// +direction with wrap ahead: (0,6) -> (0,1): fwd distance 3 (short
	// way +), cur 6 > dst 1 so the 7→0 wrap is ahead: VC1.
	if vc := f.escapeVC(at(0, 6), at(0, 1)); vc != 1 {
		t.Errorf("pre-dateline + route on VC %d, want 1", vc)
	}
	// Same flow after crossing: (0,0) -> (0,1): VC0.
	if vc := f.escapeVC(at(0, 0), at(0, 1)); vc != 0 {
		t.Errorf("post-dateline route on VC %d, want 0", vc)
	}
	// −direction with wrap ahead: (0,1) -> (0,6): short way is −3,
	// cur 1 < dst 6 so the 0→7 wrap is ahead: VC1.
	if vc := f.escapeVC(at(0, 1), at(0, 6)); vc != 1 {
		t.Errorf("pre-dateline - route on VC %d, want 1", vc)
	}
	// −direction without wrap: (0,6) -> (0,4): VC0.
	if vc := f.escapeVC(at(0, 6), at(0, 4)); vc != 0 {
		t.Errorf("no-wrap - route on VC %d, want 0", vc)
	}
	// Mesh fabric always uses VC0.
	m := topology.NewMesh2D(4)
	mplan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	fm, _ := New(Config{Net: m, Plan: mplan})
	if vc := fm.escapeVC(0, 5); vc != 0 {
		t.Errorf("mesh escape VC = %d", vc)
	}
}
