package traceback

import (
	"testing"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// send routes one packet from src to dst applying the scheme per hop,
// returning it as the victim receives it.
func send(t *testing.T, r *routing.Router, scheme marking.Scheme, plan *packet.AddrPlan,
	src, dst topology.NodeID, preload uint16) *packet.Packet {
	t.Helper()
	path, err := r.Walk(src, dst, 0)
	if err != nil {
		t.Fatalf("walk %d->%d: %v", src, dst, err)
	}
	pk := packet.NewPacket(plan, src, dst, packet.ProtoTCPSYN, 40)
	pk.Hdr.ID = preload
	scheme.OnInject(pk)
	for i := 0; i+1 < len(path); i++ {
		scheme.OnForward(path[i], path[i+1], pk)
		pk.Hdr.TTL--
	}
	return pk
}

func TestDDPMIdentifierEndToEnd(t *testing.T) {
	m := topology.NewMesh2D(8)
	d, err := marking.NewDDPM(m)
	if err != nil {
		t.Fatal(err)
	}
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := routing.NewRouter(m, routing.NewMinimalAdaptive(m))
	r.Sel = routing.RandomSelector{R: rng.NewStream(21)}
	victim := m.IndexOf(topology.Coord{7, 7})
	ident := NewDDPMIdentifier(d, victim)

	attacker := m.IndexOf(topology.Coord{0, 3})
	normal := m.IndexOf(topology.Coord{4, 4})
	for i := 0; i < 50; i++ {
		pk := send(t, r, d, plan, attacker, victim, 0xFFFF)
		pk.Spoof(plan.AddrOf(normal)) // frame an innocent node
		if got, ok := ident.Observe(pk); !ok || got != attacker {
			t.Fatalf("identified %d, want %d", got, attacker)
		}
	}
	for i := 0; i < 5; i++ {
		pk := send(t, r, d, plan, normal, victim, 0)
		if got, ok := ident.Observe(pk); !ok || got != normal {
			t.Fatalf("identified %d, want %d", got, normal)
		}
	}
	if ident.Observed() != 55 || ident.Undecodable() != 0 {
		t.Errorf("observed %d / undecodable %d", ident.Observed(), ident.Undecodable())
	}
	if ident.Count(attacker) != 50 {
		t.Errorf("attacker count = %d", ident.Count(attacker))
	}
	top := ident.TopSources(1)
	if len(top) != 1 || top[0] != attacker {
		t.Errorf("TopSources = %v", top)
	}
	above := ident.SourcesAbove(10)
	if len(above) != 1 || above[0] != attacker {
		t.Errorf("SourcesAbove(10) = %v, want just the attacker", above)
	}
}

func TestDDPMIdentifierUndecodable(t *testing.T) {
	m := topology.NewMesh2D(4)
	d, _ := marking.NewDDPM(m)
	ident := NewDDPMIdentifier(d, m.IndexOf(topology.Coord{0, 0}))
	pk := &packet.Packet{}
	codec := d.Codec().(*marking.SignedFieldCodec)
	pk.Hdr.ID, _ = codec.Encode(topology.Vector{100, 100})
	if _, ok := ident.Observe(pk); ok {
		t.Error("garbage MF identified")
	}
	if ident.Undecodable() != 1 {
		t.Errorf("Undecodable = %d", ident.Undecodable())
	}
}

func TestDDPMIdentifierObserveMFDoesNotAllocate(t *testing.T) {
	for _, net := range []topology.Network{topology.NewMesh2D(8), topology.NewTorus(3, 5), topology.NewHypercube(16)} {
		d, err := marking.NewDDPM(net)
		if err != nil {
			t.Fatal(err)
		}
		ident := NewDDPMIdentifier(d, topology.NodeID(net.NumNodes()-1))
		mf := uint16(0)
		if a := testing.AllocsPerRun(200, func() { mf += 257; ident.ObserveMF(mf) }); a != 0 {
			t.Errorf("%s: ObserveMF allocates %v/op, want 0", net.Name(), a)
		}
	}
}

func TestPPMReconstructorConvergesOnDeterministicPath(t *testing.T) {
	// E1 setup in miniature: a single attacker on XY routing; the victim
	// needs many packets (p=0.2, d=6) but eventually reconstructs the
	// exact source.
	m := topology.NewMesh2D(4)
	scheme, err := marking.NewSimplePPM(m, 0.2, rng.NewStream(31))
	if err != nil {
		t.Fatal(err)
	}
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := routing.NewRouter(m, routing.NewXY(m))
	attacker := m.IndexOf(topology.Coord{0, 0})
	victim := m.IndexOf(topology.Coord{3, 3})
	rec := ForSimplePPM(scheme)
	converged := -1
	for i := 0; i < 5000; i++ {
		rec.Observe(send(t, r, scheme, plan, attacker, victim, 0))
		srcs := rec.Sources()
		if len(srcs) == 1 && srcs[0] == attacker {
			converged = i + 1
			break
		}
	}
	if converged < 0 {
		t.Fatalf("never converged; sources = %v", rec.Sources())
	}
	if converged < 6 {
		t.Errorf("converged after %d packets: cannot beat one sample per edge", converged)
	}
}

func TestPPMReconstructorTwoAttackers(t *testing.T) {
	// Figure 3(a): victim (2,3) attacked from (0,1) and (1,1) under
	// deterministic routing; both paths reconstruct. The marking rate
	// is high and the victim uses its topology map plus a count
	// threshold, so leftover-Identification garbage is filtered — the
	// Savage robustness playbook.
	m := topology.NewMesh2D(4)
	scheme, _ := marking.NewSimplePPM(m, 0.5, rng.NewStream(33))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := routing.NewRouter(m, routing.NewXY(m))
	victim := m.IndexOf(topology.Coord{2, 3})
	a1 := m.IndexOf(topology.Coord{0, 1})
	a2 := m.IndexOf(topology.Coord{1, 1})
	rec := ForSimplePPM(scheme)
	rec.MinCount = 8
	rec.Adjacency = m.IsNeighbor
	preload := rng.NewStream(34)
	for i := 0; i < 4000; i++ {
		rec.Observe(send(t, r, scheme, plan, a1, victim, uint16(preload.Intn(1<<16))))
		rec.Observe(send(t, r, scheme, plan, a2, victim, uint16(preload.Intn(1<<16))))
	}
	srcs := rec.Sources()
	found := map[topology.NodeID]bool{}
	for _, s := range srcs {
		found[s] = true
	}
	if !found[a1] || !found[a2] {
		t.Fatalf("sources = %v, want both %d and %d", srcs, a1, a2)
	}
	if len(srcs) > 3 {
		t.Errorf("excessive candidate sources under deterministic routing: %v", srcs)
	}
}

func TestPPMReconstructorMinCountFiltersSeededMarks(t *testing.T) {
	// An attacker preloads a fake edge sample claiming a distant
	// innocent source; with MinCount > 1 the one-off forgery is ignored.
	m := topology.NewMesh2D(4)
	scheme, _ := marking.NewSimplePPM(m, 0.3, rng.NewStream(35))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := routing.NewRouter(m, routing.NewXY(m))
	victim := m.IndexOf(topology.Coord{3, 3})
	attacker := m.IndexOf(topology.Coord{3, 0}) // 3 hops: decent mark coverage

	// Forge: distance-0 sample naming an innocent neighbor of victim.
	l, _ := marking.NewLabeler(m)
	innocent := m.IndexOf(topology.Coord{2, 3})
	forged := l.Label(innocent)<<(4+3) | 0<<3 | 0

	rec := ForSimplePPM(scheme)
	rec.MinCount = 3
	// One forged packet that happens to cross unmarked.
	passer, _ := marking.NewSimplePPM(m, 1e-12, rng.NewStream(36))
	rec.Observe(send(t, r, passer, plan, attacker, victim, forged))
	for i := 0; i < 3000; i++ {
		rec.Observe(send(t, r, scheme, plan, attacker, victim, 0))
	}
	for _, s := range rec.Sources() {
		if s == innocent {
			t.Fatal("forged sample survived MinCount filtering")
		}
	}
}

func TestPPMReconstructorAdaptiveRoutingBloatsGraph(t *testing.T) {
	// The paper's §4.2 point: adaptive routing spreads one flow across
	// many paths. The reconstructed "attack path" degenerates from a
	// single chain into a blob covering a large chunk of the minimal
	// quadrant, destroying path identification.
	m := topology.NewMesh2D(8)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	victim := m.IndexOf(topology.Coord{7, 7})
	attacker := m.IndexOf(topology.Coord{0, 0})

	reconstruct := func(r *routing.Router, seed uint64) int {
		scheme, _ := marking.NewSimplePPM(m, 0.2, rng.NewStream(seed))
		rec := ForSimplePPM(scheme)
		rec.MinCount = 4
		rec.Adjacency = m.IsNeighbor
		preload := rng.NewStream(seed + 1)
		for i := 0; i < 6000; i++ {
			rec.Observe(send(t, r, scheme, plan, attacker, victim, uint16(preload.Intn(1<<16))))
		}
		return len(rec.OnPathNodes())
	}

	det := routing.NewRouter(m, routing.NewXY(m))
	detNodes := reconstruct(det, 37)

	ad := routing.NewRouter(m, routing.NewMinimalAdaptive(m))
	ad.Sel = routing.RandomSelector{R: rng.NewStream(38)}
	adNodes := reconstruct(ad, 39)

	// XY gives exactly the 14 on-path switches; adaptive routing should
	// sprawl over far more of the 8×8 quadrant.
	if detNodes > 16 {
		t.Errorf("deterministic reconstruction has %d nodes, want ≈14", detNodes)
	}
	if adNodes < 2*detNodes {
		t.Errorf("adaptive reconstruction %d nodes vs deterministic %d: expected ≥2× sprawl",
			adNodes, detNodes)
	}
}

func TestPPMReconstructorWideVariant(t *testing.T) {
	m := topology.NewMesh2D(8)
	w, _ := marking.NewWidePPM(0.2, rng.NewStream(39))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := routing.NewRouter(m, routing.NewXY(m))
	victim := m.IndexOf(topology.Coord{7, 7})
	attacker := m.IndexOf(topology.Coord{0, 0})
	rec := ForWidePPM(w)
	for i := 0; i < 4000; i++ {
		rec.Observe(send(t, r, w, plan, attacker, victim, 0))
		if srcs := rec.Sources(); len(srcs) == 1 && srcs[0] == attacker {
			return
		}
	}
	t.Fatalf("wide PPM never converged: %v", rec.Sources())
}

func TestPPMReconstructorBitDiffVariant(t *testing.T) {
	m := topology.NewMesh2D(8)
	b, err := marking.NewBitDiffPPM(m, 0.2, rng.NewStream(40))
	if err != nil {
		t.Fatal(err)
	}
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := routing.NewRouter(m, routing.NewXY(m))
	victim := m.IndexOf(topology.Coord{6, 6})
	attacker := m.IndexOf(topology.Coord{1, 0})
	rec := NewPPMReconstructor(func(pk *packet.Packet) (marking.EdgeSample, bool) {
		return b.DecodeMF(pk.Hdr.ID)
	})
	rec.MinCount = 4
	preload := rng.NewStream(42)
	for i := 0; i < 6000; i++ {
		rec.Observe(send(t, r, b, plan, attacker, victim, uint16(preload.Intn(1<<16))))
		if srcs := rec.Sources(); len(srcs) == 1 && srcs[0] == attacker {
			return
		}
	}
	t.Fatalf("bitdiff PPM never converged: %v", rec.Sources())
}

func TestPPMOnPathNodesCoverPath(t *testing.T) {
	m := topology.NewMesh2D(4)
	scheme, _ := marking.NewSimplePPM(m, 0.3, rng.NewStream(41))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := routing.NewRouter(m, routing.NewXY(m))
	victim := m.IndexOf(topology.Coord{3, 3})
	attacker := m.IndexOf(topology.Coord{0, 0})
	rec := ForSimplePPM(scheme)
	for i := 0; i < 4000; i++ {
		rec.Observe(send(t, r, scheme, plan, attacker, victim, 0))
	}
	path, _ := r.Walk(attacker, victim, 0)
	on := map[topology.NodeID]bool{}
	for _, n := range rec.OnPathNodes() {
		on[n] = true
	}
	// Every switch on the path except the victim itself must appear.
	for _, n := range path[:len(path)-1] {
		if !on[n] {
			t.Errorf("path node %d missing from reconstruction", n)
		}
	}
}
