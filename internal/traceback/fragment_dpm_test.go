package traceback

import (
	"testing"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestFragmentReconstructorSinglePath(t *testing.T) {
	m := topology.NewMesh2D(4)
	scheme, err := marking.NewFragmentPPM(0.25, rng.NewStream(51))
	if err != nil {
		t.Fatal(err)
	}
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := routing.NewRouter(m, routing.NewXY(m))
	attacker := m.IndexOf(topology.Coord{0, 0})
	victim := m.IndexOf(topology.Coord{2, 3})
	rec := NewFragmentReconstructor(scheme, m.NumNodes())
	for i := 0; i < 20000; i++ {
		rec.Observe(send(t, r, scheme, plan, attacker, victim, 0))
		srcs := rec.Sources()
		if len(srcs) == 1 && srcs[0] == attacker {
			// Verify the full chain matches the XY path.
			path, _ := r.Walk(attacker, victim, 0)
			levels := rec.Levels()
			if len(levels) != len(path)-1 {
				t.Fatalf("levels = %d, path switches = %d", len(levels), len(path)-1)
			}
			for d, lvl := range levels {
				wantNode := path[len(path)-2-d]
				if len(lvl) != 1 || lvl[0] != wantNode {
					t.Fatalf("level %d = %v, want [%d]", d, lvl, wantNode)
				}
			}
			return
		}
	}
	t.Fatalf("fragment reconstruction never converged: levels %v", rec.Levels())
}

func TestFragmentReconstructorNeedsAllOffsets(t *testing.T) {
	scheme, _ := marking.NewFragmentPPM(1.0, rng.NewStream(52))
	rec := NewFragmentReconstructor(scheme, 64)
	// A single sample covers one offset out of 8: no assembly possible.
	pk := &packet.Packet{}
	scheme.OnForward(5, 6, pk)
	rec.Observe(pk)
	if srcs := rec.Sources(); len(srcs) != 0 {
		t.Errorf("assembled from one fragment: %v", srcs)
	}
	if rec.Observed() != 1 {
		t.Errorf("Observed = %d", rec.Observed())
	}
}

func TestFragmentReconstructorCandidateCap(t *testing.T) {
	scheme, _ := marking.NewFragmentPPM(1.0, rng.NewStream(53))
	rec := NewFragmentReconstructor(scheme, 1<<20)
	rec.MaxCandidatesPerLevel = 8
	// Seed 3 values at every offset of distance 0: 3^8 combinations
	// exceed the cap.
	for o := 0; o < marking.FragmentCount; o++ {
		for v := uint8(0); v < 3; v++ {
			pk := &packet.Packet{}
			pk.Hdr.ID = uint16(o)<<13 | 0<<8 | uint16(v)
			rec.Observe(pk)
		}
	}
	rec.Levels()
	if !rec.Truncated() {
		t.Error("candidate explosion not reported")
	}
}

func TestSignatureTableLearnMatch(t *testing.T) {
	tbl := NewSignatureTable()
	plan := packet.NewAddrPlan(packet.DefaultBase, 16)
	atk := packet.NewPacket(plan, 0, 5, packet.ProtoTCPSYN, 0)
	atk.Hdr.ID = 0b0011
	tbl.Learn(atk)
	probe := packet.NewPacket(plan, 3, 5, packet.ProtoTCPSYN, 0)
	probe.Hdr.ID = 0b0011
	if !tbl.Match(probe) {
		t.Error("matching signature not blocked")
	}
	probe.Hdr.ID = 0b0111
	if tbl.Match(probe) {
		t.Error("non-matching signature blocked")
	}
	if _, ok := tbl.sigs[0b0011]; !ok || len(tbl.sigs) != 1 {
		t.Errorf("signatures = %v, want only 0b0011", tbl.sigs)
	}
}

func TestSignatureStabilityDeterministicVsAdaptive(t *testing.T) {
	// The E2 effect: one flow yields one signature under XY but many
	// under adaptive routing.
	m := topology.NewMesh2D(8)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	dpm := marking.NewDPM()
	attacker := m.IndexOf(topology.Coord{0, 0})
	victim := m.IndexOf(topology.Coord{7, 7})

	countSigs := func(r *routing.Router) int {
		tbl := NewSignatureTable()
		for i := 0; i < 200; i++ {
			tbl.Learn(send(t, r, dpm, plan, attacker, victim, 0))
		}
		return tbl.SignaturesForFlow(plan.AddrOf(attacker))
	}

	det := routing.NewRouter(m, routing.NewXY(m))
	if got := countSigs(det); got != 1 {
		t.Errorf("deterministic flow has %d signatures, want 1", got)
	}

	ad := routing.NewRouter(m, routing.NewMinimalAdaptive(m))
	ad.Sel = routing.RandomSelector{R: rng.NewStream(54)}
	if got := countSigs(ad); got < 5 {
		t.Errorf("adaptive flow has only %d signatures; expected shattering", got)
	}
}

func TestSignatureAmbiguityAcrossSources(t *testing.T) {
	// Multiple distinct sources can share a signature (the paper's
	// false-positive ambiguity): find at least one collision among all
	// sources sending to one victim on an 8×8 mesh under XY.
	m := topology.NewMesh2D(8)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	dpm := marking.NewDPM()
	victim := m.IndexOf(topology.Coord{7, 7})
	r := routing.NewRouter(m, routing.NewXY(m))
	bySig := map[uint16][]topology.NodeID{}
	for src := 0; src < m.NumNodes(); src++ {
		if topology.NodeID(src) == victim {
			continue
		}
		pk := send(t, r, dpm, plan, topology.NodeID(src), victim, 0)
		sig := dpm.Signature(pk.Hdr.ID)
		bySig[sig] = append(bySig[sig], topology.NodeID(src))
	}
	collision := false
	for _, srcs := range bySig {
		if len(srcs) > 1 {
			collision = true
			break
		}
	}
	if !collision {
		t.Error("no signature collisions among 63 sources — DPM ambiguity should appear")
	}
}
