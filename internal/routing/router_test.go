package routing

import (
	"errors"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

func TestNextHopAtDestinationErrors(t *testing.T) {
	m := mesh4()
	r := NewRouter(m, NewXY(m))
	if _, err := r.NextHop(3, 3, 0); err == nil {
		t.Error("NextHop at destination did not error")
	}
}

func TestNextHopNoRoute(t *testing.T) {
	m := mesh4()
	r := NewRouter(m, NewXY(m))
	// XY from (0,0) to (0,1) with the east link down has no legal hop.
	r.State.Fail(id(m, 0, 0), id(m, 0, 1))
	_, err := r.NextHop(id(m, 0, 0), id(m, 0, 1), 0)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestMisrouteBudgetCharged(t *testing.T) {
	m := mesh4()
	r := NewRouter(m, NewFullyAdaptiveMisroute(m))
	r.MisrouteBudget = 1
	// Fail the only productive link for (0,0)->(0,1).
	r.State.Fail(id(m, 0, 0), id(m, 0, 1))
	hop, err := r.NextHop(id(m, 0, 0), id(m, 0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hop.Misroute {
		t.Error("escape hop not flagged as misroute")
	}
	// With the budget spent, the same situation strands.
	if _, err := r.NextHop(id(m, 0, 0), id(m, 0, 1), 1); !errors.Is(err, ErrNoRoute) {
		t.Errorf("budget-exhausted err = %v, want ErrNoRoute", err)
	}
}

func TestWalkLivelockGuard(t *testing.T) {
	m := mesh4()
	r := NewRouter(m, NewXY(m))
	if _, err := r.Walk(id(m, 0, 0), id(m, 3, 3), 2); err == nil {
		t.Error("Walk with tiny maxHops did not error")
	}
}

func TestWalkTrivial(t *testing.T) {
	m := mesh4()
	r := NewRouter(m, NewXY(m))
	p, err := r.Walk(5, 5, 0)
	if err != nil || len(p) != 1 || p[0] != 5 {
		t.Errorf("self walk = %v, %v", p, err)
	}
}

func TestCongestionSelectorPrefersLightLinks(t *testing.T) {
	m := mesh4()
	r := NewRouter(m, NewMinimalAdaptive(m))
	heavy := topology.Link{From: id(m, 0, 0), To: id(m, 0, 1)}
	r.State.Congestion = func(l topology.Link) int {
		if l == heavy {
			return 10
		}
		return 0
	}
	r.Sel = CongestionSelector{R: rng.NewStream(1)}
	// From (0,0) to (1,1): both east and south are productive; east is
	// congested, so south must always win.
	for i := 0; i < 20; i++ {
		hop, err := r.NextHop(id(m, 0, 0), id(m, 1, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		if hop.Next != id(m, 1, 0) {
			t.Fatalf("congestion selector chose loaded link to %v", m.CoordOf(hop.Next))
		}
	}
}

func TestCongestionSelectorTieBreaksAcrossCandidates(t *testing.T) {
	m := mesh4()
	r := NewRouter(m, NewMinimalAdaptive(m))
	r.Sel = CongestionSelector{R: rng.NewStream(7)}
	seen := map[topology.NodeID]bool{}
	for i := 0; i < 100; i++ {
		hop, err := r.NextHop(id(m, 0, 0), id(m, 1, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		seen[hop.Next] = true
	}
	if len(seen) != 2 {
		t.Errorf("tie-break explored %d candidates, want 2", len(seen))
	}
}

func TestSelectorNames(t *testing.T) {
	if (FirstSelector{}).Name() == "" || (RandomSelector{}).Name() == "" || (CongestionSelector{}).Name() == "" {
		t.Error("selector with empty name")
	}
}

func TestLinkStateFailBoth(t *testing.T) {
	s := NewLinkState()
	s.FailBoth(1, 2)
	if !s.Failed(1, 2) || !s.Failed(2, 1) {
		t.Error("FailBoth did not fail both directions")
	}
	if s.NumFailed() != 2 {
		t.Errorf("NumFailed = %d", s.NumFailed())
	}
}

func TestDeliverableTrialsFloor(t *testing.T) {
	m := mesh4()
	r := NewRouter(m, NewXY(m))
	if !r.Deliverable(0, 5, 0) {
		t.Error("Deliverable with trials=0 should still attempt once")
	}
}

func TestFullyAdaptiveWalkWithMisroutesStillArrives(t *testing.T) {
	// Random-selection fully adaptive with a misroute budget must
	// deliver on a healthy network, possibly non-minimally.
	m := topology.NewMesh2D(5)
	r := NewRouter(m, NewFullyAdaptiveMisroute(m))
	r.Sel = RandomSelector{R: rng.NewStream(11)}
	r.MisrouteBudget = 3
	for trial := 0; trial < 300; trial++ {
		src := topology.NodeID(trial % m.NumNodes())
		dst := topology.NodeID((trial*11 + 3) % m.NumNodes())
		if src == dst {
			continue
		}
		p, err := r.Walk(src, dst, 0)
		if err != nil {
			t.Fatalf("fully adaptive stranded %d->%d: %v", src, dst, err)
		}
		min := m.MinDistance(src, dst)
		if hops := len(p) - 1; hops < min || hops > min+2*r.MisrouteBudget {
			t.Fatalf("hop count %d outside [%d,%d]", hops, min, min+2*r.MisrouteBudget)
		}
	}
}
