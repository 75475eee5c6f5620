package placement

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

func xyRouter(m *topology.Mesh) *routing.Router {
	return routing.NewRouter(m, routing.NewXY(m))
}

func TestAllPairsCount(t *testing.T) {
	m := topology.NewMesh2D(4)
	pairs := AllPairs(m)
	if len(pairs) != 16*15 {
		t.Errorf("pairs = %d, want 240", len(pairs))
	}
}

func TestGreedyFullCoverageXY(t *testing.T) {
	m := topology.NewMesh2D(4)
	cov, err := BuildCoverage(xyRouter(m), AllPairs(m))
	if err != nil {
		t.Fatal(err)
	}
	monitors, curve := cov.Greedy(0)
	if got := cov.Covered(monitors); got != len(cov.pairs) {
		t.Fatalf("greedy covered %d/%d", got, len(cov.pairs))
	}
	if len(monitors) == 0 || len(monitors) > 8 {
		t.Errorf("greedy used %d monitors on a 4x4 mesh; expected a small set", len(monitors))
	}
	// Coverage curve is strictly increasing and ends at the universe.
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] {
			t.Fatalf("coverage curve not increasing: %v", curve)
		}
	}
	if curve[len(curve)-1] != len(cov.pairs) {
		t.Errorf("final coverage %d != %d", curve[len(curve)-1], len(cov.pairs))
	}
}

func TestGreedyVictimOnlyNeedsOneMonitor(t *testing.T) {
	// Every flow to one victim passes the victim's own switch: greedy
	// must find a single-monitor cover.
	m := topology.NewMesh2D(8)
	victim := m.IndexOf(topology.Coord{3, 4})
	var toVictim []Pair
	for _, p := range AllPairs(m) {
		if p.Dst == victim {
			toVictim = append(toVictim, p)
		}
	}
	cov, err := BuildCoverage(xyRouter(m), toVictim)
	if err != nil {
		t.Fatal(err)
	}
	monitors, _ := cov.Greedy(0)
	if len(monitors) != 1 || monitors[0] != victim {
		t.Errorf("monitors = %v, want just the victim switch", monitors)
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	m := topology.NewMesh2D(4)
	cov, _ := BuildCoverage(xyRouter(m), AllPairs(m))
	monitors, curve := cov.Greedy(2)
	if len(monitors) != 2 || len(curve) != 2 {
		t.Fatalf("budget ignored: %d monitors", len(monitors))
	}
	if cov.Covered(monitors) == len(cov.pairs) {
		t.Log("2 monitors happened to cover everything (unexpected but legal)")
	}
}

func TestCoveredEndpointsAlwaysSee(t *testing.T) {
	m := topology.NewMesh2D(4)
	cov, _ := BuildCoverage(xyRouter(m), AllPairs(m))
	// Monitoring every node trivially covers everything.
	var all []topology.NodeID
	for i := 0; i < m.NumNodes(); i++ {
		all = append(all, topology.NodeID(i))
	}
	if cov.Covered(all) != len(cov.pairs) {
		t.Error("full monitor set did not cover all pairs")
	}
	if cov.Covered(nil) != 0 {
		t.Error("empty monitor set covered pairs")
	}
}

func TestAdaptiveCoverageDegradesDeterministicCover(t *testing.T) {
	// A cover computed for XY paths loses guarantee under adaptive
	// routing, but monitoring endpoints still catches everything; a
	// mid-mesh-only cover must observe strictly less than 100% of
	// adaptive flows.
	m := topology.NewMesh2D(8)
	cov, err := BuildCoverage(xyRouter(m), AllPairs(m))
	if err != nil {
		t.Fatal(err)
	}
	monitors, _ := cov.Greedy(0)

	ad := routing.NewRouter(m, routing.NewMinimalAdaptive(m))
	ad.Sel = routing.RandomSelector{R: rng.NewStream(3)}
	frac, err := AdaptiveCoverage(ad, AllPairs(m), monitors, 3)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.5 {
		t.Errorf("adaptive coverage %.3f suspiciously low for an XY cover", frac)
	}

	// A single central monitor cannot watch everything under adaptive
	// routing.
	center := []topology.NodeID{m.IndexOf(topology.Coord{4, 4})}
	fracC, err := AdaptiveCoverage(ad, AllPairs(m), center, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fracC >= frac {
		t.Errorf("single central monitor (%.3f) outperformed greedy cover (%.3f)", fracC, frac)
	}
	if fracC >= 0.99 {
		t.Errorf("single monitor coverage %.3f; expected clear gaps", fracC)
	}
}

func TestBuildCoveragePropagatesRoutingErrors(t *testing.T) {
	m := topology.NewMesh2D(4)
	r := xyRouter(m)
	r.State.Fail(m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{0, 1}))
	_, err := BuildCoverage(r, []Pair{{Src: m.IndexOf(topology.Coord{0, 0}), Dst: m.IndexOf(topology.Coord{0, 3})}})
	if err == nil {
		t.Error("stranded pair did not error")
	}
}
