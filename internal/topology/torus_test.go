package topology

import "testing"

func TestTorusBasicProperties(t *testing.T) {
	// Paper Figure 1(b): 4-ary 2-cube.
	tr := NewTorus2D(4)
	if got := tr.NumNodes(); got != 16 {
		t.Errorf("NumNodes = %d, want 16", got)
	}
	if got := tr.Degree(); got != 4 {
		t.Errorf("Degree = %d, want 4", got)
	}
	// Diameter is k/2 per dimension for even k (paper §3): 2 + 2.
	if got := tr.Diameter(); got != 4 {
		t.Errorf("Diameter = %d, want 4", got)
	}
	if !tr.Wraparound() {
		t.Error("torus must report wraparound")
	}
}

func TestTorusNeighborsAllDegree(t *testing.T) {
	tr := NewTorus2D(4)
	for id := 0; id < tr.NumNodes(); id++ {
		if nbs := tr.Neighbors(NodeID(id)); len(nbs) != 4 {
			t.Fatalf("node %d has %d neighbors, want 4 (torus has no boundary)", id, len(nbs))
		}
	}
}

func TestTorusWraparoundNeighbors(t *testing.T) {
	tr := NewTorus2D(4)
	a := tr.IndexOf(Coord{0, 0})
	b := tr.IndexOf(Coord{3, 0})
	c := tr.IndexOf(Coord{0, 3})
	if !tr.IsNeighbor(a, b) {
		t.Error("(0,0) and (3,0) must be wraparound neighbors")
	}
	if !tr.IsNeighbor(a, c) {
		t.Error("(0,0) and (0,3) must be wraparound neighbors")
	}
	if tr.IsNeighbor(a, tr.IndexOf(Coord{2, 0})) {
		t.Error("(0,0) and (2,0) must not be neighbors")
	}
	if tr.IsNeighbor(a, a) {
		t.Error("a node must not be its own neighbor")
	}
}

func TestTorusRadixTwoCollapsesLinks(t *testing.T) {
	// In a 2-ary dimension the +1 and −1 neighbors coincide; the
	// duplicate must be collapsed.
	tr := NewTorus(2, 4)
	nbs := tr.Neighbors(tr.IndexOf(Coord{0, 0}))
	seen := map[NodeID]int{}
	for _, nb := range nbs {
		seen[nb]++
	}
	for nb, n := range seen {
		if n > 1 {
			t.Errorf("neighbor %v listed %d times", tr.CoordOf(nb), n)
		}
	}
	if len(nbs) != 3 {
		t.Errorf("node in 2x4 torus has %d neighbors, want 3", len(nbs))
	}
}

func TestTorusMinDistanceMatchesBFS(t *testing.T) {
	for _, tr := range []*Torus{NewTorus2D(4), NewTorus2D(5), NewTorus(3, 4, 2)} {
		for src := 0; src < tr.NumNodes(); src++ {
			dist := bfsDistances(tr, NodeID(src), nil)
			for dst := 0; dst < tr.NumNodes(); dst++ {
				if got := tr.MinDistance(NodeID(src), NodeID(dst)); got != dist[dst] {
					t.Fatalf("%s: MinDistance(%d,%d) = %d, BFS says %d",
						tr.Name(), src, dst, got, dist[dst])
				}
			}
		}
	}
}

func TestTorusStepWraps(t *testing.T) {
	tr := NewTorus2D(4)
	if got := tr.Step(tr.IndexOf(Coord{0, 0}), 0, -1); got != tr.IndexOf(Coord{3, 0}) {
		t.Errorf("Step wrap down = %v, want (3,0)", tr.CoordOf(got))
	}
	if got := tr.Step(tr.IndexOf(Coord{3, 3}), 1, 1); got != tr.IndexOf(Coord{3, 0}) {
		t.Errorf("Step wrap up = %v, want (3,0)", tr.CoordOf(got))
	}
}

func TestTorusIndexRoundTrip(t *testing.T) {
	tr := NewTorus(3, 5, 2)
	for id := 0; id < tr.NumNodes(); id++ {
		if back := tr.IndexOf(tr.CoordOf(NodeID(id))); back != NodeID(id) {
			t.Fatalf("round trip failed for %d", id)
		}
	}
}

func TestTorusDiameterOddRadix(t *testing.T) {
	tr := NewTorus2D(5)
	// ⌊5/2⌋ per dimension.
	if got := tr.Diameter(); got != 4 {
		t.Errorf("Diameter = %d, want 4", got)
	}
	// Verify empirically via BFS eccentricity from node 0 (the torus is
	// vertex-transitive, so one source suffices).
	dist := bfsDistances(tr, 0, nil)
	max := 0
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	if max != tr.Diameter() {
		t.Errorf("BFS eccentricity %d != Diameter %d", max, tr.Diameter())
	}
}

func TestDisplacementTorusWraparound(t *testing.T) {
	tr := NewTorus2D(4)
	// A hop from (0,0) to (3,0) is physically a −1 move in dim 0.
	d := Displacement(tr, tr.IndexOf(Coord{0, 0}), tr.IndexOf(Coord{3, 0}))
	if !d.Equal(Vector{-1, 0}) {
		t.Errorf("Displacement = %v, want (-1,0)", d)
	}
	// And the reverse hop is +1.
	d = Displacement(tr, tr.IndexOf(Coord{3, 0}), tr.IndexOf(Coord{0, 0}))
	if !d.Equal(Vector{1, 0}) {
		t.Errorf("Displacement = %v, want (1,0)", d)
	}
	// Interior hop is unchanged.
	d = Displacement(tr, tr.IndexOf(Coord{1, 1}), tr.IndexOf(Coord{1, 2}))
	if !d.Equal(Vector{0, 1}) {
		t.Errorf("Displacement = %v, want (0,1)", d)
	}
}
