package topology

import (
	"testing"
)

func TestMeshBasicProperties(t *testing.T) {
	m := NewMesh2D(4)
	if got := m.NumNodes(); got != 16 {
		t.Errorf("NumNodes = %d, want 16", got)
	}
	// Paper §3: "In Figure 1 (a), the network's degree is four and its
	// diameter six."
	if got := m.Degree(); got != 4 {
		t.Errorf("Degree = %d, want 4", got)
	}
	if got := m.Diameter(); got != 6 {
		t.Errorf("Diameter = %d, want 6", got)
	}
	if got := m.Name(); got != "mesh-4x4" {
		t.Errorf("Name = %q, want mesh-4x4", got)
	}
	if m.Wraparound() {
		t.Error("mesh must not report wraparound")
	}
}

func TestMesh3DProperties(t *testing.T) {
	m := NewMesh(4, 3, 2)
	if got := m.NumNodes(); got != 24 {
		t.Errorf("NumNodes = %d, want 24", got)
	}
	if got := m.Degree(); got != 6 {
		t.Errorf("Degree = %d, want 6", got)
	}
	if got := m.Diameter(); got != 3+2+1 {
		t.Errorf("Diameter = %d, want 6", got)
	}
}

func TestMeshIndexCoordRoundTrip(t *testing.T) {
	m := NewMesh(3, 4, 5)
	for id := 0; id < m.NumNodes(); id++ {
		c := m.CoordOf(NodeID(id))
		if back := m.IndexOf(c); back != NodeID(id) {
			t.Fatalf("round trip failed: id %d -> %v -> %d", id, c, back)
		}
	}
}

func TestMeshRowMajorOrder(t *testing.T) {
	m := NewMesh(2, 3)
	want := []Coord{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for id, w := range want {
		if c := m.CoordOf(NodeID(id)); !c.Equal(w) {
			t.Errorf("CoordOf(%d) = %v, want %v", id, c, w)
		}
	}
}

func TestMeshNeighborsInterior(t *testing.T) {
	m := NewMesh2D(4)
	id := m.IndexOf(Coord{1, 1})
	nbs := m.Neighbors(id)
	if len(nbs) != 4 {
		t.Fatalf("interior node has %d neighbors, want 4", len(nbs))
	}
	want := map[NodeID]bool{
		m.IndexOf(Coord{0, 1}): true,
		m.IndexOf(Coord{2, 1}): true,
		m.IndexOf(Coord{1, 0}): true,
		m.IndexOf(Coord{1, 2}): true,
	}
	for _, nb := range nbs {
		if !want[nb] {
			t.Errorf("unexpected neighbor %v", m.CoordOf(nb))
		}
	}
}

func TestMeshNeighborsCorner(t *testing.T) {
	m := NewMesh2D(4)
	nbs := m.Neighbors(m.IndexOf(Coord{0, 0}))
	if len(nbs) != 2 {
		t.Fatalf("corner node has %d neighbors, want 2", len(nbs))
	}
	nbs = m.Neighbors(m.IndexOf(Coord{0, 2}))
	if len(nbs) != 3 {
		t.Fatalf("edge node has %d neighbors, want 3", len(nbs))
	}
}

func TestMeshNeighborSymmetry(t *testing.T) {
	m := NewMesh(3, 5)
	for id := 0; id < m.NumNodes(); id++ {
		for _, nb := range m.Neighbors(NodeID(id)) {
			if !m.IsNeighbor(NodeID(id), nb) {
				t.Fatalf("IsNeighbor(%d,%d) = false for listed neighbor", id, nb)
			}
			found := false
			for _, back := range m.Neighbors(nb) {
				if back == NodeID(id) {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d in Neighbors(%d) but not vice versa", nb, id)
			}
		}
	}
}

func TestMeshStep(t *testing.T) {
	m := NewMesh2D(4)
	id := m.IndexOf(Coord{1, 2})
	if got := m.Step(id, 0, 1); got != m.IndexOf(Coord{2, 2}) {
		t.Errorf("Step dim0 +1 = %v", m.CoordOf(got))
	}
	if got := m.Step(id, 1, -1); got != m.IndexOf(Coord{1, 1}) {
		t.Errorf("Step dim1 -1 = %v", m.CoordOf(got))
	}
	if got := m.Step(m.IndexOf(Coord{0, 0}), 0, -1); got != None {
		t.Errorf("Step off the edge = %d, want None", got)
	}
	if got := m.Step(m.IndexOf(Coord{3, 3}), 1, 1); got != None {
		t.Errorf("Step off the edge = %d, want None", got)
	}
}

func TestMeshMinDistanceMatchesBFS(t *testing.T) {
	m := NewMesh(3, 4)
	for src := 0; src < m.NumNodes(); src++ {
		dist := bfsDistances(m, NodeID(src), nil)
		for dst := 0; dst < m.NumNodes(); dst++ {
			if got := m.MinDistance(NodeID(src), NodeID(dst)); got != dist[dst] {
				t.Fatalf("MinDistance(%d,%d) = %d, BFS says %d", src, dst, got, dist[dst])
			}
		}
	}
}

func TestMeshLinksCount(t *testing.T) {
	// k×k mesh has 2·2·k·(k−1) directed links.
	m := NewMesh2D(4)
	if got := NumLinks(m); got != 2*2*4*3 {
		t.Errorf("NumLinks = %d, want 48", got)
	}
	links := Links(m)
	if len(links) != 48 {
		t.Errorf("len(Links) = %d, want 48", len(links))
	}
	for _, l := range links {
		if !m.IsNeighbor(l.From, l.To) {
			t.Errorf("link %v connects non-neighbors", l)
		}
	}
}

func TestMeshBisectionWidth(t *testing.T) {
	// 4×4 mesh: 4 cables cross the bisection, 8 directed links.
	m := NewMesh2D(4)
	if got := bisectionWidth(m); got != 8 {
		t.Errorf("BisectionWidth = %d, want 8", got)
	}
}

func TestMeshInvalidConstruction(t *testing.T) {
	for _, dims := range [][]int{{}, {1}, {4, 0}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMesh(%v) did not panic", dims)
				}
			}()
			NewMesh(dims...)
		}()
	}
}

func TestContains(t *testing.T) {
	m := NewMesh(3, 4)
	cases := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0}, true},
		{Coord{2, 3}, true},
		{Coord{3, 0}, false},
		{Coord{0, 4}, false},
		{Coord{-1, 0}, false},
		{Coord{0}, false},
		{Coord{0, 0, 0}, false},
	}
	for _, tc := range cases {
		if got := Contains(m, tc.c); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}
