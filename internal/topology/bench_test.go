package topology

import "testing"

func BenchmarkMeshNeighbors(b *testing.B) {
	m := NewMesh2D(32)
	for i := 0; i < b.N; i++ {
		_ = m.Neighbors(NodeID(i % m.NumNodes()))
	}
}

func BenchmarkTorusMinDistance(b *testing.B) {
	tr := NewTorus2D(32)
	n := tr.NumNodes()
	for i := 0; i < b.N; i++ {
		_ = tr.MinDistance(NodeID(i%n), NodeID((i*7)%n))
	}
}

func BenchmarkHypercubeNeighbors(b *testing.B) {
	h := NewHypercube(16)
	for i := 0; i < b.N; i++ {
		_ = h.Neighbors(NodeID(i % h.NumNodes()))
	}
}

func BenchmarkCoordIndexRoundTrip(b *testing.B) {
	m := NewMesh(16, 16, 32)
	n := m.NumNodes()
	for i := 0; i < b.N; i++ {
		id := NodeID(i % n)
		c := m.CoordOf(id)
		if m.IndexOf(c) != id {
			b.Fatal("round trip failed")
		}
	}
}

func BenchmarkDisplacement(b *testing.B) {
	tr := NewTorus2D(128)
	cur := tr.IndexOf(Coord{0, 0})
	next := tr.IndexOf(Coord{127, 0}) // wraparound hop
	for i := 0; i < b.N; i++ {
		_ = Displacement(tr, cur, next)
	}
}

func BenchmarkMinimalDims(b *testing.B) {
	tr := NewTorus2D(64)
	n := tr.NumNodes()
	for i := 0; i < b.N; i++ {
		_ = MinimalDims(tr, NodeID(i%n), NodeID((i*13+5)%n))
	}
}

func BenchmarkBFSDistances(b *testing.B) {
	m := NewMesh2D(16)
	for i := 0; i < b.N; i++ {
		_ = bfsDistances(m, NodeID(i%m.NumNodes()), nil)
	}
}
