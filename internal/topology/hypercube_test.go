package topology

import (
	"math/bits"
	"testing"
)

func TestHypercubeBasicProperties(t *testing.T) {
	// Paper Figure 1(c): 3-cube. Degree and diameter are both n.
	h := NewHypercube(3)
	if got := h.NumNodes(); got != 8 {
		t.Errorf("NumNodes = %d, want 8", got)
	}
	if got := h.Degree(); got != 3 {
		t.Errorf("Degree = %d, want 3", got)
	}
	if got := h.Diameter(); got != 3 {
		t.Errorf("Diameter = %d, want 3", got)
	}
	if h.Wraparound() {
		t.Error("hypercube must not report wraparound")
	}
}

func TestHypercubeCoordIsBitVector(t *testing.T) {
	h := NewHypercube(3)
	if c := h.CoordOf(0b110); !c.Equal(Coord{1, 1, 0}) {
		t.Errorf("CoordOf(6) = %v, want (1,1,0)", c)
	}
	if id := h.IndexOf(Coord{1, 0, 1}); id != 0b101 {
		t.Errorf("IndexOf(1,0,1) = %d, want 5", id)
	}
}

func TestHypercubeRoundTrip(t *testing.T) {
	h := NewHypercube(6)
	for id := 0; id < h.NumNodes(); id++ {
		if back := h.IndexOf(h.CoordOf(NodeID(id))); back != NodeID(id) {
			t.Fatalf("round trip failed for %d", id)
		}
	}
}

func TestHypercubeNeighborsAreSingleBitFlips(t *testing.T) {
	h := NewHypercube(4)
	for id := 0; id < h.NumNodes(); id++ {
		nbs := h.Neighbors(NodeID(id))
		if len(nbs) != 4 {
			t.Fatalf("node %d has %d neighbors, want 4", id, len(nbs))
		}
		for _, nb := range nbs {
			if bits.OnesCount(uint(NodeID(id)^nb)) != 1 {
				t.Errorf("neighbors %d and %d differ in more than one bit", id, nb)
			}
		}
	}
}

func TestHypercubeMinDistanceIsHamming(t *testing.T) {
	h := NewHypercube(4)
	for src := 0; src < h.NumNodes(); src++ {
		dist := bfsDistances(h, NodeID(src), nil)
		for dst := 0; dst < h.NumNodes(); dst++ {
			want := bits.OnesCount(uint(src ^ dst))
			if dist[dst] != want {
				t.Fatalf("BFS(%d,%d) = %d, want Hamming %d", src, dst, dist[dst], want)
			}
			if got := h.MinDistance(NodeID(src), NodeID(dst)); got != want {
				t.Fatalf("MinDistance(%d,%d) = %d, want %d", src, dst, got, want)
			}
		}
	}
}

func TestHypercubeStepFlipsBit(t *testing.T) {
	h := NewHypercube(3)
	// Dimension 0 is the most significant bit.
	if got := h.Step(0b000, 0, 1); got != 0b100 {
		t.Errorf("Step(000, dim0) = %03b, want 100", got)
	}
	if got := h.Step(0b111, 2, -1); got != 0b110 {
		t.Errorf("Step(111, dim2) = %03b, want 110", got)
	}
}

func TestHypercubeXorIsDistance(t *testing.T) {
	// Paper §5: in the hypercube the distance vector is the XOR of the
	// two addresses; S = X XOR V.
	h := NewHypercube(3)
	src := h.CoordOf(0b110)
	dst := h.CoordOf(0b000)
	v := dst.Xor(src)
	if !v.Equal(Coord{1, 1, 0}) {
		t.Errorf("Xor = %v, want (1,1,0)", v)
	}
	if !dst.Xor(v).Equal(src) {
		t.Errorf("dst XOR v = %v, want src %v", dst.Xor(v), src)
	}
}

func TestHypercubeInvalidConstruction(t *testing.T) {
	for _, n := range []int{0, -1, 23} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHypercube(%d) did not panic", n)
				}
			}()
			NewHypercube(n)
		}()
	}
}
