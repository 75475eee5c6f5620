package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func allNetworks() []Network {
	return []Network{
		NewMesh2D(4),
		NewMesh(3, 5),
		NewMesh(4, 4, 4),
		NewTorus2D(4),
		NewTorus2D(5),
		NewTorus(4, 6),
		NewHypercube(4),
		NewHypercube(6),
	}
}

func TestBFSDistancesWithFailures(t *testing.T) {
	m := NewMesh2D(3)
	// Fail both directions of the link between (0,0) and (0,1): the
	// distance from (0,0) to (0,1) becomes 3 (around through row 1).
	a, b := m.IndexOf(Coord{0, 0}), m.IndexOf(Coord{0, 1})
	failed := map[Link]bool{{From: a, To: b}: true, {From: b, To: a}: true}
	dist := bfsDistances(m, a, failed)
	if dist[b] != 3 {
		t.Errorf("distance with failed link = %d, want 3", dist[b])
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	m := NewMesh2D(2)
	// Isolate node (0,0) by failing both of its incident cables.
	a := m.IndexOf(Coord{0, 0})
	failed := map[Link]bool{}
	for _, nb := range m.Neighbors(a) {
		failed[Link{From: a, To: nb}] = true
		failed[Link{From: nb, To: a}] = true
	}
	dist := bfsDistances(m, a, failed)
	for id, d := range dist {
		if NodeID(id) == a {
			if d != 0 {
				t.Errorf("dist to self = %d", d)
			}
		} else if d != -1 {
			t.Errorf("node %d reachable (d=%d) despite isolation", id, d)
		}
	}
}

func TestMinimalDimsLeadsToDestination(t *testing.T) {
	// Property: repeatedly following any minimal (dim,dir) reaches dst
	// in exactly MinDistance hops, on every topology.
	for _, net := range allNetworks() {
		r := rand.New(rand.NewSource(42))
		for trial := 0; trial < 200; trial++ {
			src := NodeID(r.Intn(net.NumNodes()))
			dst := NodeID(r.Intn(net.NumNodes()))
			cur := src
			hops := 0
			for cur != dst {
				mins := MinimalDims(net, cur, dst)
				if len(mins) == 0 {
					t.Fatalf("%s: no minimal move from %d to %d", net.Name(), cur, dst)
				}
				mv := mins[r.Intn(len(mins))]
				next := net.Step(cur, mv.Dim, mv.Dir)
				if next == None {
					t.Fatalf("%s: minimal move %v off the network from %d", net.Name(), mv, cur)
				}
				cur = next
				hops++
				if hops > net.Diameter()+1 {
					t.Fatalf("%s: minimal walk from %d to %d exceeded diameter", net.Name(), src, dst)
				}
			}
			if want := net.MinDistance(src, dst); hops != want {
				t.Fatalf("%s: minimal walk took %d hops, want %d", net.Name(), hops, want)
			}
		}
	}
}

func TestDisplacementSumsToCoordinateDifference(t *testing.T) {
	// The core DDPM invariant (paper §5): for ANY walk from S to D —
	// minimal or not — the sum of per-hop displacements, reduced mod k
	// on a torus, equals D − S.
	for _, net := range allNetworks() {
		r := rand.New(rand.NewSource(7))
		dims := net.Dims()
		for trial := 0; trial < 100; trial++ {
			src := NodeID(r.Intn(net.NumNodes()))
			cur := src
			v := make(Vector, len(dims))
			steps := r.Intn(3 * net.Diameter())
			for s := 0; s < steps; s++ {
				nbs := net.Neighbors(cur)
				next := nbs[r.Intn(len(nbs))] // arbitrary random walk
				v.AddInPlace(Displacement(net, cur, next))
				cur = next
			}
			want := net.CoordOf(cur).Sub(net.CoordOf(src))
			got := v
			if net.Wraparound() {
				got = v.Mod(dims)
				want = want.Mod(dims)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: walk displacement %v != D−S %v (src=%d cur=%d)",
					net.Name(), got, want, src, cur)
			}
		}
	}
}

func TestDisplacementQuick(t *testing.T) {
	// testing/quick variant on a single torus: random walks always
	// satisfy the invariant.
	tr := NewTorus2D(8)
	f := func(seed int64, nsteps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		src := NodeID(r.Intn(tr.NumNodes()))
		cur := src
		v := make(Vector, 2)
		for s := 0; s < int(nsteps); s++ {
			nbs := tr.Neighbors(cur)
			next := nbs[r.Intn(len(nbs))]
			v.AddInPlace(Displacement(tr, cur, next))
			cur = next
		}
		return v.Mod(tr.Dims()).Equal(tr.CoordOf(cur).Sub(tr.CoordOf(src)).Mod(tr.Dims()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLinksSortedAndComplete(t *testing.T) {
	for _, net := range allNetworks() {
		links := Links(net)
		if len(links) != NumLinks(net) {
			t.Errorf("%s: Links/NumLinks mismatch", net.Name())
		}
		for i := 1; i < len(links); i++ {
			a, b := links[i-1], links[i]
			if a.From > b.From || (a.From == b.From && a.To >= b.To) {
				t.Errorf("%s: links not strictly sorted at %d", net.Name(), i)
				break
			}
		}
		// Every link's reverse must also exist (full duplex).
		set := map[Link]bool{}
		for _, l := range links {
			set[l] = true
		}
		for _, l := range links {
			if !set[Link{From: l.To, To: l.From}] {
				t.Errorf("%s: missing reverse of %v", net.Name(), l)
			}
		}
	}
}

func TestHypercubeBisection(t *testing.T) {
	// An n-cube's bisection has 2^{n−1} cables = 2^n directed links.
	h := NewHypercube(4)
	if got := bisectionWidth(h); got != 16 {
		t.Errorf("BisectionWidth = %d, want 16", got)
	}
}
