package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestBuildTopologySpecs(t *testing.T) {
	cases := []struct {
		spec  TopoSpec
		nodes int
	}{
		{Mesh2D(4), 16},
		{Torus2D(8), 64},
		{Cube(5), 32},
		{Mesh(4, 3, 2), 24},
	}
	for _, tc := range cases {
		net, err := BuildTopology(tc.spec)
		if err != nil {
			t.Fatalf("%v: %v", tc.spec, err)
		}
		if net.NumNodes() != tc.nodes {
			t.Errorf("%v: %d nodes, want %d", tc.spec, net.NumNodes(), tc.nodes)
		}
	}
	bad := []TopoSpec{
		{Kind: "mesh"},
		{Kind: "torus"},
		{Kind: "hypercube", Dims: []int{3, 3}},
		{Kind: "ring", Dims: []int{8}},
	}
	for _, spec := range bad {
		if _, err := BuildTopology(spec); err == nil {
			t.Errorf("spec %v accepted", spec)
		}
	}
	if Mesh2D(8).String() != "mesh-8x8" {
		t.Errorf("String = %q", Mesh2D(8).String())
	}
}

func TestBuildRoutingAllNames(t *testing.T) {
	net, _ := BuildTopology(Mesh2D(4))
	for _, name := range RoutingNames() {
		alg, err := BuildRouting(name, net)
		if err != nil {
			t.Errorf("routing %q: %v", name, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("routing %q has empty name", name)
		}
	}
	if _, err := BuildRouting("bogus", net); err == nil {
		t.Error("unknown routing accepted")
	}
	// Turn models on incompatible topologies must return errors, not
	// panic.
	cube, _ := BuildTopology(Cube(3))
	if _, err := BuildRouting("west-first", cube); err == nil {
		t.Error("west-first on hypercube accepted")
	}
}

func TestBuildSchemeAllNames(t *testing.T) {
	net, _ := BuildTopology(Mesh2D(8))
	src := testStream()
	for _, name := range SchemeNames() {
		s, err := BuildScheme(name, net, 0.1, src)
		if err != nil {
			t.Errorf("scheme %q: %v", name, err)
			continue
		}
		if s == nil {
			t.Errorf("scheme %q nil", name)
		}
	}
	if _, err := BuildScheme("bogus", net, 0.1, src); err == nil {
		t.Error("unknown scheme accepted")
	}
	// Scalability limits surface as errors.
	big, _ := BuildTopology(Mesh2D(256))
	if _, err := BuildScheme("ddpm", big, 0, src); err == nil {
		t.Error("DDPM on 256x256 accepted")
	}
}

func TestBuildClusterDefaults(t *testing.T) {
	cl, err := Build(Config{Topo: Mesh2D(8), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Scheme.Name() != "ddpm" {
		t.Errorf("default scheme = %q", cl.Scheme.Name())
	}
	if cl.Router.Alg.Name() != "minimal-adaptive" {
		t.Errorf("default routing = %q", cl.Router.Alg.Name())
	}
	if _, err := cl.DDPM(); err != nil {
		t.Errorf("DDPM accessor: %v", err)
	}
	cl2, _ := Build(Config{Topo: Mesh2D(8), Scheme: "dpm", Seed: 1})
	if _, err := cl2.DDPM(); err == nil {
		t.Error("DDPM accessor on dpm cluster succeeded")
	}
}

func TestBuildClusterBadConfigs(t *testing.T) {
	bad := []Config{
		{Topo: TopoSpec{Kind: "nope", Dims: []int{4}}},
		{Topo: Mesh2D(4), Routing: "nope"},
		{Topo: Mesh2D(4), Scheme: "nope"},
		{Topo: Cube(3), Routing: "west-first"},
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// artifact returns the registry entry with the given ID.
func artifact(t *testing.T, id string) Artifact {
	t.Helper()
	for _, a := range Artifacts {
		if a.ID == id {
			return a
		}
	}
	t.Fatalf("no artifact %q", id)
	return Artifact{}
}

func TestScalabilityTables(t *testing.T) {
	for _, table := range []int{1, 2, 3} {
		rows, err := ScalabilityTable(table)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("table %d has %d rows", table, len(rows))
		}
		var sb strings.Builder
		if _, _, err := artifact(t, fmt.Sprintf("T%d", table)).Run(&sb, 1, 1); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "Table") {
			t.Error("table output missing header")
		}
	}
	// Table 1 and 3 agree with the paper; Table 2's mesh row does not.
	r1, _ := ScalabilityTable(1)
	if !r1[0].Agree || !r1[1].Agree {
		t.Error("table 1 should agree with the paper")
	}
	r2, _ := ScalabilityTable(2)
	if r2[0].Agree {
		t.Error("table 2 mesh row unexpectedly agrees (paper is inconsistent)")
	}
	if !r2[1].Agree {
		t.Error("table 2 hypercube row should agree")
	}
	r3, _ := ScalabilityTable(3)
	if !r3[0].Agree || !r3[1].Agree {
		t.Error("table 3 should agree with the paper")
	}
	if _, err := ScalabilityTable(4); err == nil {
		t.Error("table 4 accepted")
	}
}

func TestFigure2Matrix(t *testing.T) {
	cells, err := Figure2(7)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]bool{ // scenario -> algorithm -> deliverable
		"a": {"xy": true, "west-first": true, "fully-adaptive": true},
		"b": {"xy": false, "west-first": true, "fully-adaptive": true},
		"c": {"xy": false, "west-first": false, "fully-adaptive": true},
	}
	for _, c := range cells {
		w := want[c.Scenario][c.Algorithm]
		if c.S1OK != w || c.S2OK != w {
			t.Errorf("scenario %s / %s: S1=%v S2=%v, want %v",
				c.Scenario, c.Algorithm, c.S1OK, c.S2OK, w)
		}
	}
	var sb strings.Builder
	if _, _, err := artifact(t, "2").Run(&sb, 7, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Error("figure output missing header")
	}
}

func TestFigure3Traces(t *testing.T) {
	vecs, src, err := Figure3bTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 7 || !vecs[6].Equal([]int{1, 2}) {
		t.Errorf("3b vectors = %v", vecs)
	}
	if !src.Equal([]int{1, 1}) {
		t.Errorf("3b identified %v, want (1,1)", src)
	}

	vecs, src, err = Figure3cTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 6 || !vecs[5].Equal([]int{1, 1, 0}) {
		t.Errorf("3c vectors = %v", vecs)
	}
	if !src.Equal([]int{1, 1, 0}) {
		t.Errorf("3c identified %v, want (1,1,0)", src)
	}

	samples, err := Figure3aTrace()
	if err != nil {
		t.Fatal(err)
	}
	wantSamples := []string{
		"(0001, 0011, 3)",
		"(0011, 0010, 2)",
		"(0010, 0110, 1)",
		"(0110, ----, 0)",
	}
	if len(samples) != len(wantSamples) {
		t.Fatalf("3a samples = %v", samples)
	}
	for i, w := range wantSamples {
		if samples[i] != w {
			t.Errorf("3a sample %d = %q, want %q", i, samples[i], w)
		}
	}
}
