package core

import (
	"fmt"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ---------------------------------------------------------------------
// Tables 1–3 (scalability): rows match the paper's tables, reporting
// the paper's formula/claim next to this implementation's exact layout.
// ---------------------------------------------------------------------

// TableRow is one topology-family row of a scalability table.
type TableRow struct {
	Topology   string
	Formula    string
	PaperMaxN  int // paper-claimed max (n of n×n, or cube dimension)
	PaperNodes int
	ExactMaxN  int // computed from this package's exact layouts
	ExactNodes int
	Agree      bool
}

// ScalabilityTable regenerates Table 1, 2 or 3.
func ScalabilityTable(table int) ([]TableRow, error) {
	var kind marking.SchemeKind
	var meshFormula, cubeFormula string
	switch table {
	case 1:
		kind = marking.KindSimplePPM
		meshFormula = "2·log n² + log 2n"
		cubeFormula = "2n + log(n+1)"
	case 2:
		kind = marking.KindBitDiffPPM
		meshFormula = "log n² + log log n² + log 2n"
		cubeFormula = "n + log n + log(n+1)"
	case 3:
		kind = marking.KindDDPM
		meshFormula = "2·(log n + 1)  [two signed fields]"
		cubeFormula = "n  [XOR word]"
	default:
		return nil, fmt.Errorf("core: no table %d (have 1, 2, 3)", table)
	}
	pm, pmNodes := marking.PaperMaxMesh(kind)
	em, emNodes := marking.MaxMesh(kind)
	pc, pcNodes := marking.PaperMaxCube(kind)
	ec, ecNodes := marking.MaxCube(kind)
	return []TableRow{
		{
			Topology: "n×n mesh, torus", Formula: meshFormula,
			PaperMaxN: pm, PaperNodes: pmNodes,
			ExactMaxN: em, ExactNodes: emNodes,
			Agree: pm == em,
		},
		{
			Topology: "n-cube hypercube", Formula: cubeFormula,
			PaperMaxN: pc, PaperNodes: pcNodes,
			ExactMaxN: ec, ExactNodes: ecNodes,
			Agree: pc == ec,
		},
	}, nil
}

// ---------------------------------------------------------------------
// Figure 2 — routing deliverability under link failures.
// ---------------------------------------------------------------------

// Figure2Cell is one (scenario, algorithm) outcome.
type Figure2Cell struct {
	Scenario  string // "a", "b", "c"
	Algorithm string
	S1OK      bool
	S2OK      bool
}

// Figure2 reproduces the deliverability matrix of the paper's Figure 2:
// 4×4 mesh, S1=(2,0), S2=(0,0), D=(1,2), three failure scenarios, three
// algorithms. Expected shape: XY delivers only in (a); west-first in
// (a) and (b); fully adaptive in all three.
func Figure2(seed uint64) ([]Figure2Cell, error) {
	m := topology.NewMesh2D(4)
	s1 := m.IndexOf(topology.Coord{2, 0})
	s2 := m.IndexOf(topology.Coord{0, 0})
	d := m.IndexOf(topology.Coord{1, 2})

	failB := func(st *routing.LinkState) {
		st.FailBoth(s1, m.IndexOf(topology.Coord{2, 1}))
		st.FailBoth(s2, m.IndexOf(topology.Coord{0, 1}))
	}
	failC := func(st *routing.LinkState) {
		for _, nb := range []topology.Coord{{0, 2}, {2, 2}, {1, 1}} {
			st.FailBoth(m.IndexOf(nb), d)
		}
	}
	scenarios := []struct {
		name string
		fail func(*routing.LinkState)
	}{
		{"a", func(*routing.LinkState) {}},
		{"b", failB},
		{"c", failC},
	}
	algs := []string{"xy", "west-first", "fully-adaptive"}

	var out []Figure2Cell
	rsrc := rng.NewSource(seed)
	for _, sc := range scenarios {
		for _, algName := range algs {
			alg, err := BuildRouting(algName, m)
			if err != nil {
				return nil, err
			}
			r := routing.NewRouter(m, alg)
			r.Sel = routing.RandomSelector{R: rsrc.Stream(sc.name + algName)}
			r.MisrouteBudget = 6
			sc.fail(r.State)
			out = append(out, Figure2Cell{
				Scenario:  sc.name,
				Algorithm: algName,
				S1OK:      r.Deliverable(s1, d, 300),
				S2OK:      r.Deliverable(s2, d, 300),
			})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 3 — marking-field traces along the paper's example routes.
// ---------------------------------------------------------------------

// Figure3bTrace replays the §5 adaptive route (1,1)→(2,3) on the 4×4
// mesh and returns the DDPM vector after each hop plus the identified
// source.
func Figure3bTrace() (vectors []topology.Vector, identified topology.Coord, err error) {
	return ddpmTrace(topology.NewMesh2D(4), "3b", []topology.Coord{
		{1, 1}, {2, 1}, {3, 1}, {3, 0}, {2, 0}, {2, 1}, {2, 2}, {2, 3},
	})
}

// Figure3cTrace replays the §5 hypercube route (1,1,0)→(0,0,0).
func Figure3cTrace() (vectors []topology.Vector, identified topology.Coord, err error) {
	return ddpmTrace(topology.NewHypercube(3), "3c", []topology.Coord{
		{1, 1, 0}, {0, 1, 0}, {0, 1, 1}, {1, 1, 1}, {1, 0, 1}, {1, 0, 0}, {0, 0, 0},
	})
}

// ddpmTrace marks one packet along route on net with DDPM and returns
// the vector after each hop and the source the last node identifies.
func ddpmTrace(net topology.Network, figure string, route []topology.Coord) ([]topology.Vector, topology.Coord, error) {
	d, err := marking.NewDDPM(net)
	if err != nil {
		return nil, nil, err
	}
	var vectors []topology.Vector
	pk := &packet.Packet{}
	d.OnInject(pk)
	for i := 0; i+1 < len(route); i++ {
		d.OnForward(net.IndexOf(route[i]), net.IndexOf(route[i+1]), pk)
		vectors = append(vectors, topology.Vector(d.Codec().Decode(pk.Hdr.ID)))
	}
	srcID, ok := d.IdentifySource(net.IndexOf(route[len(route)-1]), pk.Hdr.ID)
	if !ok {
		return vectors, nil, fmt.Errorf("core: figure %s identification failed", figure)
	}
	return vectors, net.CoordOf(srcID), nil
}

// Figure3aTrace replays the simple-PPM example: for each mark position
// along the path 0001→0011→0010→0110→1110 it reports the sample the
// victim decodes, as (startLabel, endLabel, dist) strings.
func Figure3aTrace() ([]string, error) {
	m := topology.NewMesh2D(4)
	lab, err := marking.NewLabeler(m)
	if err != nil {
		return nil, err
	}
	coords := []topology.Coord{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}}
	path := make([]topology.NodeID, len(coords))
	for i, c := range coords {
		path[i] = m.IndexOf(c)
	}
	scheme, err := marking.NewSimplePPM(m, 0.5, rng.NewSource(1).Stream("x"))
	if err != nil {
		return nil, err
	}
	marker, _ := marking.NewSimplePPM(m, 1.0, rng.NewSource(2).Stream("m"))
	passer, _ := marking.NewSimplePPM(m, 1e-12, rng.NewSource(3).Stream("p"))
	var out []string
	for mark := 0; mark+1 < len(path); mark++ {
		pk := &packet.Packet{}
		for i := 0; i+1 < len(path); i++ {
			if i == mark {
				marker.OnForward(path[i], path[i+1], pk)
			} else {
				passer.OnForward(path[i], path[i+1], pk)
			}
		}
		es, ok := scheme.DecodeMF(pk.Hdr.ID)
		if !ok {
			return nil, fmt.Errorf("core: figure 3a sample %d undecodable", mark)
		}
		if es.Dist == 0 {
			out = append(out, fmt.Sprintf("(%04b, ----, %d)", lab.Label(es.Start), es.Dist))
		} else {
			out = append(out, fmt.Sprintf("(%04b, %04b, %d)", lab.Label(es.Start), lab.Label(es.End), es.Dist))
		}
	}
	return out, nil
}
