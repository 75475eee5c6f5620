package core

import (
	"repro/internal/fattree"
	"repro/internal/packet"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ---------------------------------------------------------------------
// X1 — fat-tree port stamping (§6.3 future work): accuracy and the
// Table 3 analog for indirect networks.
// ---------------------------------------------------------------------

// X1Row reports one fat-tree configuration.
type X1Row struct {
	Tree    string
	Leaves  int
	Bits    int
	Trials  int
	Correct int
}

// RunX1 routes trials random flows with fully adaptive (random) up-port
// selection and hostile MF preloads, then checks port-stamping
// identification.
func RunX1(k, n, trials int, seed uint64) (X1Row, error) {
	tr, err := fattree.New(k, n)
	if err != nil {
		return X1Row{}, err
	}
	st, err := fattree.NewStamper(tr)
	if err != nil {
		return X1Row{}, err
	}
	r := rng.NewStream(seed)
	choose := fattree.RandomUp(rng.NewStream(seed + 1))
	row := X1Row{Tree: tr.Name(), Leaves: tr.NumLeaves(), Bits: st.Bits()}
	for row.Trials < trials {
		src := fattree.LeafID(r.Intn(tr.NumLeaves()))
		dst := fattree.LeafID(r.Intn(tr.NumLeaves()))
		hops, err := tr.Route(src, dst, tr.NCALevel(src, dst), choose)
		if err != nil {
			return row, err
		}
		pk := &packet.Packet{}
		pk.Hdr.ID = uint16(r.Intn(1 << 16))
		st.Apply(pk, hops)
		row.Trials++
		if got, ok := st.Identify(dst, pk.Hdr.ID); ok && got == src {
			row.Correct++
		}
	}
	return row, nil
}

// ---------------------------------------------------------------------
// X2 — trusted-switch placement (§6.1 future work): greedy monitor
// covers under deterministic routing and their degradation under
// adaptive routing.
// ---------------------------------------------------------------------

// X2Row reports one placement configuration.
type X2Row struct {
	Topo             string
	Pairs            int
	Monitors         int
	DeterministicCov float64 // fraction of pairs covered (XY paths)
	AdaptiveCov      float64 // sampled fraction under minimal adaptive
}

// RunX2 computes the greedy cover for all-pairs XY traffic on a k×k
// mesh, optionally truncated to budget monitors, then measures its
// probabilistic coverage under adaptive routing.
func RunX2(k, budget, adaptiveTrials int, seed uint64) (X2Row, error) {
	m := topology.NewMesh2D(k)
	pairs := placement.AllPairs(m)
	det := routing.NewRouter(m, routing.NewXY(m))
	cov, err := placement.BuildCoverage(det, pairs)
	if err != nil {
		return X2Row{}, err
	}
	monitors, _ := cov.Greedy(budget)
	row := X2Row{
		Topo:     m.Name(),
		Pairs:    len(pairs),
		Monitors: len(monitors),
	}
	row.DeterministicCov = float64(cov.Covered(monitors)) / float64(len(pairs))

	ad := routing.NewRouter(m, routing.NewMinimalAdaptive(m))
	ad.Sel = routing.RandomSelector{R: rng.NewStream(seed)}
	frac, err := placement.AdaptiveCoverage(ad, pairs, monitors, adaptiveTrials)
	if err != nil {
		return X2Row{}, err
	}
	row.AdaptiveCov = frac
	return row, nil
}
