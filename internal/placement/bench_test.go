package placement

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

func BenchmarkBuildCoverageAllPairs(b *testing.B) {
	m := topology.NewMesh2D(8)
	r := routing.NewRouter(m, routing.NewXY(m))
	pairs := AllPairs(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCoverage(r, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyCover(b *testing.B) {
	m := topology.NewMesh2D(8)
	r := routing.NewRouter(m, routing.NewXY(m))
	cov, err := BuildCoverage(r, AllPairs(m))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monitors, _ := cov.Greedy(0)
		if cov.Covered(monitors) != len(cov.pairs) {
			b.Fatal("incomplete cover")
		}
	}
}
