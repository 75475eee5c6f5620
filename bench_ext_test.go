package clusterid

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// BenchmarkE6FaultTolerance regenerates the fault-tolerance rows:
// delivery rate at 10% failed cables per routing algorithm.
func BenchmarkE6FaultTolerance(b *testing.B) {
	for _, r := range []string{"xy", "west-first", "fully-adaptive"} {
		b.Run(r, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				row, err := core.RunE6(core.Mesh2D(8), r, 0.1, 300, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				rate += row.DeliveryRate()
				if row.DDPMCorrect != row.Delivered {
					b.Fatal("DDPM misidentified a delivered packet")
				}
			}
			b.ReportMetric(rate/float64(b.N), "delivery-rate")
		})
	}
}

// BenchmarkE7ServiceRecovery regenerates the three-phase service story
// and reports the attacked-phase completion rate.
func BenchmarkE7ServiceRecovery(b *testing.B) {
	var attacked, blocked float64
	for i := 0; i < b.N; i++ {
		rows, err := core.RunE7(core.E7Config{
			Topo: core.Mesh2D(6), Zombies: 2, AttackGap: 2, Seed: uint64(i) + 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		attacked += rows[1].CompletionRate()
		blocked += rows[2].CompletionRate()
	}
	b.ReportMetric(attacked/float64(b.N), "attacked-completion")
	b.ReportMetric(blocked/float64(b.N), "blocked-completion")
}

// BenchmarkX1FatTreeStamping regenerates the indirect-network extension.
func BenchmarkX1FatTreeStamping(b *testing.B) {
	for _, cfg := range [][2]int{{2, 8}, {4, 6}} {
		b.Run(fmt.Sprintf("%d-ary-%d-tree", cfg[0], cfg[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := core.RunX1(cfg[0], cfg[1], 200, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				if row.Correct != row.Trials {
					b.Fatal("fat-tree stamping misidentified")
				}
			}
		})
	}
}

// BenchmarkX2PlacementGreedy regenerates the trusted-switch cover.
func BenchmarkX2PlacementGreedy(b *testing.B) {
	var monitors float64
	for i := 0; i < b.N; i++ {
		row, err := core.RunX2(8, 0, 1, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		monitors += float64(row.Monitors)
	}
	b.ReportMetric(monitors/float64(b.N), "monitors-for-full-cover")
}

// BenchmarkX4CompromisedSwitch regenerates the blast-radius ablation.
func BenchmarkX4CompromisedSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := core.RunX4(core.Mesh2D(8), "ddpm", topology.NodeID(27), 300, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if row.MisattributedClean != 0 {
			b.Fatal("corruption leaked to clean flows")
		}
	}
}
