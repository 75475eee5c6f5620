// Benchmark harness: one benchmark per paper table/figure/experiment
// (see DESIGN.md §3 and EXPERIMENTS.md). Run with
//
//	go test -bench=. -benchmem
//
// The E4 micro-benchmarks quantify the paper's §6.2 claim that a switch
// "performs only simple functions such as addition, subtraction, and
// XOR" — compare BenchmarkE4MarkOp* against the no-op baseline.
package clusterid

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// --- Tables 1–3 -------------------------------------------------------

func benchTable(b *testing.B, table int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := core.WriteTable(io.Discard, table); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SimplePPMScalability(b *testing.B) { benchTable(b, 1) }
func BenchmarkTable2BitDiffScalability(b *testing.B)   { benchTable(b, 2) }
func BenchmarkTable3DDPMScalability(b *testing.B)      { benchTable(b, 3) }

// --- Figure 2 ---------------------------------------------------------

func BenchmarkFigure2RoutingDeliverability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := core.Figure2(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 9 {
			b.Fatalf("cells = %d", len(cells))
		}
	}
}

// --- Figure 3 ---------------------------------------------------------

func BenchmarkFigure3aEdgeSamples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure3aTrace(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3bDDPMMeshTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Figure3bTrace(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3cDDPMHypercubeTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Figure3cTrace(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1: PPM convergence ----------------------------------------------

func BenchmarkE1PPMConvergence(b *testing.B) {
	for _, d := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			totalPkts := 0.0
			for i := 0; i < b.N; i++ {
				row, err := core.RunE1(0.04, d, 3, uint64(i)+1, 1_000_000)
				if err != nil {
					b.Fatal(err)
				}
				totalPkts += row.MeanPkts
			}
			b.ReportMetric(totalPkts/float64(b.N), "packets-to-converge")
		})
	}
}

// --- E2: DPM ambiguity --------------------------------------------------

func BenchmarkE2DPMAmbiguity(b *testing.B) {
	for _, r := range []string{"xy", "minimal-adaptive"} {
		b.Run(r, func(b *testing.B) {
			sigs := 0.0
			for i := 0; i < b.N; i++ {
				row, err := core.RunE2(core.Mesh2D(8), r, 10, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				sigs += row.SigsPerFlowMean
			}
			b.ReportMetric(sigs/float64(b.N), "signatures-per-flow")
		})
	}
}

// --- E3: DDPM accuracy ---------------------------------------------------

func BenchmarkE3DDPMAccuracy(b *testing.B) {
	cases := []struct {
		name    string
		spec    core.TopoSpec
		routing string
	}{
		{"mesh8-adaptive", core.Mesh2D(8), "fully-adaptive"},
		{"torus16-adaptive", core.Torus2D(16), "minimal-adaptive"},
		{"cube10-ecube", core.Cube(10), "dor"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			correct, trials := 0, 0
			for i := 0; i < b.N; i++ {
				row, err := core.RunE3(tc.spec, tc.routing, 100, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				correct += row.Correct
				trials += row.Trials
			}
			b.ReportMetric(float64(correct)/float64(trials), "accuracy")
		})
	}
}

// --- E4: per-hop marking cost (the §6.2 switch overhead) ----------------

func benchMarkOp(b *testing.B, scheme marking.Scheme, net topology.Network) {
	b.Helper()
	r := rng.NewStream(1)
	// Pre-draw a pool of (cur, next) neighbor pairs to keep the
	// benchmark loop free of setup noise.
	type hop struct{ cur, next topology.NodeID }
	pool := make([]hop, 1024)
	for i := range pool {
		cur := topology.NodeID(r.Intn(net.NumNodes()))
		nbs := net.Neighbors(cur)
		pool[i] = hop{cur: cur, next: nbs[r.Intn(len(nbs))]}
	}
	pk := &packet.Packet{}
	pk.Hdr.TTL = packet.DefaultTTL
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := pool[i&1023]
		scheme.OnForward(h.cur, h.next, pk)
	}
}

func BenchmarkE4MarkOpNop(b *testing.B) {
	benchMarkOp(b, marking.Nop{}, topology.NewMesh2D(128))
}

func BenchmarkE4MarkOpDDPMMesh(b *testing.B) {
	m := topology.NewMesh2D(128) // Table 3 max mesh
	d, err := marking.NewDDPM(m)
	if err != nil {
		b.Fatal(err)
	}
	benchMarkOp(b, d, m)
}

func BenchmarkE4MarkOpDDPMTorus(b *testing.B) {
	tr := topology.NewTorus2D(128)
	d, err := marking.NewDDPM(tr)
	if err != nil {
		b.Fatal(err)
	}
	benchMarkOp(b, d, tr)
}

func BenchmarkE4MarkOpDDPMHypercube(b *testing.B) {
	h := topology.NewHypercube(16) // Table 3 max hypercube
	d, err := marking.NewDDPM(h)
	if err != nil {
		b.Fatal(err)
	}
	benchMarkOp(b, d, h)
}

func BenchmarkE4MarkOpDPM(b *testing.B) {
	benchMarkOp(b, marking.NewDPM(), topology.NewMesh2D(128))
}

func BenchmarkE4MarkOpSimplePPM(b *testing.B) {
	m := topology.NewMesh2D(8)
	s, err := marking.NewSimplePPM(m, 0.04, rng.NewStream(2))
	if err != nil {
		b.Fatal(err)
	}
	benchMarkOp(b, s, m)
}

func BenchmarkE4MarkOpFragmentPPM(b *testing.B) {
	f, err := marking.NewFragmentPPM(0.04, rng.NewStream(3))
	if err != nil {
		b.Fatal(err)
	}
	benchMarkOp(b, f, topology.NewMesh2D(128))
}

// BenchmarkE4FabricThroughput measures end-to-end simulation cost with
// marking on vs off: the latency/throughput deltas stay within noise,
// the paper's "we expect they would not affect overall performance".
func BenchmarkE4FabricThroughput(b *testing.B) {
	for _, scheme := range []string{"none", "ddpm"} {
		b.Run(scheme, func(b *testing.B) {
			var latency float64
			for i := 0; i < b.N; i++ {
				cl, err := core.Build(core.Config{
					Topo: core.Mesh2D(8), Scheme: scheme, Seed: uint64(i) + 1, QueueCap: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				bg := &attack.Background{
					Pattern: attack.Uniform, InjectionRate: 0.01,
					Start: 0, Stop: 2000, R: cl.Rng.Stream("bg"),
				}
				if err := bg.Launch(cl.Sim, cl.Net, cl.Plan); err != nil {
					b.Fatal(err)
				}
				cl.Sim.RunAll(100_000_000)
				latency += cl.Sim.Stats().AvgLatency()
			}
			b.ReportMetric(latency/float64(b.N), "avg-latency-ticks")
		})
	}
}

// --- E5: end-to-end pipeline --------------------------------------------

func BenchmarkE5EndToEnd(b *testing.B) {
	for _, z := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("zombies=%d", z), func(b *testing.B) {
			blocked := 0.0
			for i := 0; i < b.N; i++ {
				row, err := core.RunE5(core.E5Config{
					Topo: core.Torus2D(8), Zombies: z, Seed: uint64(i) + 1,
					AttackGap: 4, Background: 0.002,
					WarmupTicks: 1000, AttackTicks: 1500, AfterTicks: 1000,
				})
				if err != nil {
					b.Fatal(err)
				}
				blocked += row.BlockedFraction
			}
			b.ReportMetric(blocked/float64(b.N), "blocked-fraction")
		})
	}
}

// --- Ablations (DESIGN.md §6) --------------------------------------------

// BenchmarkAblationCodecAddVsRoundTrip compares the switch's in-place
// field accumulation against the naive decode-add-encode alternative —
// the design decision that keeps per-hop cost at a few instructions.
func BenchmarkAblationCodecAddVsRoundTrip(b *testing.B) {
	codec, err := marking.CodecForDims([]int{128, 128})
	if err != nil {
		b.Fatal(err)
	}
	delta := topology.Vector{1, 0}
	b.Run("in-place-add", func(b *testing.B) {
		mf := uint16(0)
		for i := 0; i < b.N; i++ {
			mf = codec.Add(mf, delta)
		}
		_ = mf
	})
	b.Run("decode-add-encode", func(b *testing.B) {
		mf := uint16(0)
		for i := 0; i < b.N; i++ {
			v := codec.Decode(mf)
			v.AddInPlace(delta)
			nv, err := codec.Encode(v.Wrap([]int{128, 128}))
			if err != nil {
				b.Fatal(err)
			}
			mf = nv
		}
		_ = mf
	})
}
