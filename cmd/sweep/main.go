// Command sweep runs parameter sweeps over the experiment grid and
// emits CSV for plotting:
//
//	sweep -exp e1 -out e1.csv     # PPM convergence over (p, d)
//	sweep -exp e2                 # DPM ambiguity over mesh sizes
//	sweep -exp e3                 # DDPM accuracy over topologies/routings
//	sweep -exp e5                 # end-to-end over zombie counts
//	sweep -exp e6                 # fault tolerance over meshes and tori
//	sweep -exp flitload           # flit-level latency vs offered load,
//	                              # marking on vs off
//
// These are wider grids than the published tables; `figures` prints
// those (core.Artifacts).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/flitsim"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/results"
	"repro/internal/rng"
	"repro/internal/topology"
)

func main() {
	exp := flag.String("exp", "", "experiment: e1, e2, e3, e5, e6, flitload")
	out := flag.String("out", "", "output file (default stdout)")
	seed := flag.Uint64("seed", 1, "seed")
	trials := flag.Int("trials", 30, "trials per cell")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	var err error
	switch *exp {
	case "e1":
		err = sweepE1(w, *seed, *trials)
	case "e2":
		err = sweepE2(w, *seed)
	case "e3":
		err = sweepE3(w, *seed, *trials)
	case "e5":
		err = sweepE5(w, *seed)
	case "e6":
		err = sweepE6(w, *seed)
	case "flitload":
		err = sweepFlitLoad(w, *seed)
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		fatal(err)
	}
}

func sweepE1(w io.Writer, seed uint64, trials int) error {
	fmt.Fprintln(w, "p,d,mean_packets,ci95,analytic")
	for _, p := range []float64{0.01, 0.04, 0.1, 0.2, 0.5} {
		for _, d := range []int{2, 4, 8, 12, 16, 24, 32, 48, 62} {
			if core.E1Analytic(p, d) > 200_000 {
				continue
			}
			row, err := core.RunE1(p, d, trials, seed, 2_000_000)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%.2f,%d,%.1f,%.1f,%.1f\n", row.P, row.D, row.MeanPkts, row.CI95, row.Analytic)
		}
	}
	return nil
}

func sweepE2(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "topology,routing,diameter,sigs_per_flow,srcs_per_sig,max_srcs_per_sig")
	for _, k := range []int{4, 8, 16, 32} {
		for _, r := range []string{"xy", "minimal-adaptive"} {
			row, err := core.RunE2(core.Mesh2D(k), r, 20, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s,%s,%d,%.2f,%.2f,%d\n",
				row.Topo, row.Routing, row.Diameter,
				row.SigsPerFlowMean, row.SrcsPerSigMean, row.MaxSrcsPerSig)
		}
	}
	return nil
}

func sweepE3(w io.Writer, seed uint64, trials int) error {
	fmt.Fprintln(w, "topology,routing,trials,accuracy,undecoded")
	specs := []core.TopoSpec{
		core.Mesh2D(4), core.Mesh2D(8), core.Mesh2D(16), core.Mesh2D(64), core.Mesh2D(128),
		core.Torus2D(8), core.Torus2D(16),
		core.Cube(4), core.Cube(8), core.Cube(12),
		core.Mesh(16, 16, 32),
	}
	routings := []string{"dor", "minimal-adaptive", "fully-adaptive"}
	type cell struct {
		spec    core.TopoSpec
		routing string
	}
	var cells []cell
	for _, spec := range specs {
		for _, r := range routings {
			cells = append(cells, cell{spec: spec, routing: r})
		}
	}
	// Cells are independent simulations; fan them across cores and
	// print in deterministic order.
	rows, err := core.RunParallel(len(cells), 0, func(i int) (core.E3Row, error) {
		return core.RunE3(cells[i].spec, cells[i].routing, trials*10, seed)
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%s,%s,%d,%.4f,%d\n", row.Topo, row.Routing, row.Trials, row.Accuracy(), row.Undecoded)
	}
	return nil
}

func sweepE5(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "zombies,routing,detected,detect_tick,identified_all,false_positives,blocked_fraction")
	for _, r := range []string{"dor", "minimal-adaptive"} {
		for _, z := range []int{1, 2, 4, 8, 16, 32} {
			row, err := core.RunE5(core.E5Config{
				Topo: core.Torus2D(8), Routing: r, Zombies: z, Seed: seed + uint64(z),
				AttackGap: 4, Background: 0.002,
				WarmupTicks: 2000, AttackTicks: 3000, AfterTicks: 2000,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d,%s,%v,%d,%v,%d,%.3f\n",
				row.Zombies, r, row.Detected, row.DetectedAt,
				row.IdentifiedAll, row.FalsePositives, row.BlockedFraction)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

func sweepE6(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "topology,routing,fail_fraction,delivery_rate,ddpm_correct_of_delivered")
	for _, spec := range []core.TopoSpec{core.Mesh2D(8), core.Mesh2D(16), core.Torus2D(8)} {
		for _, f := range []float64{0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2} {
			for _, r := range []string{"dor", "minimal-adaptive", "fully-adaptive"} {
				row, err := core.RunE6(spec, r, f, 400, seed)
				if err != nil {
					return err
				}
				correct := 1.0
				if row.Delivered > 0 {
					correct = float64(row.DDPMCorrect) / float64(row.Delivered)
				}
				fmt.Fprintf(w, "%s,%s,%.2f,%.3f,%.3f\n",
					row.Topo, row.Routing, row.FailFraction, row.DeliveryRate(), correct)
			}
		}
	}
	return nil
}

// sweepFlitLoad traces the classic interconnect latency-vs-offered-load
// curve on the flit-level wormhole fabric (8x8 mesh, uniform traffic),
// with DDPM marking on and off. The two curves coincide through
// saturation — the strongest form of the paper's §6.2 claim.
func sweepFlitLoad(w io.Writer, seed uint64) error {
	csv, err := results.NewCSV(w, "scheme", "inject_every_n_cycles", "injected", "delivered", "avg_latency_cycles")
	if err != nil {
		return err
	}
	for _, withMark := range []bool{false, true} {
		name := "none"
		if withMark {
			name = "ddpm"
		}
		for _, gap := range []int{64, 32, 16, 8, 6, 4} {
			m := topology.NewMesh2D(8)
			plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
			var scheme marking.Scheme
			if withMark {
				d, err := marking.NewDDPM(m)
				if err != nil {
					return err
				}
				scheme = d
			}
			f, err := flitsim.New(flitsim.Config{Net: m, Plan: plan, Scheme: scheme, Seed: seed})
			if err != nil {
				return err
			}
			r := rng.NewStream(seed + uint64(gap))
			for cycle := 0; cycle < 3000; cycle += gap {
				for src := 0; src < m.NumNodes(); src++ {
					dst := topology.NodeID(r.Intn(m.NumNodes()))
					if dst == topology.NodeID(src) {
						continue
					}
					f.Inject(packet.NewPacket(plan, topology.NodeID(src), dst, packet.ProtoUDP, 32))
				}
				f.Run(gap)
			}
			if !f.RunUntilDrained(5_000_000) {
				return fmt.Errorf("flit fabric stuck at gap %d", gap)
			}
			st := f.Stats()
			if err := csv.Row(name, gap, st.Injected, st.Delivered, st.AvgLatency); err != nil {
				return err
			}
		}
	}
	return nil
}
