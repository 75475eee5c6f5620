package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/attack"
	"repro/internal/fattree"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Artifact is one paper artifact the command-line tools print: one of
// Tables 1–3, a figure, or a measured experiment series (DESIGN.md §3).
type Artifact struct {
	ID    string // cmd/figures' -figure value; T1–T3 are cmd/tables' -table 1–3
	Name  string // cmd/report's label
	Claim string // what the paper claims
	// Run writes the artifact's rows to w and returns a one-line summary
	// of those rows and whether they bear the claim out. Only E1 (trials
	// per cell), E3 and X1 (10·trials per row) read trials.
	Run func(w io.Writer, seed uint64, trials int) (summary string, ok bool, err error)
}

// IsTable reports whether a is one of Tables 1–3.
func (a Artifact) IsTable() bool { return strings.HasPrefix(a.ID, "T") }

// Artifacts is every artifact, in the order cmd/report audits them;
// each holds its parameters once, so the printed rows and the verdict
// come from one run.
var Artifacts = []Artifact{
	{ID: "T1", Name: "Table 1 (simple PPM)", Claim: "max 8x8 mesh / 2^6 cube",
		Run: func(w io.Writer, _ uint64, _ int) (string, bool, error) {
			mesh, cube, err := writeTable(w, 1)
			return fmt.Sprintf("max %dx%d mesh / 2^%d cube", mesh, mesh, cube), mesh == 8 && cube == 6, err
		}},
	{ID: "T2", Name: "Table 2 (bit-diff PPM)", Claim: "max 64x64 mesh / 2^8 cube",
		Run: func(w io.Writer, _ uint64, _ int) (string, bool, error) {
			// The mesh row is the documented paper inconsistency.
			mesh, cube, err := writeTable(w, 2)
			return fmt.Sprintf("max %dx%d mesh (paper formula caps at 16) / 2^%d cube", mesh, mesh, cube), cube == 8, err
		}},
	{ID: "T3", Name: "Table 3 (DDPM)", Claim: "max 128x128 mesh / 2^16 cube / 8192-node 3-D",
		Run: func(w io.Writer, _ uint64, _ int) (string, bool, error) {
			mesh, cube, err := writeTable(w, 3)
			widths, nodes := marking.Mesh3DDDPMSplit()
			fmt.Fprintf(w, "3-D mesh/torus split %v -> 16x16x32 = %d nodes\n", widths, nodes)
			return fmt.Sprintf("max %dx%d mesh / 2^%d cube / %d-node 3-D", mesh, mesh, cube, nodes),
				mesh == 128 && cube == 16 && nodes == 8192, err
		}},
	{ID: "2", Name: "Figure 2 (routing vs failures)", Claim: "xy: a only; west-first: a,b; fully-adaptive: a,b,c",
		Run: runFigure2},
	{ID: "3a", Name: "Figure 3a (simple-PPM edge samples)", Claim: "(0001,0011,3) (0011,0010,2) (0010,0110,1) (0110,----,0)",
		Run: runFigure3a},
	{ID: "3b", Name: "Figure 3b (mesh vector trace)", Claim: "(1,0)(2,0)(2,-1)(1,-1)(1,0)(1,1)(1,2) -> source (1,1)",
		Run: func(w io.Writer, _ uint64, _ int) (string, bool, error) {
			vecs, src, err := Figure3bTrace()
			if err != nil {
				return "", false, err
			}
			writeTrace(w, "Figure 3b. DDPM on 4x4 mesh, adaptive route (1,1)->(2,3)", "(2,3)", vecs, src)
			return fmt.Sprintf("final vector %v -> source %v", vecs[len(vecs)-1], src),
				len(vecs) == 7 && vecs[6].Equal(topology.Vector{1, 2}) && src.Equal(topology.Coord{1, 1}), nil
		}},
	{ID: "3c", Name: "Figure 3c (hypercube trace)", Claim: "final vector (1,1,0) -> source (1,1,0)",
		Run: func(w io.Writer, _ uint64, _ int) (string, bool, error) {
			vecs, src, err := Figure3cTrace()
			if err != nil {
				return "", false, err
			}
			writeTrace(w, "Figure 3c. DDPM on 3-cube, route (1,1,0)->(0,0,0)", "(0,0,0)", vecs, src)
			return fmt.Sprintf("final vector %v -> source %v", vecs[len(vecs)-1], src),
				vecs[len(vecs)-1].Equal(topology.Vector{1, 1, 0}) && src.Equal(topology.Coord{1, 1, 0}), nil
		}},
	{ID: "E1", Name: "E1 (PPM cost grows with d)", Claim: "≈ ln(d)/p(1-p)^(d-1): explodes at cluster diameters",
		Run: runE1},
	{ID: "E2", Name: "E2 (DPM shatters when adaptive)", Claim: "1 signature/flow deterministic; many when adaptive",
		Run: runE2},
	{ID: "E3", Name: "E3 (DDPM single-packet accuracy)", Claim: "exact source from one packet, any routing",
		Run: runE3},
	{ID: "E4", Name: "E4 (marking overhead end to end)", Claim: "add/subtract/XOR per hop: performance unaffected",
		Run: runE4},
	{ID: "E5", Name: "E5 (detect-identify-block pipeline)", Claim: "spoofed zombies identified and blocked",
		Run: runE5},
	{ID: "E6", Name: "E6 (fault-tolerance ordering)", Claim: "fully-adaptive ≥ west-first ≥ xy under failures",
		Run: runE6},
	{ID: "E7", Name: "E7 (service denial & recovery)", Claim: "SYN flood denies; blocking identified source restores",
		Run: runE7},
	{ID: "X1", Name: "X1 (fat-tree stamping, §6.3)", Claim: "future work: indirect networks",
		Run: runX1},
	{ID: "X2", Name: "X2 (trusted-switch placement, §6.1)", Claim: "future work: traffic does not aggregate at a few points",
		Run: runX2},
	{ID: "X4", Name: "X4 (compromised switch, §4.1)", Claim: "assumption probed: damage confined to crossing flows",
		Run: runX4},
}

// writeTable renders Table 1, 2 or 3 in the paper's layout and returns
// the exact maximum mesh radix and cube dimension.
func writeTable(w io.Writer, table int) (mesh, cube int, err error) {
	rows, err := ScalabilityTable(table)
	if err != nil {
		return 0, 0, err
	}
	name := map[int]string{1: "Simple PPM", 2: "Simple Bit Difference PPM", 3: "DDPM"}[table]
	fmt.Fprintf(w, "Table %d. Scalability of %s\n", table, name)
	fmt.Fprintf(w, "%-20s %-36s %-22s %-22s %s\n",
		"Topology", "Required Field", "Paper Max Cluster", "Exact Max Cluster", "Agree")
	for _, r := range rows {
		paper := fmt.Sprintf("%d (%d nodes)", r.PaperMaxN, r.PaperNodes)
		exact := fmt.Sprintf("%d (%d nodes)", r.ExactMaxN, r.ExactNodes)
		agree := "yes"
		if !r.Agree {
			agree = "NO (see EXPERIMENTS.md)"
		}
		fmt.Fprintf(w, "%-20s %-36s %-22s %-22s %s\n", r.Topology, r.Formula, paper, exact, agree)
	}
	return rows[0].ExactMaxN, rows[1].ExactMaxN, nil
}

func runFigure2(w io.Writer, seed uint64, _ int) (string, bool, error) {
	cells, err := Figure2(seed)
	if err != nil {
		return "", false, err
	}
	fmt.Fprintln(w, "Figure 2. Routing algorithms on a 4x4 mesh: S1=(2,0), S2=(0,0), D=(1,2)")
	fmt.Fprintln(w, "  (a) no failures  (b) east links out of S1/S2 failed  (c) only (1,3)->D live")
	fmt.Fprintf(w, "%-10s %-16s %-8s %-8s\n", "Scenario", "Algorithm", "S1->D", "S2->D")
	delivers := map[string]string{"xy": "a", "west-first": "ab", "fully-adaptive": "abc"} // scenarios
	summary, ok := "matrix matches", true
	for _, c := range cells {
		fmt.Fprintf(w, "%-10s %-16s %-8v %-8v\n", c.Scenario, c.Algorithm, c.S1OK, c.S2OK)
		deliver := strings.Contains(delivers[c.Algorithm], c.Scenario)
		if ok && (c.S1OK != deliver || c.S2OK != deliver) {
			summary, ok = fmt.Sprintf("mismatch at (%s,%s)", c.Scenario, c.Algorithm), false
		}
	}
	return summary, ok, nil
}

func runFigure3a(w io.Writer, _ uint64, _ int) (string, bool, error) {
	samples, err := Figure3aTrace()
	if err != nil {
		return "", false, err
	}
	fmt.Fprintln(w, "Figure 3a. Simple PPM edge samples on 4x4 mesh, path 0001->0011->0010->0110->1110")
	fmt.Fprintln(w, "  (victim 1110 decodes, for each possible marking switch, the sample below)")
	for i, s := range samples {
		fmt.Fprintf(w, "  mark at hop %d: %s\n", i, s)
	}
	got := strings.Join(samples, " ")
	return got, got == "(0001, 0011, 3) (0011, 0010, 2) (0010, 0110, 1) (0110, ----, 0)", nil
}

func writeTrace(w io.Writer, title, victim string, vecs []topology.Vector, src topology.Coord) {
	fmt.Fprintln(w, title)
	fmt.Fprint(w, "  distance vector per hop:")
	for _, v := range vecs {
		fmt.Fprintf(w, " %v", v)
	}
	fmt.Fprintf(w, "\n  victim %s identifies source: %v\n", victim, src)
}

func runE1(w io.Writer, seed uint64, trials int) (string, bool, error) {
	fmt.Fprintln(w, "E1. PPM convergence: packets the victim needs vs path length d (wide/idealized PPM, XY routing)")
	fmt.Fprintln(w, "p,d,mean_packets,ci95,analytic_ln(d)/p(1-p)^(d-1)")
	mean := map[int]float64{} // by d, at p = 0.10
	for _, p := range []float64{0.04, 0.1, 0.2} {
		for _, d := range []int{4, 8, 16, 24, 32, 48, 62} {
			// Skip cells whose analytic cost explodes (the paper's own
			// point: at cluster diameters PPM needs a low p, and even
			// then the overhead is enormous).
			if E1Analytic(p, d) > 100_000 {
				continue
			}
			row, err := RunE1(p, d, trials, seed, 1_000_000)
			if err != nil {
				return "", false, err
			}
			fmt.Fprintf(w, "%.2f,%d,%.1f,%.1f,%.1f\n", row.P, row.D, row.MeanPkts, row.CI95, row.Analytic)
			if p == 0.1 {
				mean[d] = row.MeanPkts
			}
		}
	}
	return fmt.Sprintf("p=0.10, d=8: %.0f pkts, d=32: %.0f pkts", mean[8], mean[32]), mean[32] > 3*mean[8], nil
}

type specRouting struct {
	spec    TopoSpec
	routing string
}

func runE2(w io.Writer, seed uint64, _ int) (string, bool, error) {
	fmt.Fprintln(w, "E2. DPM ambiguity: signatures per flow and colliding sources per signature")
	fmt.Fprintln(w, "topology,routing,diameter,flows,sigs_per_flow,srcs_per_sig,max_srcs_per_sig")
	var rows []E2Row
	for _, tc := range []specRouting{
		{Mesh2D(8), "xy"}, {Mesh2D(8), "minimal-adaptive"},
		{Mesh2D(16), "xy"}, {Mesh2D(16), "minimal-adaptive"},
		{Mesh2D(32), "xy"}, // diameter 62 > 16: positions wrap
		{Torus2D(16), "dor"}, {Torus2D(16), "minimal-adaptive"},
	} {
		row, err := RunE2(tc.spec, tc.routing, 20, seed)
		if err != nil {
			return "", false, err
		}
		fmt.Fprintf(w, "%s,%s,%d,%d,%.2f,%.2f,%d\n",
			row.Topo, row.Routing, row.Diameter, row.FlowsMeasured,
			row.SigsPerFlowMean, row.SrcsPerSigMean, row.MaxSrcsPerSig)
		rows = append(rows, row)
	}
	det, ad := rows[0].SigsPerFlowMean, rows[1].SigsPerFlowMean
	return fmt.Sprintf("mesh-8x8 xy: %.2f sigs/flow, adaptive: %.2f", det, ad), det == 1 && ad > 3, nil
}

func runE3(w io.Writer, seed uint64, trials int) (string, bool, error) {
	fmt.Fprintln(w, "E3. DDPM single-packet identification accuracy (spoofed headers, garbage-preloaded MF)")
	fmt.Fprintln(w, "topology,routing,trials,correct,undecoded,accuracy")
	cases := []specRouting{
		{Mesh2D(8), "xy"}, {Mesh2D(8), "west-first"}, {Mesh2D(8), "north-last"},
		{Mesh2D(8), "negative-first"}, {Mesh2D(8), "minimal-adaptive"}, {Mesh2D(8), "fully-adaptive"},
		{Mesh2D(128), "minimal-adaptive"}, // Table 3 max mesh
		{Torus2D(16), "dor"}, {Torus2D(16), "minimal-adaptive"},
		{Cube(10), "dor"}, {Cube(10), "minimal-adaptive"},
		{Mesh(16, 16, 32), "minimal-adaptive"}, // paper's 8192-node 3-D split
	}
	correct, total := 0, 0
	for _, tc := range cases {
		row, err := RunE3(tc.spec, tc.routing, trials*10, seed)
		if err != nil {
			return "", false, err
		}
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%.4f\n",
			row.Topo, row.Routing, row.Trials, row.Correct, row.Undecoded, row.Accuracy())
		correct, total = correct+row.Correct, total+row.Trials
	}
	return fmt.Sprintf("%d/%d correct over %d configurations", correct, total, len(cases)), correct == total, nil
}

// runE4 is E4's end-to-end half ("we expect they would not affect
// overall performance"): average latency and delivered throughput under
// uniform traffic at rising offered load, DDPM marking off and on.
// Marking is pure header arithmetic, so the two curves must coincide.
func runE4(w io.Writer, seed uint64, _ int) (string, bool, error) {
	fmt.Fprintln(w, "E4. Marking overhead end to end: 8x8 mesh, uniform traffic, DDPM marking off vs on")
	fmt.Fprintln(w, "scheme,rate,delivered,dropped,avg_latency,avg_hops")
	rates := []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05}
	rows := map[string][]string{}
	for _, scheme := range []string{"none", "ddpm"} {
		for _, rate := range rates {
			cl, err := Build(Config{Topo: Mesh2D(8), Scheme: scheme, Seed: seed, QueueCap: 64})
			if err != nil {
				return "", false, err
			}
			bg := &attack.Background{
				Pattern: attack.Uniform, InjectionRate: rate,
				Start: 0, Stop: 5000, R: cl.Rng.Stream("bg"),
				Proto: packet.ProtoRaw,
			}
			if err := bg.Launch(cl.Sim, cl.Net, cl.Plan); err != nil {
				return "", false, err
			}
			cl.Sim.RunAll(1_000_000_000)
			st := cl.Sim.Stats()
			row := fmt.Sprintf("%.3f,%d,%d,%.2f,%.2f", rate, st.Delivered, st.DroppedTotal(), st.AvgLatency(), st.AvgHops())
			fmt.Fprintf(w, "%s,%s\n", scheme, row)
			rows[scheme] = append(rows[scheme], row)
		}
	}
	same := strings.Join(rows["none"], " ") == strings.Join(rows["ddpm"], " ")
	return fmt.Sprintf("%d offered loads, off and on identical: %v", len(rates), same), same, nil
}

func runE5(w io.Writer, seed uint64, _ int) (string, bool, error) {
	fmt.Fprintln(w, "E5. End-to-end DDoS pipeline on an 8x8 torus (detect -> identify -> block)")
	fmt.Fprintln(w, "zombies,attack_packets,detected,detect_tick,identified_all,false_positives,blocked_fraction")
	detected, identified, fp, blocked := true, true, 0, 1.0
	for _, z := range []int{1, 2, 4, 8, 16} {
		row, err := RunE5(E5Config{
			Topo: Torus2D(8), Zombies: z, Seed: seed + uint64(z),
			AttackGap: 4, Background: 0.002,
			WarmupTicks: 2000, AttackTicks: 3000, AfterTicks: 2000,
		})
		if err != nil {
			return "", false, err
		}
		fmt.Fprintf(w, "%d,%d,%v,%d,%v,%d,%.3f\n",
			row.Zombies, row.AttackPkts, row.Detected, row.DetectedAt,
			row.IdentifiedAll, row.FalsePositives, row.BlockedFraction)
		detected, identified = detected && row.Detected, identified && row.IdentifiedAll
		fp, blocked = fp+row.FalsePositives, min(blocked, row.BlockedFraction)
	}
	return fmt.Sprintf("1-16 zombies: detected=%v identified=%v fp=%d blocked>=%.2f", detected, identified, fp, blocked),
		detected && identified && fp == 0 && blocked > 0.99, nil
}

func runE6(w io.Writer, seed uint64, _ int) (string, bool, error) {
	fmt.Fprintln(w, "E6. Fault tolerance (Figure 2 quantified): delivery rate vs failed-cable fraction;")
	fmt.Fprintln(w, "    DDPM correctness is scored over delivered flows only")
	fmt.Fprintln(w, "topology,routing,fail_fraction,failed_cables,flows,delivered,delivery_rate,ddpm_correct")
	ordered, exact := true, true
	var at10 []float64 // xy, west-first, minimal-adaptive, fully-adaptive at f = 0.10
	for _, f := range []float64{0, 0.02, 0.05, 0.1, 0.2} {
		var rate []float64
		for _, r := range []string{"xy", "west-first", "minimal-adaptive", "fully-adaptive"} {
			row, err := RunE6(Mesh2D(8), r, f, 500, seed)
			if err != nil {
				return "", false, err
			}
			fmt.Fprintf(w, "%s,%s,%.2f,%d,%d,%d,%.3f,%d\n",
				row.Topo, row.Routing, row.FailFraction, row.FailedCables,
				row.Flows, row.Delivered, row.DeliveryRate(), row.DDPMCorrect)
			rate, exact = append(rate, row.DeliveryRate()), exact && row.DDPMCorrect == row.Delivered
		}
		ordered = ordered && rate[3] >= rate[1] && rate[1] >= rate[0]
		if f == 0.1 {
			at10 = rate
		}
	}
	return fmt.Sprintf("at 10%% failed: xy %.2f vs fully-adaptive %.2f; order holds: %v; DDPM exact on delivered: %v",
		at10[0], at10[3], ordered, exact), ordered && exact, nil
}

func runE7(w io.Writer, seed uint64, _ int) (string, bool, error) {
	fmt.Fprintln(w, "E7. Service-level SYN-flood denial and recovery (6x6 mesh, 16-entry half-open table)")
	fmt.Fprintln(w, "zombies,phase,attempts,established,completion,refused,blocked,backscatter")
	ok, summary := true, ""
	for _, z := range []int{1, 2, 4} {
		rows, err := RunE7(E7Config{Topo: Mesh2D(6), Zombies: z, AttackGap: 2, Seed: seed + uint64(z)})
		if err != nil {
			return "", false, err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%d,%s,%d,%d,%.3f,%d,%d,%d\n",
				z, r.Phase, r.Attempts, r.Established, r.CompletionRate(),
				r.Refused, r.Blocked, r.Backscatter)
		}
		clean, atk, blocked := rows[0].CompletionRate(), rows[1].CompletionRate(), rows[2].CompletionRate()
		ok = ok && atk < clean && blocked > atk
		if z == 2 {
			summary = fmt.Sprintf("2 zombies: completion clean %.2f -> attack %.2f -> blocked %.2f", clean, atk, blocked)
		}
	}
	return summary, ok, nil
}

func runX1(w io.Writer, seed uint64, trials int) (string, bool, error) {
	fmt.Fprintln(w, "X1 (extension, §6.3). Fat-tree port stamping: single-packet source identification on indirect networks")
	fmt.Fprintln(w, "tree,leaves,mf_bits,trials,correct,accuracy")
	correct, total, bits := 0, 0, 0
	for _, cfg := range [][2]int{{2, 4}, {2, 8}, {2, 12}, {4, 3}, {4, 6}, {8, 4}} {
		row, err := RunX1(cfg[0], cfg[1], trials*10, seed)
		if err != nil {
			return "", false, err
		}
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.4f\n",
			row.Tree, row.Leaves, row.Bits, row.Trials, row.Correct,
			float64(row.Correct)/float64(row.Trials))
		correct, total, bits = correct+row.Correct, total+row.Trials, max(bits, row.Bits)
	}
	fmt.Fprintln(w, "\nMF scalability (Table 3 analog for fat trees):")
	for _, k := range []int{2, 4, 8, 16} { // the deepest tree whose stamp fits the 16-bit MF
		n, leaves := fattree.MaxLeavesIn16Bits(k)
		fmt.Fprintf(w, "  %d-ary fat tree: max n=%d (%d leaves)\n", k, n, leaves)
	}
	return fmt.Sprintf("6 trees: %d/%d exact in at most %d MF bits", correct, total, bits), correct == total, nil
}

func runX2(w io.Writer, seed uint64, _ int) (string, bool, error) {
	fmt.Fprintln(w, "X2 (extension, §6.1). Trusted-switch placement: greedy covers for all-pairs XY traffic")
	fmt.Fprintln(w, "topology,pairs,monitors,deterministic_coverage,adaptive_coverage")
	ok := true
	var parts []string
	for _, k := range []int{4, 8} {
		var one, full X2Row
		for _, budget := range []int{1, 2, 4, 0} { // 0 = until full cover
			row, err := RunX2(k, budget, 2, seed)
			if err != nil {
				return "", false, err
			}
			fmt.Fprintf(w, "%s,%d,%d,%.3f,%.3f\n",
				row.Topo, row.Pairs, row.Monitors, row.DeterministicCov, row.AdaptiveCov)
			if budget == 1 {
				one = row
			}
			full = row
		}
		ok = ok && one.DeterministicCov < 0.5 && full.DeterministicCov == 1
		parts = append(parts, fmt.Sprintf("%s: 1 monitor covers %.2f, %d cover all", full.Topo, one.DeterministicCov, full.Monitors))
	}
	return strings.Join(parts, "; "), ok, nil
}

func runX4(w io.Writer, seed uint64, _ int) (string, bool, error) {
	fmt.Fprintln(w, "X4 (ablation, §4.1/§6.2). Compromised-switch blast radius on an 8x8 mesh (adaptive routing)")
	fmt.Fprintln(w, "scheme,bad_switch,flows,through_bad,misattributed,misattributed_clean")
	crossing, corrupted, clean := 0, 0, 0
	for _, bad := range []int{0, 27, 36} { // corner, interior, interior
		for _, scheme := range []string{"ddpm", "ingress-stamp"} {
			row, err := RunX4(Mesh2D(8), scheme, topology.NodeID(bad), 600, seed)
			if err != nil {
				return "", false, err
			}
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n",
				row.Scheme, bad, row.Flows, row.ThroughBad, row.Misattributed, row.MisattributedClean)
			crossing, corrupted, clean = crossing+row.ThroughBad, corrupted+row.Misattributed, clean+row.MisattributedClean
		}
	}
	fmt.Fprintln(w, "note: misattributed_clean = flows that never crossed the liar; 0 means damage is contained")
	return fmt.Sprintf("%d misattributed of %d crossing flows, %d clean flows affected", corrupted, crossing, clean), clean == 0, nil
}
