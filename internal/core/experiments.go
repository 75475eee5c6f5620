package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traceback"
)

// ---------------------------------------------------------------------
// E1 — PPM convergence: expected packets to reconstruct a path of
// length d versus the analytic bound ln(d)/(p(1−p)^{d−1}) (§4.2).
// ---------------------------------------------------------------------

// E1Row is one (p, d) cell of the convergence experiment.
type E1Row struct {
	P        float64
	D        int
	Trials   int
	MeanPkts float64
	CI95     float64
	Analytic float64 // ln(d)/(p(1−p)^{d−1})
}

// E1Analytic evaluates the paper's §4.2 bound.
func E1Analytic(p float64, d int) float64 {
	return math.Log(float64(d)) / (p * math.Pow(1-p, float64(d-1)))
}

// RunE1 measures, over trials independent runs, how many packets the
// victim must receive before the idealized (wide) PPM reconstructor
// pins the single attacker at hop distance d on a straight mesh path
// under deterministic routing — the best case for PPM; adaptive routing
// only makes it worse.
func RunE1(p float64, d, trials int, seed uint64, maxPkts int) (E1Row, error) {
	if d < 2 {
		return E1Row{}, fmt.Errorf("core: E1 needs d >= 2")
	}
	m := topology.NewMesh(1<<1, d+1) // a 2×(d+1) strip: straight row path
	src := m.IndexOf(topology.Coord{0, 0})
	dst := m.IndexOf(topology.Coord{0, d})
	rsrc := rng.NewSource(seed)
	var acc stats.Running
	for trial := 0; trial < trials; trial++ {
		scheme, err := marking.NewWidePPM(p, rsrc.Stream(fmt.Sprintf("mark%d", trial)))
		if err != nil {
			return E1Row{}, err
		}
		r := routing.NewRouter(m, routing.NewXY(m))
		rec := traceback.ForWidePPM(scheme)
		rec.Adjacency = m.IsNeighbor
		plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
		path, err := r.Walk(src, dst, 0)
		if err != nil {
			return E1Row{}, err
		}
		pkts := 0
		// Checking convergence after every packet is O(pkts²) on long
		// paths; back off the check interval as the run grows, then
		// binary-refine is unnecessary — resolution of ~1% suffices.
		checkAt := d
		for ; pkts < maxPkts; pkts++ {
			pk := packet.NewPacket(plan, src, dst, packet.ProtoTCPSYN, 0)
			scheme.OnInject(pk)
			for i := 0; i+1 < len(path); i++ {
				scheme.OnForward(path[i], path[i+1], pk)
			}
			rec.Observe(pk)
			if pkts+1 >= checkAt {
				if srcs := rec.Sources(); len(srcs) == 1 && srcs[0] == src {
					break
				}
				checkAt += 1 + pkts/64
			}
		}
		acc.Add(float64(pkts + 1))
	}
	return E1Row{
		P: p, D: d, Trials: trials,
		MeanPkts: acc.Mean(), CI95: acc.CI95(),
		Analytic: E1Analytic(p, d),
	}, nil
}

// ---------------------------------------------------------------------
// E2 — DPM ambiguity (§4.3): signatures per flow under deterministic vs
// adaptive routing, sources per signature (collision ambiguity), and
// information loss past 16 hops.
// ---------------------------------------------------------------------

// E2Row summarizes DPM behavior on one configuration.
type E2Row struct {
	Topo            string
	Routing         string
	Diameter        int
	FlowsMeasured   int
	SigsPerFlowMean float64 // distinct signatures one flow generates
	SrcsPerSigMean  float64 // distinct sources colliding on one signature
	MaxSrcsPerSig   int
}

// RunE2 sends pktsPerFlow packets from every node to one victim and
// measures signature stability and collision ambiguity.
func RunE2(spec TopoSpec, routingName string, pktsPerFlow int, seed uint64) (E2Row, error) {
	net, err := BuildTopology(spec)
	if err != nil {
		return E2Row{}, err
	}
	alg, err := BuildRouting(routingName, net)
	if err != nil {
		return E2Row{}, err
	}
	src := rng.NewSource(seed)
	r := routing.NewRouter(net, alg)
	r.Sel = routing.RandomSelector{R: src.Stream("sel")}
	plan := packet.NewAddrPlan(packet.DefaultBase, net.NumNodes())
	dpm := marking.NewDPM()
	victim := topology.NodeID(net.NumNodes() - 1)

	sigsBySource := make(map[topology.NodeID]map[uint16]bool)
	sourcesBySig := make(map[uint16]map[topology.NodeID]bool)
	flows := 0
	for s := 0; s < net.NumNodes(); s++ {
		if topology.NodeID(s) == victim {
			continue
		}
		flows++
		for k := 0; k < pktsPerFlow; k++ {
			path, err := r.Walk(topology.NodeID(s), victim, 0)
			if err != nil {
				return E2Row{}, err
			}
			pk := packet.NewPacket(plan, topology.NodeID(s), victim, packet.ProtoTCPSYN, 0)
			for i := 0; i+1 < len(path); i++ {
				dpm.OnForward(path[i], path[i+1], pk)
				pk.Hdr.TTL--
			}
			sig := dpm.Signature(pk.Hdr.ID)
			if sigsBySource[topology.NodeID(s)] == nil {
				sigsBySource[topology.NodeID(s)] = make(map[uint16]bool)
			}
			sigsBySource[topology.NodeID(s)][sig] = true
			if sourcesBySig[sig] == nil {
				sourcesBySig[sig] = make(map[topology.NodeID]bool)
			}
			sourcesBySig[sig][topology.NodeID(s)] = true
		}
	}
	// Integer sums keep the means exact and independent of map
	// iteration order (bit-identical reruns).
	sigSum := 0
	for _, sigs := range sigsBySource {
		sigSum += len(sigs)
	}
	srcSum, maxSrcs := 0, 0
	for _, srcs := range sourcesBySig {
		srcSum += len(srcs)
		if len(srcs) > maxSrcs {
			maxSrcs = len(srcs)
		}
	}
	row := E2Row{
		Topo: net.Name(), Routing: routingName, Diameter: net.Diameter(),
		FlowsMeasured: flows,
		MaxSrcsPerSig: maxSrcs,
	}
	if len(sigsBySource) > 0 {
		row.SigsPerFlowMean = float64(sigSum) / float64(len(sigsBySource))
	}
	if len(sourcesBySig) > 0 {
		row.SrcsPerSigMean = float64(srcSum) / float64(len(sourcesBySig))
	}
	return row, nil
}

// ---------------------------------------------------------------------
// E3 — DDPM single-packet identification accuracy across topologies and
// routing algorithms (§5's central claim).
// ---------------------------------------------------------------------

// E3Row is one configuration's accuracy measurement.
type E3Row struct {
	Topo      string
	Routing   string
	Trials    int
	Correct   int
	Undecoded int
}

// Accuracy returns the fraction of trials correctly identified.
func (r E3Row) Accuracy() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Trials)
}

// RunE3 routes trials random (src, dst) packets — every header spoofed
// and the MF preloaded with garbage — and checks DDPM identification.
func RunE3(spec TopoSpec, routingName string, trials int, seed uint64) (E3Row, error) {
	net, err := BuildTopology(spec)
	if err != nil {
		return E3Row{}, err
	}
	alg, err := BuildRouting(routingName, net)
	if err != nil {
		return E3Row{}, err
	}
	d, err := marking.NewDDPM(net)
	if err != nil {
		return E3Row{}, err
	}
	src := rng.NewSource(seed)
	r := routing.NewRouter(net, alg)
	r.Sel = routing.RandomSelector{R: src.Stream("sel")}
	r.MisrouteBudget = 3
	plan := packet.NewAddrPlan(packet.DefaultBase, net.NumNodes())
	stream := src.Stream("pairs")
	row := E3Row{Topo: net.Name(), Routing: routingName}
	for row.Trials < trials {
		a := topology.NodeID(stream.Intn(net.NumNodes()))
		b := topology.NodeID(stream.Intn(net.NumNodes()))
		if a == b {
			continue
		}
		path, err := r.Walk(a, b, 0)
		if err != nil {
			return row, fmt.Errorf("core: E3 walk: %w", err)
		}
		pk := packet.NewPacket(plan, a, b, packet.ProtoTCPSYN, 0)
		pk.Spoof(plan.AddrOf(topology.NodeID(stream.Intn(net.NumNodes()))))
		pk.Hdr.ID = uint16(stream.Intn(1 << 16))
		d.OnInject(pk)
		for i := 0; i+1 < len(path); i++ {
			d.OnForward(path[i], path[i+1], pk)
		}
		row.Trials++
		got, ok := d.IdentifySource(b, pk.Hdr.ID)
		switch {
		case !ok:
			row.Undecoded++
		case got == a:
			row.Correct++
		}
	}
	return row, nil
}

// DrawZombies draws n distinct nodes other than victim from intn and
// returns them sorted, so the attack's event order and per-zombie
// streams do not depend on map order. It refuses an n the fabric cannot
// supply: the draw would never fill the set.
func DrawZombies(intn func(int) int, nodes int, victim topology.NodeID, n int) ([]topology.NodeID, error) {
	if n > nodes-1 {
		return nil, fmt.Errorf("core: %d zombies, but the fabric has only %d nodes besides the victim", n, nodes-1)
	}
	seen := make(map[topology.NodeID]bool, n)
	out := make([]topology.NodeID, 0, n)
	for len(out) < n {
		if z := topology.NodeID(intn(nodes)); z != victim && !seen[z] {
			seen[z] = true
			out = append(out, z)
		}
	}
	slices.Sort(out)
	return out, nil
}

// ---------------------------------------------------------------------
// E5 — end-to-end DDoS story: zombies SYN-flood a victim through
// background traffic; measure detection latency, identification, and
// residual attack traffic after blocking.
// ---------------------------------------------------------------------

// E5Row summarizes one end-to-end run.
type E5Row struct {
	Zombies         int
	AttackPkts      uint64
	DetectedAt      eventq.Time
	Detected        bool
	IdentifiedAll   bool
	FalsePositives  int
	BlockedFraction float64 // attack packets dropped after blocking
}

// E5Config parameterizes the end-to-end experiment.
type E5Config struct {
	Topo        TopoSpec
	Routing     string
	Zombies     int
	Seed        uint64
	AttackGap   eventq.Time // CBR gap per zombie
	Background  float64     // per-node injection rate
	WarmupTicks eventq.Time
	AttackTicks eventq.Time
	AfterTicks  eventq.Time // post-identification window to measure blocking
}

// RunE5 executes the full pipeline with DDPM:
//
//	phase 1 (warmup): background only; detectors learn a baseline.
//	phase 2 (attack): zombies flood; detection alarm recorded; the
//	  victim's DDPM identifier tallies sources.
//	phase 3 (blocked): victim blocklists the identified sources and the
//	  attack continues; residual accepted attack traffic is measured.
func RunE5(cfg E5Config) (E5Row, error) {
	if cfg.Routing == "" {
		cfg.Routing = "minimal-adaptive"
	}
	cl, err := Build(Config{
		Topo: cfg.Topo, Routing: cfg.Routing,
		Scheme: "ddpm", Seed: cfg.Seed, QueueCap: 256,
	})
	if err != nil {
		return E5Row{}, err
	}
	d, _ := cl.DDPM()
	victim := topology.NodeID(cl.Net.NumNodes() - 1)

	zombieNodes, err := DrawZombies(cl.Rng.Stream("zombies").Intn, cl.Net.NumNodes(), victim, cfg.Zombies)
	if err != nil {
		return E5Row{}, err
	}
	isZombie := func(n topology.NodeID) bool {
		_, ok := slices.BinarySearch(zombieNodes, n)
		return ok
	}
	var zombies []attack.Zombie
	for _, z := range zombieNodes {
		zombies = append(zombies, attack.Zombie{
			Node: z, Victim: victim, Proto: packet.ProtoTCPSYN,
			Arrival: attack.CBR{Interval: cfg.AttackGap},
			Spoof:   attack.RandomSpoof{Plan: cl.Plan, R: cl.Rng.Stream(fmt.Sprintf("spoof%d", z))},
		})
	}

	attackStart := cfg.WarmupTicks
	attackEnd := attackStart + cfg.AttackTicks + cfg.AfterTicks
	flood := &attack.Flood{
		Zombies: zombies, Start: attackStart, Stop: attackEnd,
		RandomID: cl.Rng.Stream("ids"),
	}
	if err := flood.Launch(cl.Sim, cl.Plan); err != nil {
		return E5Row{}, err
	}
	bg := &attack.Background{
		Pattern: attack.Uniform, InjectionRate: cfg.Background,
		Start: 0, Stop: attackEnd, R: cl.Rng.Stream("bg"),
	}
	if err := bg.Launch(cl.Sim, cl.Net, cl.Plan); err != nil {
		return E5Row{}, err
	}

	det := NewVictimDetectors(cfg.WarmupTicks)
	ident := traceback.NewDDPMIdentifier(d, victim)

	row := E5Row{Zombies: cfg.Zombies, AttackPkts: flood.Launched()}
	blockAt := attackStart + cfg.AttackTicks
	var blocked map[topology.NodeID]bool
	var attackSeen, attackAfterBlock, attackDroppedByBlock uint64

	cl.Sim.OnDeliver(func(now eventq.Time, pk *packet.Packet) {
		if pk.DstNode != victim {
			return
		}
		det.Observe(now, pk)
		src, ok := ident.Observe(pk)
		if pk.SrcNode != victim && pk.Hdr.Proto == packet.ProtoTCPSYN && isZombie(pk.SrcNode) {
			attackSeen++
		}
		if blocked != nil && ok && isZombie(pk.SrcNode) {
			attackAfterBlock++
			if blocked[src] {
				attackDroppedByBlock++
			}
		}
	})

	// Phase 1+2: run to the blocking point, then compute the blocklist.
	cl.Sim.Run(blockAt)
	if det.Alarmed() {
		row.Detected = true
		row.DetectedAt = det.AlarmedAt()
	}
	blocked = map[topology.NodeID]bool{}
	// Threshold: anything with more identified packets than 4x the
	// per-node background expectation is blocked.
	threshold := int64(4 * cfg.Background * float64(cfg.WarmupTicks+cfg.AttackTicks))
	if threshold < 4 {
		threshold = 4
	}
	for _, s := range ident.SourcesAbove(threshold) {
		blocked[s] = true
	}
	row.IdentifiedAll = true
	for _, z := range zombieNodes {
		if !blocked[z] {
			row.IdentifiedAll = false
		}
	}
	for b := range blocked {
		if !isZombie(b) {
			row.FalsePositives++
		}
	}

	// Phase 3: attack continues; measure blocking effectiveness.
	cl.Sim.RunAll(200_000_000)
	if attackAfterBlock > 0 {
		row.BlockedFraction = float64(attackDroppedByBlock) / float64(attackAfterBlock)
	}
	return row, nil
}

// VictimDetectors bundles the three detectors with scales derived from
// the warmup window.
type VictimDetectors struct {
	fan detect.Fanout
}

// NewVictimDetectors builds a rate + entropy + SYN-table bundle tuned
// to a warmup window.
func NewVictimDetectors(warmup eventq.Time) *VictimDetectors {
	w := warmup / 4
	if w < 10 {
		w = 10
	}
	return &VictimDetectors{fan: detect.Fanout{
		detect.NewRateDetector(w, 3, 20),
		detect.NewEntropyDetector(w, 2),
		detect.NewSYNTable(128, 4*w),
	}}
}

// Observe forwards to the bundle; Alarmed/AlarmedAt report the first
// alarm.
func (v *VictimDetectors) Observe(now eventq.Time, pk *packet.Packet) { v.fan.Observe(now, pk) }
func (v *VictimDetectors) Alarmed() bool                              { return v.fan.Alarmed() }
func (v *VictimDetectors) AlarmedAt() eventq.Time                     { return v.fan.AlarmedAt() }
