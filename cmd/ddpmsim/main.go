// Command ddpmsim runs one configurable DDoS scenario on a simulated
// cluster interconnect and reports the full pipeline outcome: fabric
// statistics, detection, per-source identification and blocking.
//
//	ddpmsim -topo mesh -dims 8x8 -routing minimal-adaptive \
//	        -zombies 4 -gap 4 -bg 0.002 -warmup 2000 -attack 3000
//
// The victim is the highest-numbered node; zombies are drawn uniformly
// from the remaining nodes using -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traceback"
)

func main() {
	var (
		topoKind = flag.String("topo", "mesh", "topology: mesh, torus, hypercube")
		dims     = flag.String("dims", "8x8", "dims, e.g. 8x8, 4x4x4, or cube dimension for hypercube")
		routing  = flag.String("routing", "minimal-adaptive", "routing: "+strings.Join(core.RoutingNames(), ", "))
		scheme   = flag.String("scheme", "ddpm", "marking scheme: "+strings.Join(core.SchemeNames(), ", "))
		zombies  = flag.Int("zombies", 4, "number of compromised nodes")
		gap      = flag.Int64("gap", 4, "attack CBR gap in ticks per zombie")
		bg       = flag.Float64("bg", 0.002, "background injection rate per node per tick")
		warmup   = flag.Int64("warmup", 2000, "warmup ticks before the attack")
		atk      = flag.Int64("attack", 3000, "attack ticks before blocking")
		after    = flag.Int64("after", 2000, "post-blocking measurement ticks")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		traceTo  = flag.String("trace", "", "write a JSONL marking trace to this file")
	)
	flag.Parse()

	dimList, err := parseDims(*dims)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		Topo:    core.TopoSpec{Kind: *topoKind, Dims: dimList},
		Routing: *routing, Scheme: *scheme, Seed: *seed, QueueCap: 256,
	}
	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.WrapScheme = func(inner marking.Scheme) marking.Scheme {
			return trace.New(inner, f)
		}
	}
	cl, err := core.Build(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster: %s (%d nodes, degree %d, diameter %d), routing %s, scheme %s\n",
		cl.Net.Name(), cl.Net.NumNodes(), cl.Net.Degree(), cl.Net.Diameter(),
		cl.Router.Alg.Name(), cl.Scheme.Name())

	victim := topology.NodeID(cl.Net.NumNodes() - 1)
	znodes, err := core.DrawZombies(cl.Rng.Stream("zombies").Intn, cl.Net.NumNodes(), victim, *zombies)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddpmsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	var zs []attack.Zombie
	fmt.Printf("victim: node %d %v\nzombies:", victim, cl.Net.CoordOf(victim))
	for _, z := range znodes {
		zs = append(zs, attack.Zombie{
			Node: z, Victim: victim, Proto: packet.ProtoTCPSYN,
			Arrival: attack.CBR{Interval: eventq.Time(*gap)},
			Spoof:   attack.RandomSpoof{Plan: cl.Plan, R: cl.Rng.Stream(fmt.Sprintf("spoof%d", z))},
		})
	}
	for _, z := range zs {
		fmt.Printf(" %d%v", z.Node, cl.Net.CoordOf(z.Node))
	}
	fmt.Println()

	end := eventq.Time(*warmup + *atk + *after)
	flood := &attack.Flood{Zombies: zs, Start: eventq.Time(*warmup), Stop: end,
		RandomID: cl.Rng.Stream("ids")}
	if err := flood.Launch(cl.Sim, cl.Plan); err != nil {
		fatal(err)
	}
	bgl := &attack.Background{Pattern: attack.Uniform, InjectionRate: *bg,
		Start: 0, Stop: end, R: cl.Rng.Stream("bg")}
	if err := bgl.Launch(cl.Sim, cl.Net, cl.Plan); err != nil {
		fatal(err)
	}
	fmt.Printf("traffic: %d attack packets, %d background packets\n",
		flood.Launched(), bgl.Launched())

	det := core.NewVictimDetectors(eventq.Time(*warmup))
	var ident *traceback.DDPMIdentifier
	if d, err := cl.DDPM(); err == nil {
		ident = traceback.NewDDPMIdentifier(d, victim)
	}
	cl.Sim.OnDeliver(func(now eventq.Time, pk *packet.Packet) {
		if pk.DstNode != victim {
			return
		}
		det.Observe(now, pk)
		if ident != nil {
			ident.Observe(pk)
		}
	})
	cl.Sim.RunAll(2_000_000_000)

	st := cl.Sim.Stats()
	fmt.Printf("fabric: injected %d, delivered %d, dropped %d, avg hops %.2f, avg latency %.1f ticks\n",
		st.Injected, st.Delivered, st.DroppedTotal(), st.AvgHops(), st.AvgLatency())
	if det.Alarmed() {
		fmt.Printf("detection: ALARM at tick %d (attack began at %d)\n", det.AlarmedAt(), *warmup)
	} else {
		fmt.Println("detection: no alarm")
	}
	if ident == nil {
		fmt.Println("identification: scheme is not DDPM; no single-packet attribution available")
		return
	}
	threshold := int64(4 * (*bg) * float64(end))
	if threshold < 4 {
		threshold = 4
	}
	srcs := ident.SourcesAbove(threshold)
	fmt.Printf("identification: %d sources above threshold %d packets:\n", len(srcs), threshold)
	correct := 0
	for _, s := range srcs {
		mark := "INNOCENT?"
		if slices.Contains(znodes, s) {
			mark = "zombie"
			correct++
		}
		fmt.Printf("  node %d %v: %d packets attributed (%s)\n",
			s, cl.Net.CoordOf(s), ident.Count(s), mark)
	}
	fmt.Printf("result: %d/%d zombies identified, %d false positives\n",
		correct, len(znodes), len(srcs)-correct)
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dims %q: %v", s, err)
		}
		out[i] = v
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddpmsim:", err)
	os.Exit(1)
}
