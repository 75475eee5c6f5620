// Package loadgen turns a closed-loop simulated DDoS scenario into an
// open-loop record stream for ddpmd: it runs a seeded SYN flood (plus
// legitimate background traffic) through the cycle-accurate simulator
// and captures every packet delivered to the victim as a wire.Record —
// exactly what the victim's NIC exporter would emit — together with
// the scenario's ground truth for end-to-end verification.
package loadgen

import (
	"errors"
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Scenario parameterizes one generated attack. Zero values take the
// defaults noted per field.
type Scenario struct {
	Topo    core.TopoSpec   // required
	Victim  topology.NodeID // negative: highest-numbered node (0 is a real node, not "unset")
	Zombies int             // default 3
	Seed    uint64          // deterministic scenario seed

	AttackGap  eventq.Time // CBR gap per zombie (default 2 ticks)
	Background float64     // per-node background rate (default 0.002 pkts/tick)
	Warmup     eventq.Time // quiet ticks before the flood (default 3000)
	Attack     eventq.Time // flood duration (default 6000)
}

// Result is the generated stream plus ground truth.
type Result struct {
	Records  []wire.Record // victim NIC observations in delivery order
	Zombies  []topology.NodeID
	Victim   topology.NodeID
	TopoName string
	TopoID   uint32

	// AttackRecords counts records delivered during the flood window
	// (diagnostics; includes background that arrived alongside).
	AttackRecords int
}

// Generate runs the scenario to completion and captures the victim's
// delivery stream.
func Generate(s Scenario) (*Result, error) {
	if s.Zombies <= 0 {
		s.Zombies = 3
	}
	if s.AttackGap <= 0 {
		s.AttackGap = 2
	}
	if s.Background <= 0 {
		s.Background = 0.002
	}
	if s.Warmup <= 0 {
		s.Warmup = 3000
	}
	if s.Attack <= 0 {
		s.Attack = 6000
	}
	cl, err := core.Build(core.Config{Topo: s.Topo, Scheme: "ddpm", Seed: s.Seed, QueueCap: 512})
	if err != nil {
		return nil, err
	}
	victim := s.Victim
	if victim < 0 {
		victim = topology.NodeID(cl.Net.NumNodes() - 1)
	}
	if int(victim) >= cl.Net.NumNodes() {
		return nil, fmt.Errorf("loadgen: victim %d outside %s", victim, cl.Net.Name())
	}

	res := &Result{Victim: victim, TopoName: cl.Net.Name(), TopoID: wire.TopoID(cl.Net.Name())}
	cl.Sim.OnDeliver(func(now eventq.Time, pk *packet.Packet) {
		if pk.DstNode != victim {
			return
		}
		res.Records = append(res.Records, wire.Record{
			T: now, Topo: res.TopoID, Victim: victim,
			MF: pk.Hdr.ID, Src: pk.Hdr.Src, Proto: pk.Hdr.Proto,
		})
		if now >= s.Warmup {
			res.AttackRecords++
		}
	})

	stop := s.Warmup + s.Attack
	bg := &attack.Background{
		Pattern: attack.Uniform, InjectionRate: s.Background,
		Start: 0, Stop: stop, R: cl.Rng.Stream("loadgen-bg"),
	}
	if err := bg.Launch(cl.Sim, cl.Net, cl.Plan); err != nil {
		return nil, err
	}

	zstream := cl.Rng.Stream("loadgen-zombies")
	zset := map[topology.NodeID]bool{}
	for len(zset) < s.Zombies {
		z := topology.NodeID(zstream.Intn(cl.Net.NumNodes()))
		if z != victim {
			zset[z] = true
		}
	}
	for z := range zset {
		res.Zombies = append(res.Zombies, z)
	}
	// Launch zombies in sorted node order: map iteration order would
	// leak into event tie-breaking and break scenario determinism.
	sortNodes(res.Zombies)
	var zs []attack.Zombie
	for _, z := range res.Zombies {
		zs = append(zs, attack.Zombie{
			Node: z, Victim: victim, Proto: packet.ProtoTCPSYN,
			Arrival: attack.CBR{Interval: s.AttackGap},
			Spoof:   attack.RandomSpoof{Plan: cl.Plan, R: cl.Rng.Stream(fmt.Sprintf("loadgen-spoof-%d", z))},
		})
	}
	flood := &attack.Flood{
		Zombies: zs, Start: s.Warmup, Stop: stop,
		RandomID: cl.Rng.Stream("loadgen-ids"),
	}
	if err := flood.Launch(cl.Sim, cl.Plan); err != nil {
		return nil, err
	}
	cl.Sim.RunAll(1 << 40)
	if len(res.Records) == 0 {
		return nil, fmt.Errorf("loadgen: scenario delivered nothing to victim %d", victim)
	}
	return res, nil
}

// sortNodes is an insertion sort — zombie sets are tiny and this
// avoids an import for one call.
func sortNodes(ns []topology.NodeID) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// Stream hands the result's records to send in delivery order, in
// batches of at most batchSize (default 1024). Send errors from a
// resilient exporter are advisory shed notices, so Stream keeps
// delivering the remaining batches either way — every record is
// offered exactly once — and returns the collected errors.
func (r *Result) Stream(send func([]wire.Record) error, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 1024
	}
	var errs []error
	for i := 0; i < len(r.Records); i += batchSize {
		end := min(i+batchSize, len(r.Records))
		if err := send(r.Records[i:end]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
