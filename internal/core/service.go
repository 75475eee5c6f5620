package core

import (
	"fmt"
	"slices"

	"repro/internal/attack"
	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/victim"
)

// ---------------------------------------------------------------------
// E7 — service-level denial and recovery: a TCP-like server with a
// bounded half-open table under a spoofed SYN flood. Measures the
// fraction of legitimate handshakes that complete (a) with no attack,
// (b) under attack, (c) under attack with DDPM-identified sources
// blocked at the server's front door — plus the backscatter the
// spoofing sprays across innocent nodes.
// ---------------------------------------------------------------------

// E7Row is one phase's outcome.
type E7Row struct {
	Phase       string // "clean", "attack", "blocked"
	Attempts    uint64
	Established uint64
	Refused     uint64
	Blocked     uint64
	Backscatter uint64
}

// CompletionRate returns established/attempts.
func (r E7Row) CompletionRate() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Established) / float64(r.Attempts)
}

// E7Config parameterizes the experiment. The server's half-open table
// holds e7TableCap entries, and e7Clients handshakes are spread over an
// e7Window-tick window.
type E7Config struct {
	Topo      TopoSpec
	Zombies   int
	AttackGap eventq.Time // default 2
	Seed      uint64
}

const (
	e7TableCap             = 16
	e7Clients              = 40
	e7Window   eventq.Time = 4000
)

// RunE7 executes the three phases with identical seeds and client
// schedules, differing only in the flood and the blocklist.
func RunE7(cfg E7Config) ([]E7Row, error) {
	if cfg.AttackGap <= 0 {
		cfg.AttackGap = 2
	}

	runPhase := func(phase string) (E7Row, error) {
		cl, err := Build(Config{Topo: cfg.Topo, Scheme: "ddpm", Seed: cfg.Seed, QueueCap: 512})
		if err != nil {
			return E7Row{}, err
		}
		d, _ := cl.DDPM()
		svcNode := topology.NodeID(cl.Net.NumNodes() - 1)
		svc, err := victim.NewService(cl.Sim, cl.Plan, svcNode, e7TableCap, e7Window/2)
		if err != nil {
			return E7Row{}, err
		}
		clients := victim.NewClients(cl.Sim, cl.Plan, svcNode)
		cl.Sim.OnDeliver(func(now eventq.Time, pk *packet.Packet) {
			svc.HandleDeliver(now, pk)
			clients.HandleDeliver(now, pk)
		})

		zombies, err := DrawZombies(cl.Rng.Stream("zombies").Intn, cl.Net.NumNodes(), svcNode, cfg.Zombies)
		if err != nil {
			return E7Row{}, err
		}
		if phase == "blocked" {
			bl := filter.NewBlocklist(d, svcNode)
			for _, z := range zombies {
				bl.Block(z)
			}
			svc.Blocklist = bl
		}
		if phase != "clean" {
			var zs []attack.Zombie
			for _, z := range zombies {
				zs = append(zs, attack.Zombie{
					Node: z, Victim: svcNode, Proto: packet.ProtoTCPSYN,
					Arrival: attack.CBR{Interval: cfg.AttackGap},
					Spoof:   attack.RandomSpoof{Plan: cl.Plan, R: cl.Rng.Stream(fmt.Sprintf("spoof%d", z))},
				})
			}
			flood := &attack.Flood{Zombies: zs, Start: 0, Stop: e7Window,
				RandomID: cl.Rng.Stream("ids")}
			if err := flood.Launch(cl.Sim, cl.Plan); err != nil {
				return E7Row{}, err
			}
		}

		// Identical client schedule across phases.
		cstream := cl.Rng.Stream("clients")
		const gap = e7Window / (e7Clients + 1)
		for i := 0; i < e7Clients; i++ {
			node := topology.NodeID(cstream.Intn(cl.Net.NumNodes()))
			if node == svcNode || slices.Contains(zombies, node) {
				continue
			}
			clients.Connect(eventq.Time(i+1)*gap, node)
		}
		cl.Sim.RunAll(2_000_000_000)
		return E7Row{
			Phase:       phase,
			Attempts:    clients.Attempts,
			Established: svc.Established,
			Refused:     svc.Refused,
			Blocked:     svc.Blocked,
			Backscatter: clients.Backscatter,
		}, nil
	}

	var out []E7Row
	for _, phase := range []string{"clean", "attack", "blocked"} {
		row, err := runPhase(phase)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}
