package victim

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/marking"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traceback"
)

type rig struct {
	net     topology.Network
	sim     *netsim.Network
	plan    *packet.AddrPlan
	svc     *Service
	clients *Clients
	ddpm    *marking.DDPM
}

func newRig(t *testing.T, capacity int) *rig {
	t.Helper()
	m := topology.NewMesh2D(6)
	d, err := marking.NewDDPM(m)
	if err != nil {
		t.Fatal(err)
	}
	r := routing.NewRouter(m, routing.NewMinimalAdaptive(m))
	r.Sel = routing.RandomSelector{R: rng.NewStream(1)}
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	sim, err := netsim.New(netsim.Config{Net: m, Router: r, Scheme: d, Plan: plan, QueueCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	svcNode := m.IndexOf(topology.Coord{5, 5})
	svc, err := NewService(sim, plan, svcNode, capacity, 2000)
	if err != nil {
		t.Fatal(err)
	}
	clients := NewClients(sim, plan, svcNode)
	sim.OnDeliver(func(now eventq.Time, pk *packet.Packet) {
		svc.HandleDeliver(now, pk)
		clients.HandleDeliver(now, pk)
	})
	return &rig{net: m, sim: sim, plan: plan, svc: svc, clients: clients, ddpm: d}
}

func TestHandshakeCompletesWithoutAttack(t *testing.T) {
	rg := newRig(t, 64)
	// Distinct client nodes: the reduced TCP model has no ports, so two
	// concurrent attempts from one node share a half-open entry.
	const N = 30
	for i := 0; i < N; i++ {
		node := topology.NodeID(i)
		if node == rg.svc.Node {
			continue
		}
		rg.clients.Connect(eventq.Time(i*20), node)
	}
	rg.sim.RunAll(100_000_000)
	if rg.svc.Established != rg.clients.Attempts {
		t.Errorf("established %d/%d without attack", rg.svc.Established, rg.clients.Attempts)
	}
	if rg.svc.Refused != 0 || rg.clients.Backscatter != 0 {
		t.Errorf("refused %d, backscatter %d on clean run", rg.svc.Refused, rg.clients.Backscatter)
	}
	if n := len(rg.svc.halfOpen); n != 0 {
		t.Errorf("half-open table not drained: %d", n)
	}
}

func TestSYNFloodDeniesServiceAndBackscatters(t *testing.T) {
	rg := newRig(t, 16) // small table: the flood pins it
	// Zombie floods with random spoofed sources.
	flood := &attack.Flood{
		Zombies: []attack.Zombie{{
			Node: topology.NodeID(0), Victim: rg.svc.Node,
			Arrival: attack.CBR{Interval: 2},
			Spoof:   attack.RandomSpoof{Plan: rg.plan, R: rng.NewStream(3)},
		}},
		Start: 0, Stop: 4000,
		RandomID: rng.NewStream(4),
	}
	if err := flood.Launch(rg.sim, rg.plan); err != nil {
		t.Fatal(err)
	}
	// Legit clients try during the flood.
	r := rng.NewStream(5)
	const N = 60
	for i := 0; i < N; i++ {
		node := topology.NodeID(1 + r.Intn(rg.net.NumNodes()-2))
		rg.clients.Connect(eventq.Time(500+i*50), node)
	}
	rg.sim.RunAll(500_000_000)

	if rg.svc.Refused == 0 {
		t.Error("flood never exhausted the half-open table")
	}
	if rg.svc.Established >= N {
		t.Errorf("all %d legit handshakes completed during the flood — no denial observed", N)
	}
	if rg.clients.Backscatter == 0 {
		t.Error("random spoofing produced no backscatter SYN-ACKs")
	}
}

func TestBlockingRestoresService(t *testing.T) {
	// The full paper story at service level: flood, identify with DDPM,
	// block at the service's front door, and the completion rate for
	// legitimate clients recovers.
	runPhase := func(withBlock bool) (established uint64, attempts int) {
		rg := newRig(t, 16)
		zombie := topology.NodeID(0)
		if withBlock {
			bl := filter.NewBlocklist(rg.ddpm, rg.svc.Node)
			bl.Block(zombie) // identified in the measurement phase below
			rg.svc.Blocklist = bl
		}
		flood := &attack.Flood{
			Zombies: []attack.Zombie{{
				Node: zombie, Victim: rg.svc.Node,
				Arrival: attack.CBR{Interval: 2},
				Spoof:   attack.RandomSpoof{Plan: rg.plan, R: rng.NewStream(6)},
			}},
			Start: 0, Stop: 4000,
			RandomID: rng.NewStream(7),
		}
		if err := flood.Launch(rg.sim, rg.plan); err != nil {
			t.Fatal(err)
		}
		r := rng.NewStream(8)
		const N = 60
		for i := 0; i < N; i++ {
			node := topology.NodeID(1 + r.Intn(rg.net.NumNodes()-2))
			rg.clients.Connect(eventq.Time(500+i*50), node)
		}
		rg.sim.RunAll(500_000_000)
		return rg.svc.Established, N
	}

	before, n := runPhase(false)
	after, _ := runPhase(true)
	if after != uint64(n) {
		t.Errorf("with blocking: %d/%d handshakes completed", after, n)
	}
	if before >= after {
		t.Errorf("blocking did not improve service: %d -> %d", before, after)
	}
}

func TestDDPMIdentifiesFloodAtServiceLevel(t *testing.T) {
	rg := newRig(t, 16)
	zombie := topology.NodeID(7)
	ident := traceback.NewDDPMIdentifier(rg.ddpm, rg.svc.Node)
	rg.sim.OnDeliver(func(now eventq.Time, pk *packet.Packet) {
		if pk.DstNode == rg.svc.Node {
			ident.Observe(pk)
		}
		rg.svc.HandleDeliver(now, pk)
		rg.clients.HandleDeliver(now, pk)
	})
	flood := &attack.Flood{
		Zombies: []attack.Zombie{{
			Node: zombie, Victim: rg.svc.Node,
			Arrival: attack.CBR{Interval: 3},
			Spoof:   attack.RandomSpoof{Plan: rg.plan, R: rng.NewStream(9)},
		}},
		Start: 0, Stop: 3000,
		RandomID: rng.NewStream(10),
	}
	if err := flood.Launch(rg.sim, rg.plan); err != nil {
		t.Fatal(err)
	}
	rg.sim.RunAll(500_000_000)
	srcs := ident.SourcesAbove(100)
	if len(srcs) != 1 || srcs[0] != zombie {
		t.Errorf("identified %v, want [%d]", srcs, zombie)
	}
}

func TestServiceValidation(t *testing.T) {
	rg := newRig(t, 4)
	if _, err := NewService(rg.sim, rg.plan, 0, 0, 10); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewService(rg.sim, rg.plan, 0, 4, 0); err == nil {
		t.Error("zero timeout accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("self-connect accepted")
		}
	}()
	rg.clients.Connect(0, rg.svc.Node)
}
