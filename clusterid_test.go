package clusterid

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/packet"
	"repro/internal/rng"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	cl, err := New(Config{Topo: Mesh2D(8), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	victim := NodeID(cl.Net.NumNodes() - 1)
	mon, err := NewMonitor(cl, victim)
	if err != nil {
		t.Fatal(err)
	}
	cl.Sim.OnDeliver(mon.Deliver)

	// Warmup background traffic gives the detectors a baseline, then
	// the flood starts at t=2000.
	bg := &attack.Background{
		Pattern: attack.Uniform, InjectionRate: 0.002,
		Start: 0, Stop: 4000, R: rng.NewStream(9),
	}
	if err := bg.Launch(cl.Sim, cl.Net, cl.Plan); err != nil {
		t.Fatal(err)
	}
	attacker := NodeID(3)
	flood := &attack.Flood{
		Zombies: []attack.Zombie{{
			Node: attacker, Victim: victim,
			Arrival: attack.CBR{Interval: 2},
			Spoof:   attack.RandomSpoof{Plan: cl.Plan, R: rng.NewStream(1)},
		}},
		Start: 2000, Stop: 4000,
		RandomID: rng.NewStream(2),
	}
	if err := flood.Launch(cl.Sim, cl.Plan); err != nil {
		t.Fatal(err)
	}
	cl.Sim.RunAll(10_000_000)

	srcs := mon.IdentifiedSources(100)
	if len(srcs) != 1 || srcs[0] != attacker {
		t.Fatalf("identified %v, want [%d]", srcs, attacker)
	}
	if under, at := mon.UnderAttack(); !under || at == 0 {
		t.Error("SYN flood not detected")
	}
	acc, drop := mon.Counts()
	if acc == 0 || drop != 0 {
		t.Errorf("counts before blocking = %d/%d", acc, drop)
	}

	// Block and flood again: everything from the attacker drops.
	mon.BlockSources(srcs)
	flood2 := &attack.Flood{
		Zombies: []attack.Zombie{{
			Node: attacker, Victim: victim,
			Arrival: attack.CBR{Interval: 2},
			Spoof:   attack.RandomSpoof{Plan: cl.Plan, R: rng.NewStream(3)},
		}},
		Start: cl.Sim.Now(), Stop: cl.Sim.Now() + 1000,
		RandomID: rng.NewStream(4),
	}
	if err := flood2.Launch(cl.Sim, cl.Plan); err != nil {
		t.Fatal(err)
	}
	accBefore, _ := mon.Counts()
	cl.Sim.RunAll(10_000_000)
	accAfter, dropAfter := mon.Counts()
	if accAfter != accBefore {
		t.Errorf("attack packets accepted after blocking: %d", accAfter-accBefore)
	}
	if dropAfter == 0 {
		t.Error("nothing dropped after blocking")
	}
}

func TestMonitorValidation(t *testing.T) {
	cl, _ := New(Config{Topo: Mesh2D(4), Seed: 1})
	if _, err := NewMonitor(cl, 999); err == nil {
		t.Error("out-of-range victim accepted")
	}
	dpmCl, _ := New(Config{Topo: Mesh2D(4), Scheme: "dpm", Seed: 1})
	if _, err := NewMonitor(dpmCl, 0); err == nil {
		t.Error("monitor on non-DDPM cluster accepted")
	}
}

// A negative threshold means "every source heard from", not "every
// node": an idle monitor has identified nobody, and blocking what it
// returns must not blocklist the fabric.
func TestIdentifiedSourcesNegativeThreshold(t *testing.T) {
	cl, _ := New(Config{Topo: Mesh2D(4), Seed: 1})
	mon, err := NewMonitor(cl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if srcs := mon.IdentifiedSources(-1); len(srcs) != 0 {
		t.Fatalf("idle monitor identified %v", srcs)
	}
	mon.BlockSources(mon.IdentifiedSources(-1))
	if n := mon.Blocklist.Len(); n != 0 {
		t.Fatalf("idle monitor blocked %d nodes", n)
	}
	d, _ := DDPMOf(cl)
	pk := &Packet{DstNode: 1}
	d.OnInject(pk)
	d.OnForward(0, 1, pk) // (0,0) -> (0,1)
	mon.Deliver(0, pk)
	if srcs := mon.IdentifiedSources(-1); len(srcs) != 1 || srcs[0] != 0 {
		t.Fatalf("after one packet from node 0: identified %v, want [0]", srcs)
	}
}

func TestIdentifySourceHelper(t *testing.T) {
	cl, _ := New(Config{Topo: Mesh2D(4), Seed: 1})
	d, _ := DDPMOf(cl)
	pk := &Packet{}
	d.OnInject(pk)
	d.OnForward(0, 1, pk) // (0,0) -> (0,1)
	src, ok := IdentifySource(cl, 1, pk.Hdr.ID)
	if !ok || src != 0 {
		t.Errorf("IdentifySource = %d, %v", src, ok)
	}
	dpmCl, _ := New(Config{Topo: Mesh2D(4), Scheme: "dpm", Seed: 1})
	if _, ok := IdentifySource(dpmCl, 1, 0); ok {
		t.Error("IdentifySource on non-DDPM cluster succeeded")
	}
}

func TestFacadeEnumerations(t *testing.T) {
	if len(RoutingNames()) < 5 || len(SchemeNames()) < 5 {
		t.Error("enumerations too small")
	}
	rows, err := ScalabilityTable(3)
	if err != nil || len(rows) != 2 {
		t.Errorf("ScalabilityTable: %v, %v", rows, err)
	}
	if E1Analytic(0.04, 20) <= 0 {
		t.Error("E1Analytic non-positive")
	}
}

func TestIngressFilterFacade(t *testing.T) {
	cl, _ := New(Config{Topo: Mesh2D(4), Seed: 1})
	f := NewIngressFilter(cl)
	pk := packet.NewPacket(cl.Plan, 2, 5, packet.ProtoTCPSYN, 0)
	pk.Spoof(cl.Plan.AddrOf(7))
	if got := f.CheckInjection(2, pk); got.String() != "drop" {
		t.Errorf("spoofed injection verdict = %v", got)
	}
}

func TestSYNTableFacade(t *testing.T) {
	st := NewSYNTable(4, 100)
	plan := packet.NewAddrPlan(packet.DefaultBase, 16)
	for i := 0; i < 6; i++ {
		st.Observe(Time(i), packet.NewPacket(plan, NodeID(i), 1, packet.ProtoTCPSYN, 0))
	}
	if !st.Alarmed() {
		t.Error("facade SYN table did not alarm")
	}
}
