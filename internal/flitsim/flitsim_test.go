package flitsim

import (
	"testing"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

func newFabric(t *testing.T, net topology.Network, scheme marking.Scheme) (*Fabric, *packet.AddrPlan) {
	t.Helper()
	plan := packet.NewAddrPlan(packet.DefaultBase, net.NumNodes())
	f, err := New(Config{Net: net, Scheme: scheme, Plan: plan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f, plan
}

func TestSinglePacketDelivery(t *testing.T) {
	m := topology.NewMesh2D(4)
	f, plan := newFabric(t, m, nil)
	var delivered *packet.Packet
	f.OnDeliver(func(_ int64, pk *packet.Packet) { delivered = pk })
	pk := packet.NewPacket(plan, m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{3, 3}), packet.ProtoUDP, 64)
	f.Inject(pk)
	if !f.RunUntilDrained(10000) {
		t.Fatal("packet never drained")
	}
	if delivered == nil {
		t.Fatal("no delivery")
	}
	st := f.Stats()
	if st.Injected != 1 || st.Delivered != 1 {
		t.Errorf("stats %+v", st)
	}
	// 6 hops, ~7 flits: serialization + hops must both show up.
	if st.AvgLatency < 6 {
		t.Errorf("latency %v below hop count", st.AvgLatency)
	}
	if st.FlitHops == 0 {
		t.Error("no flit hops recorded")
	}
}

func TestManyPacketsConservationNoDeadlock(t *testing.T) {
	m := topology.NewMesh2D(4)
	f, plan := newFabric(t, m, nil)
	r := rng.NewStream(3)
	const N = 400
	for i := 0; i < N; i++ {
		src := topology.NodeID(r.Intn(m.NumNodes()))
		dst := topology.NodeID(r.Intn(m.NumNodes()))
		if src == dst {
			dst = (dst + 1) % topology.NodeID(m.NumNodes())
		}
		f.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 48))
	}
	if !f.RunUntilDrained(200000) {
		t.Fatalf("deadlock/livelock: %d packets stuck after 200k cycles", f.inFlight)
	}
	if st := f.Stats(); st.Delivered != N {
		t.Errorf("delivered %d/%d", st.Delivered, N)
	}
}

func TestHotspotStressStillDrains(t *testing.T) {
	// Everyone floods one node: worst-case tree contention exercises
	// the stall-release escape path.
	m := topology.NewMesh2D(4)
	f, plan := newFabric(t, m, nil)
	hot := m.IndexOf(topology.Coord{1, 2})
	for src := 0; src < m.NumNodes(); src++ {
		if topology.NodeID(src) == hot {
			continue
		}
		for k := 0; k < 10; k++ {
			f.Inject(packet.NewPacket(plan, topology.NodeID(src), hot, packet.ProtoTCPSYN, 32))
		}
	}
	if !f.RunUntilDrained(500000) {
		t.Fatalf("hotspot deadlock: %d stuck", f.inFlight)
	}
}

func TestDDPMThroughWormholeFabric(t *testing.T) {
	// The marking discipline must fire exactly once per hop even with
	// stall-induced re-allocation: DDPM identification is the witness.
	m := topology.NewMesh2D(8)
	d, err := marking.NewDDPM(m)
	if err != nil {
		t.Fatal(err)
	}
	f, plan := newFabric(t, m, d)
	type res struct{ claimed, actual topology.NodeID }
	var results []res
	f.OnDeliver(func(_ int64, pk *packet.Packet) {
		got, ok := d.IdentifySource(pk.DstNode, pk.Hdr.ID)
		if !ok {
			t.Errorf("undecodable MF")
			return
		}
		results = append(results, res{claimed: got, actual: pk.SrcNode})
	})
	r := rng.NewStream(4)
	for i := 0; i < 300; i++ {
		src := topology.NodeID(r.Intn(m.NumNodes()))
		dst := topology.NodeID(r.Intn(m.NumNodes()))
		if src == dst {
			continue
		}
		pk := packet.NewPacket(plan, src, dst, packet.ProtoTCPSYN, 40)
		pk.Hdr.ID = uint16(r.Intn(1 << 16)) // hostile preload
		pk.Spoof(plan.AddrOf(topology.NodeID(r.Intn(m.NumNodes()))))
		f.Inject(pk)
	}
	if !f.RunUntilDrained(500000) {
		t.Fatalf("%d packets stuck", f.inFlight)
	}
	if len(results) < 250 {
		t.Fatalf("only %d results", len(results))
	}
	for _, rr := range results {
		if rr.claimed != rr.actual {
			t.Fatalf("wormhole DDPM misidentified: claimed %d, actual %d", rr.claimed, rr.actual)
		}
	}
}

func TestHypercubeFabric(t *testing.T) {
	h := topology.NewHypercube(5)
	d, _ := marking.NewDDPM(h)
	f, plan := newFabric(t, h, d)
	correct := 0
	f.OnDeliver(func(_ int64, pk *packet.Packet) {
		if got, ok := d.IdentifySource(pk.DstNode, pk.Hdr.ID); ok && got == pk.SrcNode {
			correct++
		}
	})
	r := rng.NewStream(5)
	const N = 200
	for i := 0; i < N; i++ {
		src := topology.NodeID(r.Intn(h.NumNodes()))
		dst := topology.NodeID(r.Intn(h.NumNodes()))
		if src == dst {
			dst ^= 1
		}
		f.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 24))
	}
	if !f.RunUntilDrained(200000) {
		t.Fatal("hypercube fabric stuck")
	}
	if correct != N {
		t.Errorf("identified %d/%d", correct, N)
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	run := func(gap int) float64 {
		m := topology.NewMesh2D(4)
		plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
		f, err := New(Config{Net: m, Plan: plan, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.NewStream(6)
		// Inject uniform traffic every gap cycles per node for 2000
		// cycles, then drain.
		for cycle := 0; cycle < 2000; cycle += gap {
			for src := 0; src < m.NumNodes(); src++ {
				dst := topology.NodeID(r.Intn(m.NumNodes()))
				if dst == topology.NodeID(src) {
					continue
				}
				f.Inject(packet.NewPacket(plan, topology.NodeID(src), dst, packet.ProtoUDP, 32))
			}
			f.Run(gap)
		}
		if !f.RunUntilDrained(2_000_000) {
			t.Fatal("load test stuck")
		}
		return f.Stats().AvgLatency
	}
	light := run(100)
	heavy := run(8)
	if heavy <= light {
		t.Errorf("latency did not rise with load: light %v, heavy %v", light, heavy)
	}
}

func TestConfigValidation(t *testing.T) {
	m := topology.NewMesh2D(4)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	if _, err := New(Config{Plan: plan}); err == nil {
		t.Error("missing Net accepted")
	}
	if _, err := New(Config{Net: m}); err == nil {
		t.Error("missing Plan accepted")
	}
	tr := topology.NewTorus2D(4)
	trPlan := packet.NewAddrPlan(packet.DefaultBase, tr.NumNodes())
	f, err := New(Config{Net: tr, Plan: trPlan})
	if err != nil {
		t.Fatalf("torus fabric rejected: %v", err)
	}
	if f.vcs != 3 {
		t.Errorf("torus fabric has %d VCs, want 2 escape + 1 adaptive", f.vcs)
	}
}

func TestMultiFlitPacketsStayContiguous(t *testing.T) {
	// Large packets produce long worms; they still deliver and the tail
	// arrives after the head (latency reflects serialization).
	m := topology.NewMesh2D(4)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	f, err := New(Config{Net: m, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	pk := packet.NewPacket(plan, 0, 15, packet.ProtoUDP, 1024) // 67 flits
	f.Inject(pk)
	if !f.RunUntilDrained(100000) {
		t.Fatal("long worm stuck")
	}
	st := f.Stats()
	// 6 hops + ~66 serialization cycles minimum.
	if st.AvgLatency < 60 {
		t.Errorf("latency %v too small for a 67-flit worm", st.AvgLatency)
	}
}

func TestSelfDeliveryAtSourceSwitch(t *testing.T) {
	m := topology.NewMesh2D(4)
	f, plan := newFabric(t, m, nil)
	f.Inject(packet.NewPacket(plan, 5, 5, packet.ProtoUDP, 16))
	if !f.RunUntilDrained(1000) {
		t.Fatal("self packet stuck")
	}
	if f.Stats().Delivered != 1 {
		t.Error("self packet not delivered")
	}
}
