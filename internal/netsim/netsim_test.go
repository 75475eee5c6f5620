package netsim

import (
	"testing"

	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

func buildNet(t *testing.T, net topology.Network, alg routing.Algorithm, scheme marking.Scheme) *Network {
	t.Helper()
	r := routing.NewRouter(net, alg)
	r.Sel = routing.RandomSelector{R: rng.NewStream(42)}
	plan := packet.NewAddrPlan(packet.DefaultBase, net.NumNodes())
	n, err := New(Config{Net: net, Router: r, Scheme: scheme, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDeliverySingleHop(t *testing.T) {
	m := topology.NewMesh2D(4)
	n := buildNet(t, m, routing.NewXY(m), nil)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	var delivered *packet.Packet
	n.OnDeliver(func(_ eventq.Time, pk *packet.Packet) { delivered = pk })
	pk := packet.NewPacket(plan, 0, 1, packet.ProtoUDP, 64)
	n.Inject(pk)
	n.RunAll(1000)
	if delivered == nil {
		t.Fatal("packet not delivered")
	}
	if delivered.Hops != 1 {
		t.Errorf("Hops = %d, want 1", delivered.Hops)
	}
	st := n.Stats()
	if st.Injected != 1 || st.Delivered != 1 || st.DroppedTotal() != 0 {
		t.Errorf("stats = %+v", st)
	}
	// 1 service tick + 1 link latency tick.
	if st.AvgLatency() != 2 {
		t.Errorf("latency = %v, want 2", st.AvgLatency())
	}
}

func TestDeliveryToSelf(t *testing.T) {
	m := topology.NewMesh2D(4)
	n := buildNet(t, m, routing.NewXY(m), nil)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	count := 0
	n.OnDeliver(func(_ eventq.Time, pk *packet.Packet) { count++ })
	n.Inject(packet.NewPacket(plan, 3, 3, packet.ProtoUDP, 0))
	n.RunAll(100)
	if count != 1 {
		t.Errorf("self-delivery count = %d", count)
	}
}

func TestHopCountMatchesDistance(t *testing.T) {
	m := topology.NewMesh2D(8)
	n := buildNet(t, m, routing.NewMinimalAdaptive(m), nil)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	var got int
	n.OnDeliver(func(_ eventq.Time, pk *packet.Packet) { got = pk.Hops })
	src, dst := m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{7, 7})
	n.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 0))
	n.RunAll(10000)
	if got != m.MinDistance(src, dst) {
		t.Errorf("hops = %d, want %d", got, m.MinDistance(src, dst))
	}
}

func TestTTLExpiry(t *testing.T) {
	m := topology.NewMesh2D(8)
	n := buildNet(t, m, routing.NewXY(m), nil)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	pk := packet.NewPacket(plan, m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{7, 7}), packet.ProtoUDP, 0)
	pk.Hdr.TTL = 3 // path needs 14 hops
	n.Inject(pk)
	n.RunAll(10000)
	if d := n.Stats().Dropped; d[DropTTL] != 1 || len(d) != 1 {
		t.Errorf("drops = %v, want one ttl-expired", d)
	}
	if n.Stats().Delivered != 0 {
		t.Error("expired packet delivered")
	}
}

func TestNoRouteDrop(t *testing.T) {
	m := topology.NewMesh2D(4)
	n := buildNet(t, m, routing.NewXY(m), nil)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	// Fail XY's only way out of (0,0) toward (0,3).
	n.cfg.Router.State.Fail(m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{0, 1}))
	n.Inject(packet.NewPacket(plan, m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{0, 3}), packet.ProtoUDP, 0))
	n.RunAll(1000)
	if d := n.Stats().Dropped; d[DropNoRoute] != 1 || len(d) != 1 {
		t.Errorf("drops = %v, want one no-route", d)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	m := topology.NewMesh2D(4)
	r := routing.NewRouter(m, routing.NewXY(m))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	n, err := New(Config{Net: m, Router: r, Plan: plan, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Slam 50 packets into the same first link at t=0; capacity 2 and
	// unit service rate must shed most of them.
	src, dst := m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{0, 3})
	for i := 0; i < 50; i++ {
		n.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 0))
	}
	n.RunAll(100000)
	st := n.Stats()
	if st.Dropped[DropQueueFull] == 0 {
		t.Error("no queue-full drops despite 50-packet burst into cap-2 queue")
	}
	if st.Delivered+st.DroppedTotal() != 50 {
		t.Errorf("conservation violated: %d delivered + %d dropped != 50",
			st.Delivered, st.DroppedTotal())
	}
}

func TestPacketConservationUnderLoad(t *testing.T) {
	m := topology.NewTorus2D(4)
	n := buildNet(t, m, routing.NewMinimalAdaptive(m), nil)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	r := rng.NewStream(7)
	const N = 500
	for i := 0; i < N; i++ {
		src := topology.NodeID(r.Intn(m.NumNodes()))
		dst := topology.NodeID(r.Intn(m.NumNodes()))
		n.InjectAt(eventq.Time(r.Intn(100)), packet.NewPacket(plan, src, dst, packet.ProtoUDP, 0))
	}
	n.RunAll(1e6)
	st := n.Stats()
	if st.Injected != N {
		t.Errorf("Injected = %d", st.Injected)
	}
	if st.Delivered+st.DroppedTotal() != N {
		t.Errorf("conservation: %d + %d != %d", st.Delivered, st.DroppedTotal(), N)
	}
	if st.Delivered < N*9/10 {
		t.Errorf("only %d/%d delivered on a healthy lightly-loaded torus", st.Delivered, N)
	}
}

func TestMarkingHookOrderAndDDPMDelivery(t *testing.T) {
	// End-to-end: DDPM through the event-driven fabric identifies the
	// source of every delivered packet even with spoofed headers.
	m := topology.NewMesh2D(8)
	d, err := marking.NewDDPM(m)
	if err != nil {
		t.Fatal(err)
	}
	n := buildNet(t, m, routing.NewMinimalAdaptive(m), d)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	type result struct {
		claimed topology.NodeID
		actual  topology.NodeID
	}
	var results []result
	n.OnDeliver(func(_ eventq.Time, pk *packet.Packet) {
		id, ok := d.IdentifySource(pk.DstNode, pk.Hdr.ID)
		if !ok {
			t.Error("undecodable MF at victim")
			return
		}
		results = append(results, result{claimed: id, actual: pk.SrcNode})
	})
	r := rng.NewStream(13)
	for i := 0; i < 300; i++ {
		src := topology.NodeID(r.Intn(m.NumNodes()))
		dst := topology.NodeID(r.Intn(m.NumNodes()))
		pk := packet.NewPacket(plan, src, dst, packet.ProtoTCPSYN, 40)
		pk.Spoof(plan.AddrOf(topology.NodeID(r.Intn(m.NumNodes())))) // spoof at will
		pk.Hdr.ID = uint16(r.Intn(65536))                            // preload garbage
		n.InjectAt(eventq.Time(r.Intn(50)), pk)
	}
	n.RunAll(1e6)
	if len(results) < 250 {
		t.Fatalf("only %d delivered", len(results))
	}
	for _, res := range results {
		if res.claimed != res.actual {
			t.Fatalf("DDPM misidentified: claimed %d, actual %d", res.claimed, res.actual)
		}
	}
}

func TestCongestionOracleSeesQueues(t *testing.T) {
	m := topology.NewMesh2D(4)
	n := buildNet(t, m, routing.NewXY(m), nil)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	src, dst := m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{0, 3})
	for i := 0; i < 10; i++ {
		n.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 0))
	}
	// Step one event (the first injection processes and enqueues).
	// After all injections process, the out queue must be visible to
	// the oracle.
	n.Run(1)
	load := n.cfg.Router.State.Congestion(topology.Link{
		From: src, To: m.IndexOf(topology.Coord{0, 1}),
	})
	if load == 0 {
		t.Error("congestion oracle reports empty queue after burst")
	}
	n.RunAll(100000)
}

func TestConfigValidation(t *testing.T) {
	m := topology.NewMesh2D(4)
	r := routing.NewRouter(m, routing.NewXY(m))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	if _, err := New(Config{Router: r, Plan: plan}); err == nil {
		t.Error("missing Net accepted")
	}
	if _, err := New(Config{Net: m, Plan: plan}); err == nil {
		t.Error("missing Router accepted")
	}
	if _, err := New(Config{Net: m, Router: r}); err == nil {
		t.Error("missing Plan accepted")
	}
	wrongPlan := packet.NewAddrPlan(packet.DefaultBase, 4)
	if _, err := New(Config{Net: m, Router: r, Plan: wrongPlan}); err == nil {
		t.Error("plan/network size mismatch accepted")
	}
}

func TestInjectAtInvalidNodePanics(t *testing.T) {
	m := topology.NewMesh2D(4)
	n := buildNet(t, m, routing.NewXY(m), nil)
	defer func() {
		if recover() == nil {
			t.Error("invalid source node accepted")
		}
	}()
	n.Inject(&packet.Packet{SrcNode: 999, DstNode: 0})
}

func TestDropReasonStrings(t *testing.T) {
	for _, d := range []DropReason{DropNone, DropNoRoute, DropTTL, DropQueueFull, DropReason(9)} {
		if d.String() == "" {
			t.Error("empty DropReason string")
		}
	}
}

func TestAdaptiveSpreadsLoadAcrossPaths(t *testing.T) {
	// Congestion-aware adaptive routing should deliver a same-pair
	// burst faster than single-path XY because it uses both minimal
	// directions.
	run := func(alg func(topology.Network) routing.Algorithm, sel routing.Selector) eventq.Time {
		m := topology.NewMesh2D(4)
		r := routing.NewRouter(m, alg(m))
		r.Sel = sel
		plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
		n, _ := New(Config{Net: m, Router: r, Plan: plan, QueueCap: 1000})
		src, dst := m.IndexOf(topology.Coord{0, 0}), m.IndexOf(topology.Coord{3, 3})
		for i := 0; i < 60; i++ {
			n.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 0))
		}
		var last eventq.Time
		n.OnDeliver(func(now eventq.Time, _ *packet.Packet) { last = now })
		n.RunAll(1e6)
		if n.Stats().Delivered != 60 {
			t.Fatalf("delivered %d/60", n.Stats().Delivered)
		}
		return last
	}
	xyDone := run(func(n topology.Network) routing.Algorithm { return routing.NewXY(n) }, routing.FirstSelector{})
	adDone := run(func(n topology.Network) routing.Algorithm { return routing.NewMinimalAdaptive(n) },
		routing.CongestionSelector{R: rng.NewStream(3)})
	if adDone >= xyDone {
		t.Errorf("adaptive finished at %d, XY at %d; adaptive should be faster", adDone, xyDone)
	}
}
