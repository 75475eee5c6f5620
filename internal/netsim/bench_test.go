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

// BenchmarkUniformLoad measures simulator throughput: events per second
// moving 1000 uniform packets through an 8×8 mesh.
func BenchmarkUniformLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := topology.NewMesh2D(8)
		r := routing.NewRouter(m, routing.NewMinimalAdaptive(m))
		r.Sel = routing.CongestionSelector{R: rng.NewStream(uint64(i))}
		plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
		n, err := New(Config{Net: m, Router: r, Plan: plan, QueueCap: 64})
		if err != nil {
			b.Fatal(err)
		}
		stream := rng.NewStream(uint64(i) + 99)
		for k := 0; k < 1000; k++ {
			src := topology.NodeID(stream.Intn(m.NumNodes()))
			dst := topology.NodeID(stream.Intn(m.NumNodes()))
			n.InjectAt(0, packet.NewPacket(plan, src, dst, packet.ProtoUDP, 32))
		}
		n.RunAll(10_000_000)
		if n.Stats().Delivered+n.Stats().DroppedTotal() != 1000 {
			b.Fatal("packets lost")
		}
	}
}

// BenchmarkAdaptiveTorus16 is the headline engine benchmark from the
// performance issue: a 16×16 torus under minimal-adaptive routing with
// the congestion selector and DDPM marking, moving 2000 uniform packets
// per iteration. It reports raw simulator throughput as events/sec.
func BenchmarkAdaptiveTorus16(b *testing.B) {
	tor := topology.NewTorus2D(16)
	d, err := marking.NewDDPM(tor)
	if err != nil {
		b.Fatal(err)
	}
	plan := packet.NewAddrPlan(packet.DefaultBase, tor.NumNodes())
	var fired uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routing.NewRouter(tor, routing.NewMinimalAdaptive(tor))
		r.Sel = routing.CongestionSelector{R: rng.NewStream(7)}
		n, err := New(Config{Net: tor, Router: r, Scheme: d, Plan: plan, QueueCap: 64})
		if err != nil {
			b.Fatal(err)
		}
		stream := rng.NewStream(uint64(i) + 1)
		for k := 0; k < 2000; k++ {
			src := topology.NodeID(stream.Intn(tor.NumNodes()))
			dst := topology.NodeID(stream.Intn(tor.NumNodes()))
			n.InjectAt(eventq.Time(k/8), packet.NewPacket(plan, src, dst, packet.ProtoUDP, 32))
		}
		fired += n.Q.Drain(10_000_000)
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkForwardHop measures the per-hop steady-state cost: one
// packet crossing an 8×8 mesh corner to corner (14 hops) under XY
// routing with DDPM marking. The headline number is allocs/op, which
// must be one — the packet itself; its 14 hops allocate nothing.
func BenchmarkForwardHop(b *testing.B) {
	m := topology.NewMesh2D(8)
	d, err := marking.NewDDPM(m)
	if err != nil {
		b.Fatal(err)
	}
	r := routing.NewRouter(m, routing.NewXY(m))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	n, err := New(Config{Net: m, Router: r, Scheme: d, Plan: plan, QueueCap: 64})
	if err != nil {
		b.Fatal(err)
	}
	src := m.IndexOf(topology.Coord{0, 0})
	dst := m.IndexOf(topology.Coord{7, 7})
	// Warm the event slab out of the measured region.
	n.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 32))
	n.RunAll(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Inject(packet.NewPacket(plan, src, dst, packet.ProtoUDP, 32))
		n.RunAll(1_000_000)
	}
	if got := n.Stats().Delivered; got != uint64(b.N)+1 {
		b.Fatalf("delivered %d of %d", got, b.N+1)
	}
	b.ReportMetric(14, "hops/op")
}

// BenchmarkFabricThroughput sweeps the three paper topologies at
// matched node counts, reporting delivered packets/sec of simulated
// fabric under uniform random traffic with adaptive routing + DDPM.
func BenchmarkFabricThroughput(b *testing.B) {
	cases := []struct {
		name string
		net  topology.Network
	}{
		{"mesh16x16", topology.NewMesh2D(16)},
		{"torus16x16", topology.NewTorus2D(16)},
		{"hypercube8", topology.NewHypercube(8)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			d, err := marking.NewDDPM(tc.net)
			if err != nil {
				b.Fatal(err)
			}
			plan := packet.NewAddrPlan(packet.DefaultBase, tc.net.NumNodes())
			var delivered uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := routing.NewRouter(tc.net, routing.NewMinimalAdaptive(tc.net))
				r.Sel = routing.CongestionSelector{R: rng.NewStream(7)}
				n, err := New(Config{Net: tc.net, Router: r, Scheme: d, Plan: plan, QueueCap: 64})
				if err != nil {
					b.Fatal(err)
				}
				stream := rng.NewStream(uint64(i) + 1)
				for k := 0; k < 1000; k++ {
					src := topology.NodeID(stream.Intn(tc.net.NumNodes()))
					dst := topology.NodeID(stream.Intn(tc.net.NumNodes()))
					n.InjectAt(eventq.Time(k/8), packet.NewPacket(plan, src, dst, packet.ProtoUDP, 32))
				}
				n.RunAll(10_000_000)
				delivered += n.Stats().Delivered
			}
			b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "pkts/sec")
		})
	}
}

// BenchmarkMarkedVsUnmarkedFabric isolates the per-packet scheme cost
// inside the event-driven fabric.
func BenchmarkMarkedVsUnmarkedFabric(b *testing.B) {
	for _, withDDPM := range []bool{false, true} {
		name := "none"
		if withDDPM {
			name = "ddpm"
		}
		b.Run(name, func(b *testing.B) {
			m := topology.NewMesh2D(8)
			var scheme marking.Scheme = marking.Nop{}
			if withDDPM {
				d, err := marking.NewDDPM(m)
				if err != nil {
					b.Fatal(err)
				}
				scheme = d
			}
			for i := 0; i < b.N; i++ {
				r := routing.NewRouter(m, routing.NewXY(m))
				plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
				n, err := New(Config{Net: m, Router: r, Scheme: scheme, Plan: plan, QueueCap: 512})
				if err != nil {
					b.Fatal(err)
				}
				src := m.IndexOf(topology.Coord{0, 0})
				dst := m.IndexOf(topology.Coord{7, 7})
				for k := 0; k < 200; k++ {
					n.InjectAt(0, packet.NewPacket(plan, src, dst, packet.ProtoTCPSYN, 32))
				}
				n.RunAll(10_000_000)
			}
		})
	}
}
