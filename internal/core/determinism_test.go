package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/eventq"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// The whole experiment harness is seeded: identical seeds must yield
// bit-identical outcomes across runs, or regression comparisons and
// golden numbers in EXPERIMENTS.md are meaningless. These tests pin the
// property on the most stateful paths.

func TestE5Deterministic(t *testing.T) {
	cfg := E5Config{
		Topo: Torus2D(8), Zombies: 3, Seed: 99,
		AttackGap: 4, Background: 0.002,
		WarmupTicks: 1000, AttackTicks: 1500, AfterTicks: 1000,
	}
	a, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("E5 not deterministic:\n  %+v\n  %+v", a, b)
	}
}

func TestE2Deterministic(t *testing.T) {
	a, err := RunE2(Mesh2D(8), "minimal-adaptive", 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunE2(Mesh2D(8), "minimal-adaptive", 10, 5)
	if a != b {
		t.Errorf("E2 not deterministic:\n  %+v\n  %+v", a, b)
	}
}

func TestE6Deterministic(t *testing.T) {
	a, err := RunE6(Mesh2D(8), "fully-adaptive", 0.1, 200, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunE6(Mesh2D(8), "fully-adaptive", 0.1, 200, 13)
	if a != b {
		t.Errorf("E6 not deterministic:\n  %+v\n  %+v", a, b)
	}
}

// runSeededTrace builds a fresh seeded cluster, drives a congested
// workload through adaptive routing with DDPM, and returns the fabric
// stats plus a byte trace capturing every delivery's (Seq, marking
// field, claimed source, delivery time). Byte-level comparison of two
// such traces pins the engine's event ordering and sequence assignment
// at once; a dropped packet is missing from the trace and counted in
// the stats' Dropped.
func runSeededTrace(t *testing.T, seed uint64) (netsim.Stats, []byte) {
	t.Helper()
	cl, err := Build(Config{
		Topo: Torus2D(8), Routing: "fully-adaptive",
		Scheme: "ddpm", MisrouteBudget: 2, QueueCap: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	rec := func(v uint64) { binary.Write(&trace, binary.LittleEndian, v) }
	cl.Sim.OnDeliver(func(now eventq.Time, pk *packet.Packet) {
		rec(pk.Seq)
		rec(uint64(pk.Hdr.ID))
		rec(uint64(pk.Hdr.Src))
		rec(uint64(now))
	})
	r := cl.Rng.Stream("traffic")
	n := cl.Net.NumNodes()
	for i := 0; i < 600; i++ {
		src := topology.NodeID(r.Intn(n))
		dst := topology.NodeID(r.Intn(n))
		if i%2 == 0 {
			dst = 0 // hotspot: force congestion, drops and misrouting
		}
		pk := packet.NewPacket(cl.Plan, src, dst, packet.ProtoUDP, 0)
		if i%5 == 0 {
			pk.Spoof(packet.Addr(r.Uint64()))
		}
		cl.Sim.InjectAt(eventq.Time(i/32), pk)
	}
	cl.Sim.RunAll(10_000_000)
	return cl.Sim.Stats(), trace.Bytes()
}

func TestEngineStatsAndMarkingTraceBitIdentical(t *testing.T) {
	// Two runs of the same seeded experiment on the rewritten engine
	// must agree byte-for-byte: identical Stats (delivered, dropped by
	// reason, hops, misroutes, latency sums) and an identical delivery
	// trace of (Seq, DDPM marking field, header source, time). This
	// guards the event freelist — a nextSeq or slot-reuse bug shows up
	// here before anything else.
	sa, ta := runSeededTrace(t, 42)
	sb, tb := runSeededTrace(t, 42)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("stats differ between identical runs:\n  %+v\n  %+v", sa, sb)
	}
	if !bytes.Equal(ta, tb) {
		t.Errorf("delivery/marking traces differ between identical runs (len %d vs %d)", len(ta), len(tb))
	}
	if sa.Delivered == 0 || sa.DroppedTotal() == 0 {
		t.Errorf("workload too gentle to pin determinism: %+v", sa)
	}
	// And a different seed must actually change the trace.
	_, tc := runSeededTrace(t, 43)
	if bytes.Equal(ta, tc) {
		t.Error("different seeds produced identical traces")
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, err := RunE6(Mesh2D(8), "fully-adaptive", 0.1, 200, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunE6(Mesh2D(8), "fully-adaptive", 0.1, 200, 14)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different seeds produced identical E6 rows — seeding is not wired through")
	}
}
