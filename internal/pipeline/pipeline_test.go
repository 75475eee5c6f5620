package pipeline

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// mkMF encodes the MF an intact DDPM walk from src to victim
// accumulates: the displacement vector D − S, packed with the codec
// DDPM picks for net.
func mkMF(t testing.TB, net topology.Network, src, victim topology.NodeID) uint16 {
	t.Helper()
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		t.Fatal(err)
	}
	sc, dc := net.CoordOf(src), net.CoordOf(victim)
	v := make(topology.Vector, len(sc))
	for i := range v {
		v[i] = dc[i] - sc[i]
	}
	mf, err := scheme.Codec().Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

func TestSubmitValidation(t *testing.T) {
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if submit(p, wire.Record{Topo: 12345, Victim: 0}) {
		t.Error("foreign topo id accepted")
	}
	if submit(p, wire.Record{Topo: p.TopoID(), Victim: 99}) {
		t.Error("out-of-range victim accepted")
	}
	if submit(p, wire.Record{Topo: p.TopoID(), Victim: -2}) {
		t.Error("negative victim accepted")
	}
	if !submit(p, wire.Record{Topo: p.TopoID(), Victim: 5, MF: 0}) {
		t.Error("valid record rejected")
	}
	if got := p.C.TopoMismatch.Load(); got != 1 {
		t.Errorf("topo mismatches = %d, want 1", got)
	}
	if got := p.C.BadVictim.Load(); got != 2 {
		t.Errorf("bad victims = %d, want 2", got)
	}
	if got := p.C.Ingested.Load(); got != 4 {
		t.Errorf("ingested = %d, want 4", got)
	}
}

func TestBackpressureDropsInsteadOfBlocking(t *testing.T) {
	net := topology.NewMesh2D(4)
	gate := make(chan struct{})
	var released atomic.Bool
	p, err := New(Config{
		Net: net, Shards: 1, QueueLen: 4,
		Now: func() int64 {
			if !released.Load() {
				<-gate // stall the worker inside its victim group
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := wire.Record{Topo: p.TopoID(), Victim: 3}
	// One record enters the worker and stalls on the clock; QueueLen
	// more fill the queue. Wait until the worker has picked one up.
	submit(p, rec)
	deadline := time.Now().Add(5 * time.Second)
	for p.C.Processed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first record")
		}
		time.Sleep(time.Millisecond)
	}
	accepted := 0
	for i := 0; i < 4; i++ {
		if submit(p, rec) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("queue accepted %d records, want 4", accepted)
	}
	// Queue is now full: further submits must shed, not block.
	done := make(chan bool)
	go func() { done <- submit(p, rec) }()
	select {
	case ok := <-done:
		if ok {
			t.Error("submit to a full queue reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit blocked on a full shard queue")
	}
	if got := p.C.Dropped.Load(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	released.Store(true)
	close(gate)
	p.Close()
	if got := p.C.Processed.Load(); got != 5 {
		t.Errorf("processed = %d after drain, want 5", got)
	}
	// Submit after Close is rejected and counted apart from load shed:
	// Dropped stays a pure backpressure signal.
	if submit(p, rec) {
		t.Error("submit after Close reported success")
	}
	if got := p.C.RejectedClosed.Load(); got != 1 {
		t.Errorf("rejected-closed = %d, want 1", got)
	}
	if got := p.C.Dropped.Load(); got != 1 {
		t.Errorf("dropped = %d after post-Close submit, want still 1", got)
	}
}

// submit offers one record as a single-record slab — the shape of a
// record-at-a-time caller — and reports whether it was enqueued.
func submit(p *Pipeline, rec wire.Record) bool {
	s := p.GetSlab()
	s.Append(rec)
	return p.SubmitSlab(s) == 1
}

// submitWait submits and fails the test on shed — these tests size
// queues so nothing legitimate is dropped.
func submitWait(t *testing.T, p *Pipeline, rec wire.Record) {
	t.Helper()
	if !submit(p, rec) {
		t.Fatalf("record shed unexpectedly: %+v", rec)
	}
}

func TestAutoBlockWithTTLDecay(t *testing.T) {
	net := topology.NewTorus2D(4)
	victim := topology.NodeID(15)
	zombie := topology.NodeID(5)
	legit := topology.NodeID(9)

	var clock atomic.Int64
	p, err := New(Config{
		Net: net, Shards: 2, QueueLen: 8192,
		CUSUMWindow: 100, CUSUMSlack: 2, CUSUMThreshold: 20,
		EntropyWindow:  -1, // isolate CUSUM for determinism
		BlockThreshold: 50, BlockTTL: time.Second,
		Now: func() int64 { return clock.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	zmf := mkMF(t, net, zombie, victim)
	lmf := mkMF(t, net, legit, victim)

	// Quiet baseline windows: a trickle from the legitimate peer.
	now := eventq.Time(0)
	for ; now < 500; now += 25 {
		submitWait(t, p, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: lmf})
	}
	// Flood: 1 record/tick from the zombie.
	for ; now < 2500; now++ {
		submitWait(t, p, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: zmf})
	}
	waitProcessed(t, p)

	if !p.Alarmed(victim) {
		t.Fatal("CUSUM never alarmed on the flood")
	}
	if p.C.Alarms.Load() != 1 {
		t.Errorf("alarms = %d, want 1", p.C.Alarms.Load())
	}
	if !p.Blocklist().BlockedAt(zombie, clock.Load()) {
		t.Fatal("zombie not auto-blocked")
	}
	if p.Blocklist().BlockedAt(legit, clock.Load()) {
		t.Error("legitimate peer blocked (tally below threshold)")
	}
	if p.C.BlockedHits.Load() == 0 {
		t.Error("no records were dropped as blocked — block landed after the stream?")
	}
	// Identification kept tallying behind the block: the daemon's
	// answer matches what an offline identifier sees.
	if got := p.SourcesAbove(victim, 50); len(got) != 1 || got[0] != zombie {
		t.Fatalf("SourcesAbove = %v, want [%d]", got, zombie)
	}
	if top := p.TopSources(victim, 1); len(top) != 1 || top[0] != zombie {
		t.Fatalf("TopSources = %v, want [%d]", top, zombie)
	}

	// TTL decay: advance the clock past the TTL; the block lapses with
	// no reaper involved, and Snapshot prunes it from ActiveBlocks.
	if snap := p.Snapshot(); snap.ActiveBlocks != 1 {
		t.Fatalf("active blocks = %d, want 1", snap.ActiveBlocks)
	}
	clock.Add(2 * time.Second.Nanoseconds())
	if p.Blocklist().BlockedAt(zombie, clock.Load()) {
		t.Fatal("block survived past its TTL")
	}
	if snap := p.Snapshot(); snap.ActiveBlocks != 0 {
		t.Fatalf("active blocks after TTL = %d, want 0", snap.ActiveBlocks)
	}
	// With the detector still alarmed, fresh flood traffic re-blocks.
	before := p.C.Blocks.Load()
	for end := now + 10; now < end; now++ {
		submitWait(t, p, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: zmf})
	}
	waitProcessed(t, p)
	if p.C.Blocks.Load() <= before {
		t.Error("lapsed block never re-established under continued flood")
	}
	if !p.Blocklist().BlockedAt(zombie, clock.Load()) {
		t.Error("zombie unblocked despite continued flood")
	}
}

func TestUndecodableRecordsAreCountedNotFatal(t *testing.T) {
	// On a mesh, an MF pointing off the fabric decodes to no node.
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 0x7F7F decodes to a displacement far outside a 4x4 mesh.
	submitWait(t, p, wire.Record{T: 1, Topo: p.TopoID(), Victim: 0, MF: 0x7F7F})
	submitWait(t, p, wire.Record{T: 2, Topo: p.TopoID(), Victim: 0, MF: mkMF(t, net, 5, 0)})
	p.Close()
	if got := p.C.Undecodable.Load(); got != 1 {
		t.Errorf("undecodable = %d, want 1", got)
	}
	if got := p.C.Identified.Load(); got != 1 {
		t.Errorf("identified = %d, want 1", got)
	}
}

// waitProcessed blocks until every ingested-and-queued record has been
// consumed and its sub-batch finished (queues empty is not enough: the
// last record may still be in the worker; Processed is not either: it
// ticks when a worker picks a sub-batch up, the other counters when the
// worker is done with it — hence the quiesce).
func waitProcessed(t *testing.T, p *Pipeline) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		queued := p.C.Ingested.Load() - p.C.Dropped.Load() - p.C.RejectedClosed.Load() -
			p.C.TopoMismatch.Load() - p.C.BadVictim.Load()
		if p.C.Processed.Load() == queued {
			quiesce(p)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline stuck: processed %d of %d", p.C.Processed.Load(), queued)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestVictimsSortedAcrossShards(t *testing.T) {
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Victims land in different shards (id % 3) in scrambled order; the
	// listing must come back sorted by node id regardless.
	for _, v := range []topology.NodeID{14, 3, 9, 0, 7} {
		submitWait(t, p, wire.Record{T: 1, Topo: p.TopoID(), Victim: v, MF: 0})
	}
	p.Close()
	got := p.Victims()
	want := []topology.NodeID{0, 3, 7, 9, 14}
	if len(got) != len(want) {
		t.Fatalf("Victims() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Victims() = %v, want %v (unsorted at %d)", got, want, i)
		}
	}
}

func TestAdminQueryClamps(t *testing.T) {
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := topology.NodeID(0)
	submitWait(t, p, wire.Record{T: 1, Topo: p.TopoID(), Victim: victim, MF: mkMF(t, net, 5, victim)})
	p.Close()

	top := func(k int) int { return len(p.TopSources(victim, k)) }
	above := func(th int64) int { return len(p.SourcesAbove(victim, th)) }
	cases := []struct {
		name string
		got  int
		want int
	}{
		// Non-positive k and negative thresholds are admin-plane inputs
		// (?k=, CLI flags); they must clamp to empty, never panic or
		// select the whole universe.
		{"TopSources k=0", top(0), 0},
		{"TopSources k=-3", top(-3), 0},
		{"TopSources k=1", top(1), 1},
		{"SourcesAbove threshold=-1", above(-1), 0},
		{"SourcesAbove threshold=0", above(0), 1},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: %d sources, want %d", c.name, c.got, c.want)
		}
	}
	// Unknown victims stay empty under every input.
	if p.TopSources(99, 5) != nil || p.SourcesAbove(99, 0) != nil {
		t.Error("unknown victim returned sources")
	}
	if p.AlarmLatched(99) {
		t.Error("unknown victim reports a latched alarm")
	}
	// A huge k asks for "all of them"; it must not size anything.
	if huge, all := p.VictimReports(1<<40), p.VictimReports(p.NumNodes()); !reflect.DeepEqual(huge, all) ||
		len(huge) != 1 || len(huge[0].TopSources) != 1 {
		t.Errorf("VictimReports(1<<40) = %+v, want the rows of VictimReports(NumNodes) = %+v", huge, all)
	}
}

func TestSnapshotDerivedAcceptedAndShardCounters(t *testing.T) {
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	submitWait(t, p, wire.Record{T: 1, Topo: p.TopoID(), Victim: 1, MF: 0})
	submitWait(t, p, wire.Record{T: 2, Topo: p.TopoID(), Victim: 2, MF: 0})
	submitWait(t, p, wire.Record{T: 3, Topo: p.TopoID(), Victim: 2, MF: 0x7F7F}) // undecodable
	submit(p, wire.Record{T: 4, Topo: 12345, Victim: 1})                         // topo mismatch
	submit(p, wire.Record{T: 5, Topo: p.TopoID(), Victim: 99})                   // bad victim
	p.Close()
	submit(p, wire.Record{T: 6, Topo: p.TopoID(), Victim: 1}) // rejected: closed

	s := p.Snapshot()
	if s.Ingested != 6 || s.Accepted != 3 {
		t.Errorf("ingested=%d accepted=%d, want 6 and 3", s.Ingested, s.Accepted)
	}
	if s.TopoMismatch != 1 || s.BadVictim != 1 || s.RejectedClosed != 1 {
		t.Errorf("rejections = %+v, want one of each kind", s)
	}
	if len(s.ShardProcessed) != 2 || len(s.ShardIdentified) != 2 || len(s.ShardDropped) != 2 {
		t.Fatalf("per-shard slices sized %d/%d/%d, want 2 each",
			len(s.ShardProcessed), len(s.ShardIdentified), len(s.ShardDropped))
	}
	// Victim 1 -> shard 1, victim 2 (twice) -> shard 0; workers flushed
	// at exit so the published counters are exact.
	if s.ShardProcessed[0] != 2 || s.ShardProcessed[1] != 1 {
		t.Errorf("ShardProcessed = %v, want [2 1]", s.ShardProcessed)
	}
	if s.ShardIdentified[0] != 1 || s.ShardIdentified[1] != 1 {
		t.Errorf("ShardIdentified = %v, want [1 1]", s.ShardIdentified)
	}
	var sum uint64
	for _, v := range s.ShardProcessed {
		sum += v
	}
	if sum != s.Processed {
		t.Errorf("shard processed sum %d != global %d", sum, s.Processed)
	}
}

// TestDetectGroupMatchesPerRecord: pass B's batch calls set the alarm
// latch at the same record, naming the same detectors, as feeding both
// detectors record by record and reading them after each — over seeded
// groups with blocked hits (which skip the detectors) and undecodable
// records (which do not), with and without the entropy detector.
func TestDetectGroupMatchesPerRecord(t *testing.T) {
	var kinds [4]int // by cuA | enA<<1
	for seed := uint64(1); seed <= 80; seed++ {
		r := rng.NewStream(seed)
		mk := func() *victimState {
			st := &victimState{cusum: detect.NewCUSUM(100, 4, 40)}
			if seed%4 != 0 {
				st.entropy = detect.NewEntropyDetector(100, 1.5)
			}
			return st
		}
		st, ref := mk(), mk()
		s := &shard{ts: make([]eventq.Time, 0, wire.SlabCap), addrs: make([]packet.Addr, 0, wire.SlabCap)}
		quiet, gap, spoof := eventq.Time(400+r.Intn(800)), 2+r.Intn(5), r.Intn(3)
		var pk packet.Packet
		var now eventq.Time
		for now < quiet+2000 {
			group, srcs := make([]wire.Record, 1+r.Intn(300)), []int32(nil)
			for i := range group {
				src := packet.Addr(1 + r.Intn(6))
				if now < quiet {
					now += eventq.Time(r.Intn(40))
				} else {
					now += eventq.Time(r.Intn(gap))
					if spoof == 0 {
						src = packet.Addr(r.Uint64())
					} else if spoof == 1 {
						src = 99
					}
				}
				group[i] = wire.Record{T: now, Src: src}
				switch r.Intn(16) {
				case 0, 1:
					srcs = append(srcs, srcBlocked-int32(r.Intn(64)))
				case 2:
					srcs = append(srcs, -1)
				default:
					srcs = append(srcs, int32(r.Intn(64)))
				}
			}
			wantK, wantCu, wantEn := -1, false, false
			for k := range group {
				if srcs[k] <= srcBlocked {
					continue
				}
				pk.Hdr.Src = group[k].Src
				ref.cusum.Observe(group[k].T, &pk)
				enAlarmed := false
				if ref.entropy != nil {
					ref.entropy.Observe(group[k].T, &pk)
					enAlarmed = ref.entropy.Alarmed()
				}
				if !ref.alarmed && wantK < 0 && (ref.cusum.Alarmed() || enAlarmed) {
					wantK, wantCu, wantEn = k, ref.cusum.Alarmed(), enAlarmed
				}
			}
			ref.alarmed = ref.alarmed || wantK >= 0
			k, cuA, enA := s.detectGroup(st, group, srcs)
			if k != wantK || cuA != wantCu || enA != wantEn {
				t.Fatalf("seed %d, group of %d at tick %d: alarm at %d (cusum %v, entropy %v), per record %d (%v, %v)",
					seed, len(group), now, k, cuA, enA, wantK, wantCu, wantEn)
			}
			if k >= 0 {
				st.alarmed = true
				kinds[boolBit(cuA)|boolBit(enA)<<1]++
			}
		}
		if st.cusum.AlarmedAt() != ref.cusum.AlarmedAt() || (st.entropy != nil && st.entropy.AlarmedAt() != ref.entropy.AlarmedAt()) {
			t.Fatalf("seed %d: alarm instants differ", seed)
		}
	}
	if kinds[1] == 0 || kinds[2] == 0 || kinds[3] == 0 {
		t.Fatalf("alarms by detector (cusum, entropy, both) = %v: the seeds must reach every kind", kinds[1:])
	}
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
