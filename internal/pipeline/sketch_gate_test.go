package pipeline

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/sketch"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestSketchGateAdmissionExactness: below-threshold destinations stay
// sketch-only; the destination that crosses the admission threshold
// materializes exact state and replays its buffered evidence, so its
// identification tallies equal a run with no gate at all.
func TestSketchGateAdmissionExactness(t *testing.T) {
	net := topology.NewTorus2D(4)
	p, err := New(Config{Net: net, Shards: 1, SketchAdmit: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	hot := topology.NodeID(15)
	s1, s2 := topology.NodeID(5), topology.NodeID(9)
	mf1 := mkMF(t, net, s1, hot)
	mf2 := mkMF(t, net, s2, hot)

	// Four records for the hot victim: 1-3 buffer sketch-side, the 4th
	// crosses the threshold and replays them.
	for i, mf := range []uint16{mf1, mf2, mf1, mf2} {
		submitWait(t, p, wire.Record{T: eventq.Time(i), Topo: p.TopoID(), Victim: hot, MF: mf})
	}
	// Background noise: two cold victims, two records each — never
	// enough to admit.
	for _, cold := range []topology.NodeID{3, 7} {
		cmf := mkMF(t, net, s1, cold)
		submitWait(t, p, wire.Record{T: 10, Topo: p.TopoID(), Victim: cold, MF: cmf})
		submitWait(t, p, wire.Record{T: 11, Topo: p.TopoID(), Victim: cold, MF: cmf})
	}
	// The hot victim keeps receiving on the exact path post-admission.
	for i := 0; i < 6; i++ {
		mf := mf1
		if i%2 == 1 {
			mf = mf2
		}
		submitWait(t, p, wire.Record{T: eventq.Time(20 + i), Topo: p.TopoID(), Victim: hot, MF: mf})
	}
	waitProcessed(t, p)

	if got := p.C.SketchSuppressed.Load(); got != 7 {
		t.Errorf("suppressed = %d, want 7 (3 hot pre-admission + 2x2 cold)", got)
	}
	if got := p.C.SketchReplayed.Load(); got != 3 {
		t.Errorf("replayed = %d, want 3", got)
	}
	if got := p.C.VictimsAdmitted.Load(); got != 1 {
		t.Errorf("victims admitted = %d, want 1", got)
	}
	// Identification lost nothing to the gate: every hot record —
	// replayed or direct — is tallied, exactly as an ungated run would.
	if got := p.C.Identified.Load(); got != 10 {
		t.Errorf("identified = %d, want 10", got)
	}
	if vs := p.Victims(); len(vs) != 1 || vs[0] != hot {
		t.Fatalf("Victims() = %v, want [%d] (cold victims must stay sketch-only)", vs, hot)
	}
	snap, ok := p.ExportVictim(hot)
	if !ok {
		t.Fatal("hot victim has no exact state")
	}
	want := map[int64]int64{int64(s1): 5, int64(s2): 5}
	if len(snap.Sources) != 2 {
		t.Fatalf("sources = %+v, want tallies %v", snap.Sources, want)
	}
	for _, sc := range snap.Sources {
		if want[sc.Node] != sc.Count {
			t.Errorf("source %d tally = %d, want %d", sc.Node, sc.Count, want[sc.Node])
		}
	}
	if got := p.Snapshot().VictimStates; got != 1 {
		t.Errorf("VictimStates = %d, want 1", got)
	}

	// A full gate (sketch.DefaultSlots slots, each holding a one-shot id
	// of a destination scan) before the victim's first record: that
	// record cannot win a slot (it is no hotter than they are), the
	// second can, and admission still replays both — the victim is not
	// tallied one short for good.
	wide := topology.NewTorus2D(32)
	p, err = New(Config{Net: wide, Shards: 1, SketchAdmit: 4})
	if err != nil {
		t.Fatal(err)
	}
	var scan, burst []wire.Record
	for v := topology.NodeID(0); len(scan) < sketch.DefaultSlots; v++ {
		if v != hot {
			scan = append(scan, wire.Record{Topo: p.TopoID(), Victim: v})
		}
	}
	for i := 0; i < 4; i++ {
		burst = append(burst, wire.Record{T: eventq.Time(i), Topo: p.TopoID(), Victim: hot, MF: mkMF(t, wide, s1, hot)})
	}
	submitSlabs(t, p, scan)
	submitSlabs(t, p, burst)
	p.Close()
	if snap, ok := p.ExportVictim(hot); !ok || snap.Identified() != 4 || p.C.SketchReplayed.Load() != 3 {
		t.Errorf("burst into a full gate: tally = %d (state %v), replayed = %d; want all 4 records, 3 of them replayed",
			snap.Identified(), ok, p.C.SketchReplayed.Load())
	}
}

// TestSketchGateDecayBeforeThreshold: a decay between a victim's first
// record and its crossing lets the slot's buffer fill first, so the
// crossing record is not in it. The replay is then the whole buffer —
// also when the crossing record equals the last buffered one, as
// back-to-back flood records do — and the tally is every record.
//
// The decay comes every sketch.DefaultDecayEvery gated records, so the
// stream, in full slabs, is built to put it on the hot victim's third
// record. Residents 0..511 take 20 records each and fill the table
// below the admission threshold of 32. Scan filler on every id above
// the hot victim, at most 16 records each, is no hotter than they are,
// so the full table turns it away. Resident 0 then crosses and frees its slot for the hot
// victim, whose count the decay halves from 2 to 1: its buffer is full
// at record 32 and the count crosses at record 33.
func TestSketchGateDecayBeforeThreshold(t *testing.T) {
	const admit, resident = 32, 20
	const crossing = admit + 1
	net := topology.NewHypercube(16)
	hot := topology.NodeID(sketch.DefaultSlots)
	for _, echo := range []bool{false, true} {
		p, err := New(Config{Net: net, Shards: 1, SketchAdmit: admit, BlockThreshold: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		rec := func(v topology.NodeID) wire.Record { return wire.Record{Topo: p.TopoID(), Victim: v} }
		var recs []wire.Record
		for v := topology.NodeID(0); v < hot; v++ {
			for i := 0; i < resident; i++ {
				recs = append(recs, rec(v))
			}
		}
		// Everything but resident 0's last admit−resident records and
		// the hot victim's first two is filler.
		filler := sketch.DefaultDecayEvery - 1 - len(recs) - (admit - resident) - 2
		for i := 0; i < filler; i++ {
			recs = append(recs, rec(hot+1+topology.NodeID(i%(net.NumNodes()-int(hot)-1))))
		}
		for i := resident; i < admit; i++ {
			recs = append(recs, rec(0))
		}
		submitSlabs(t, p, recs)
		quiesce(p)
		if got := p.C.VictimsAdmitted.Load(); got != 1 || p.Snapshot().SketchDecays != 0 {
			t.Fatalf("echo=%v: %d victims admitted before the hot one, want resident 0 alone and no decay yet", echo, got)
		}
		replayedBefore := p.C.SketchReplayed.Load()

		mf := mkMF(t, net, 0, hot)
		var burst []wire.Record
		for i := 1; i <= crossing; i++ {
			T := eventq.Time(i)
			if echo && i == crossing {
				T = admit // the last buffered record's
			}
			burst = append(burst, wire.Record{T: T, Topo: p.TopoID(), Victim: hot, MF: mf})
		}
		submitSlabs(t, p, burst)
		p.Close()

		if got := p.Snapshot().SketchDecays; got != 1 {
			t.Fatalf("echo=%v: decays = %d, want 1", echo, got)
		}
		if got := p.C.SketchReplayed.Load() - replayedBefore; got != admit {
			t.Errorf("echo=%v: replayed = %d, want the whole %d-record buffer", echo, got, admit)
		}
		if snap, _ := p.ExportVictim(hot); snap.Identified() != crossing {
			t.Errorf("echo=%v: tally = %d, want all %d records", echo, snap.Identified(), crossing)
		}
	}
}

// sweepAll queues on every shard the TTL sweep the real-time ticker
// sends, and returns once the workers have run it.
func sweepAll(p *Pipeline) {
	for _, s := range p.shards {
		s.ch <- batch{ctl: p.sweepShard}
	}
	quiesce(p)
}

// submitSlabs submits recs in full slabs, in order, pacing on the
// pool as a socket paces an exporter, and fails the test on shed.
func submitSlabs(t *testing.T, p *Pipeline, recs []wire.Record) {
	t.Helper()
	for off := 0; off < len(recs); off += wire.SlabCap {
		for p.SlabsOutstanding() >= 8 {
			runtime.Gosched()
		}
		s := p.GetSlab()
		for _, rec := range recs[off:min(off+wire.SlabCap, len(recs))] {
			s.Append(rec)
		}
		if n := min(wire.SlabCap, len(recs)-off); p.SubmitSlab(s) != n {
			t.Fatalf("slab at record %d shed", off)
		}
	}
}

// TestSketchAdmitNegativeRefused: the gate is the per-shard
// victim-state cap, so there is no ungated mode. A negative SketchAdmit
// once turned it off and let victim state grow without bound; New now
// refuses it.
func TestSketchAdmitNegativeRefused(t *testing.T) {
	p, err := New(Config{Net: topology.NewMesh2D(4), Shards: 1, SketchAdmit: -1})
	if err == nil || !strings.Contains(err.Error(), "SketchAdmit -1 is negative") {
		if p != nil {
			p.Close()
		}
		t.Fatalf("New with SketchAdmit -1: %v, want a refusal", err)
	}
}

// TestVictimStateBytesOnLargestFabric pins what the default victim
// bound costs on the paper's 16-cube: 2 048 states (4 shards × 512),
// each having heard 16 sources, hold at most 4 KB apiece — identifier,
// detectors and map entry. State sized by the fabric (8 bytes × 65 536
// nodes per victim, 1 GB at the bound) fails here by two orders of
// magnitude.
func TestVictimStateBytesOnLargestFabric(t *testing.T) {
	const victims, sources, each = 2048, 16, 4 << 10
	net := topology.NewHypercube(16)
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	p, err := New(Config{Net: net, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := live()
	for v := 0; v < victims; v++ {
		snap := VictimSnapshot{Victim: topology.NodeID(v * 31)}
		for s := 0; s < sources; s++ {
			snap.Sources = append(snap.Sources, SourceCount{Node: int64(v*31 ^ (1 + s*997)), Count: 3})
		}
		if !p.SeedVictim(snap) {
			t.Fatalf("seed %d rejected", v)
		}
	}
	quiesce(p)
	grew := live() - before
	if got := p.Snapshot().VictimStates; got != victims {
		t.Fatalf("VictimStates = %d, want %d", got, victims)
	}
	if snap, ok := p.ExportVictim(31); !ok || len(snap.Sources) != sources || snap.Identified() != 3*sources {
		t.Fatalf("victim 31 exported %+v (ok %v), want %d sources × 3", snap, ok, sources)
	}
	t.Logf("%d victim states hold %d bytes (%d each)", victims, grew, grew/victims)
	if grew > victims*each {
		t.Errorf("budget is %d bytes each", each)
	}
	p.Close()
}

// TestVictimTTLExpiryAndRematerialization: an idle victim's exact state
// is swept back to sketch-only — final snapshot to the journal and the
// expiry hook, blocklist entries intact — and renewed traffic rebuilds
// it through the admission gate without losing blocking.
func TestVictimTTLExpiryAndRematerialization(t *testing.T) {
	net := topology.NewTorus2D(4)
	victim := topology.NodeID(15)
	zombie := topology.NodeID(5)

	var buf bytes.Buffer
	j := NewJournal(&buf, 0)
	var clock atomic.Int64
	p, err := New(Config{
		Net: net, Shards: 2, QueueLen: 8192,
		CUSUMWindow: 100, CUSUMSlack: 2, CUSUMThreshold: 20,
		EntropyWindow:  -1,
		BlockThreshold: 50, BlockTTL: -1, // negative: blocks never lapse
		VictimTTL: time.Minute,
		Journal:   j,
		Now:       func() int64 { return clock.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var expired []VictimSnapshot
	p.SetVictimExpiredHook(func(snap VictimSnapshot) { expired = append(expired, snap) })

	zmf := mkMF(t, net, zombie, victim)
	lmf := mkMF(t, net, topology.NodeID(9), victim)
	// Quiet baseline windows, then a flood (same shape as the CUSUM
	// auto-block test).
	now := eventq.Time(0)
	for ; now < 500; now += 25 {
		submitWait(t, p, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: lmf})
	}
	for ; now < 2500; now++ {
		submitWait(t, p, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: zmf})
	}
	waitProcessed(t, p)
	if !p.Alarmed(victim) || !p.Blocklist().BlockedAt(zombie, clock.Load()) {
		t.Fatal("flood did not alarm and block")
	}
	if got := p.Snapshot().VictimStates; got != 1 {
		t.Fatalf("VictimStates = %d, want 1", got)
	}
	// The block carries the victim it protects (journal/gossip evidence).
	if ents := p.Blocklist().Snapshot(); len(ents) != 1 || ents[0].Victim != victim {
		t.Fatalf("blocklist = %+v, want one entry for victim %d", ents, victim)
	}

	// Idle past the TTL: one sweep retires the victim.
	clock.Add(2 * time.Minute.Nanoseconds())
	sweepAll(p)
	if got := p.C.VictimsExpired.Load(); got != 1 {
		t.Fatalf("victims expired = %d, want 1", got)
	}
	if len(expired) != 1 {
		t.Fatalf("expiry hook fired %d times, want 1", len(expired))
	}
	if snap := expired[0]; !snap.Expired || snap.Victim != victim ||
		snap.Identified() != 2020 || !snap.Alarmed {
		t.Fatalf("expiry snapshot mangled: %+v", snap)
	}
	if _, ok := p.ExportVictim(victim); ok {
		t.Fatal("exact state survived the sweep")
	}
	if got := p.Snapshot().VictimStates; got != 0 {
		t.Fatalf("VictimStates after sweep = %d, want 0", got)
	}
	// Expiry drops the detectors, never the verdict: the zombie stays
	// blocked (BlockTTL < 0 means permanent — the satellite-1 semantics).
	if !p.Blocklist().BlockedAt(zombie, clock.Load()+365*24*time.Hour.Nanoseconds()) {
		t.Fatal("permanent block lapsed after victim expiry")
	}

	// Renewed traffic re-materializes through the gate (default admit-
	// on-first); identification restarts while blocking holds.
	hitsBefore := p.C.BlockedHits.Load()
	for end := now + 10; now < end; now++ {
		submitWait(t, p, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: zmf})
	}
	waitProcessed(t, p)
	snap, ok := p.ExportVictim(victim)
	if !ok {
		t.Fatal("victim never re-materialized")
	}
	if snap.Identified() != 10 {
		t.Fatalf("re-materialized tally = %d, want a fresh 10", snap.Identified())
	}
	if got := p.C.VictimsAdmitted.Load(); got != 2 {
		t.Errorf("victims admitted = %d, want 2 (initial + re-admission)", got)
	}
	if p.C.BlockedHits.Load() <= hitsBefore {
		t.Error("renewed zombie traffic not dropped as blocked hits")
	}

	// The journal audit trail has the full arc: alarm, block, expiry.
	p.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var sawExpired bool
	for _, ev := range decodeEvents(t, buf.Bytes()) {
		if ev.Type != EventVictimExpired {
			continue
		}
		sawExpired = true
		if ev.Victim != int64(victim) || ev.Count != 2020 {
			t.Fatalf("victim_expired event mangled: %+v", ev)
		}
	}
	if !sawExpired {
		t.Fatal("no victim_expired event journaled")
	}
}

// TestSchemeUnbuildableCachedAtNew: a fabric past DDPM's 16-bit MF
// reach (a 256x256 torus needs 18) still builds a pipeline — records
// are counted, not fatal, and the construction failure is cached at New
// rather than retried per batch. With the flight recorder off
// (TraceBuffer < 0) too: the untraced records end no trace.
func TestSchemeUnbuildableCachedAtNew(t *testing.T) {
	net := topology.NewTorus2D(256)
	for _, buf := range []int{0, -1} {
		p, err := New(Config{Net: net, Shards: 1, TraceBuffer: buf})
		if err != nil {
			t.Fatalf("TraceBuffer %d: New must succeed on an unbuildable-scheme fabric: %v", buf, err)
		}
		for i := 0; i < 5; i++ {
			submitWait(t, p, wire.Record{T: eventq.Time(i), Topo: p.TopoID(), Victim: 100, MF: uint16(i)})
		}
		p.Close()
		if got := p.C.SchemeUnbuildable.Load(); got != 5 {
			t.Errorf("TraceBuffer %d: scheme unbuildable = %d, want 5", buf, got)
		}
		if got := p.C.Identified.Load() + p.C.Undecodable.Load(); got != 0 {
			t.Errorf("TraceBuffer %d: identified+undecodable = %d, want 0", buf, got)
		}
		if got := p.C.Processed.Load(); got != 5 {
			t.Errorf("TraceBuffer %d: processed = %d, want 5", buf, got)
		}
		if vs := p.Victims(); len(vs) != 0 {
			t.Errorf("TraceBuffer %d: Victims() = %v, want none", buf, vs)
		}
	}
}

// TestBlockTTLPermanentNegative: Config.BlockTTL adopts the blocklist
// convention — negative means permanent, zero means the 60s default.
func TestBlockTTLPermanentNegative(t *testing.T) {
	cfg := Config{Net: topology.NewMesh2D(4), BlockTTL: -1}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.BlockTTL >= 0 {
		t.Fatalf("negative BlockTTL rewritten to %v", cfg.BlockTTL)
	}
	cfg = Config{Net: topology.NewMesh2D(4)}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.BlockTTL != time.Minute {
		t.Fatalf("zero BlockTTL default = %v, want 1m", cfg.BlockTTL)
	}
	// filter-level convention the pipeline maps onto.
	if filter.Permanent != 0 {
		t.Fatalf("filter.Permanent = %d", filter.Permanent)
	}
}
