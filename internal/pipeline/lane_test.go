package pipeline

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The trace lane must never change a decision: who is identified,
// alarmed and blocked is a function of the record stream alone. These
// helpers drain one stream through a fresh pipeline with or without
// contexts so tests (and FuzzSubmitSlabLaneEquivalence) can compare.

// laneState is everything about a drained pipeline that must not
// depend on whether its slabs carried a trace lane.
type laneState struct {
	Processed, Identified, Undecodable         uint64
	BlockedHits, Alarms, Blocks                uint64
	Suppressed, Replayed, Deferred, Admitted   uint64
	TopoMismatch, BadVictim, SchemeUnbuildable uint64
	Blocklist                                  []filter.BlockEntry
	Victims                                    []VictimSnapshot
}

// laneConfig is the configuration both lanes of a comparison share:
// a gate that admits on the 8th record, a CUSUM-only detector and a
// recorder that retains every trace.
func laneConfig(net topology.Network) Config {
	return Config{
		Net: net, Shards: 2, QueueLen: 1 << 12,
		SketchAdmit: 8,
		CUSUMWindow: 100, CUSUMSlack: 2, CUSUMThreshold: 20,
		EntropyWindow:  -1, // isolate CUSUM for determinism
		BlockThreshold: 50, BlockTTL: time.Hour,
		LatencySampleEvery: 4,
		TraceBuffer:        1 << 16, TraceSampleN: 1, TraceSlowThreshold: time.Hour,
	}
}

// laneBase is the fake clock's origin; contexts are stamped just
// before it so every send-to-block latency is positive.
const laneBase = int64(time.Second)

// runLane drains recs through a fresh pipeline in slabs of slabLen on a
// fake clock that ticks once per slab, quiescing the workers between
// slabs so both lanes see the same batch boundaries and clock. ctx, when non-nil,
// supplies record i's trace context (a zero ID appends it untraced).
// The pipeline is returned closed.
func runLane(t *testing.T, cfg Config, recs []wire.Record, slabLen int, ctx func(i int) wire.TraceContext) (*Pipeline, laneState) {
	t.Helper()
	var clock atomic.Int64
	clock.Store(laneBase)
	cfg.Now = clock.Load
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(recs); {
		s := p.GetSlab()
		for ; i < len(recs) && s.Len() < slabLen; i++ {
			if ctx != nil {
				if tc := ctx(i); tc.ID != 0 {
					s.AppendTraced(wire.TracedRecord{Record: recs[i], Ctx: tc})
					continue
				}
			}
			s.Append(recs[i])
		}
		p.SubmitSlab(s)
		quiesce(p)
		clock.Add(int64(time.Millisecond))
	}
	p.Close()
	if got := p.SlabsOutstanding(); got != 0 {
		t.Fatalf("slabs outstanding after drain = %d, want 0", got)
	}
	snap := p.Snapshot()
	st := laneState{
		Processed: snap.Processed, Identified: snap.Identified, Undecodable: snap.Undecodable,
		BlockedHits: snap.BlockedHits, Alarms: snap.Alarms, Blocks: snap.Blocks,
		Suppressed: snap.SketchSuppressed, Replayed: snap.SketchReplayed,
		Deferred: snap.SketchDeferred, Admitted: snap.VictimsAdmitted,
		TopoMismatch: snap.TopoMismatch, BadVictim: snap.BadVictim,
		SchemeUnbuildable: snap.SchemeUnbuildable,
		Blocklist:         p.Blocklist().Snapshot(),
	}
	for _, v := range p.Victims() {
		vs, _ := p.ExportVictim(v)
		st.Victims = append(st.Victims, vs)
	}
	return p, st
}

// quiesce returns once every worker has finished everything enqueued
// before the call: a control batch runs after the batches ahead of it.
// (waitProcessed is not enough here — Processed ticks when a worker
// picks a sub-batch up, not when it is done with it.)
func quiesce(p *Pipeline) {
	done := make(chan struct{}, len(p.shards))
	for _, s := range p.shards {
		s.ch <- batch{ctl: func(*shard) { done <- struct{}{} }}
	}
	for range p.shards {
		<-done
	}
}

// everyRecord stamps record i with a nonzero id and a send time just
// before the fake clock's origin.
func everyRecord(i int) wire.TraceContext {
	return wire.TraceContext{ID: uint64(i) + 1, Sent: laneBase - 1000}
}

// laneStream is a seeded two-victim campaign on an 8x8 mesh: a quiet
// baseline, then a flood from two zombies per victim (disjoint source
// sets, so cross-shard blocklist timing cannot matter), a cold victim
// that never clears the gate, one undecodable MF, and a tail of records
// for another fabric and for a victim outside this one.
func laneStream(t *testing.T, net topology.Network, topo uint32) (recs []wire.Record, zombies []topology.NodeID) {
	t.Helper()
	type campaign struct {
		victim, legit topology.NodeID
		zombies       [2]topology.NodeID
	}
	camps := []campaign{
		{victim: 21, legit: 5, zombies: [2]topology.NodeID{1, 2}},
		{victim: 42, legit: 60, zombies: [2]topology.NodeID{50, 51}},
	}
	for now := eventq.Time(0); now < 2500; now++ {
		for _, c := range camps {
			switch {
			case now < 500 && now%25 == 0:
				recs = append(recs, wire.Record{T: now, Topo: topo, Victim: c.victim, MF: mkMF(t, net, c.legit, c.victim)})
			case now >= 500:
				z := c.zombies[now%2]
				recs = append(recs, wire.Record{T: now, Topo: topo, Victim: c.victim, MF: mkMF(t, net, z, c.victim), Proto: 6})
			}
		}
		switch {
		case now%500 == 100: // five records in all: below the admission threshold
			recs = append(recs, wire.Record{T: now, Topo: topo, Victim: 7, MF: mkMF(t, net, 9, 7)})
		case now == 1000: // points far off an 8x8 mesh
			recs = append(recs, wire.Record{T: now, Topo: topo, Victim: 21, MF: 0x7F7F})
		}
	}
	recs = append(recs,
		wire.Record{T: 2500, Topo: topo + 1, Victim: 21},
		wire.Record{T: 2501, Topo: topo, Victim: 999},
		wire.Record{T: 2502, Topo: topo, Victim: -3},
	)
	for _, c := range camps {
		zombies = append(zombies, c.zombies[:]...)
	}
	return recs, zombies
}

// TestTraceLaneEquivalence: the same stream submitted as 1 024-record
// slabs with and without a trace lane must leave identical counters,
// blocklist and per-victim tallies — and on the traced run every
// context gets exactly one ending whose outcome agrees with the
// counters.
func TestTraceLaneEquivalence(t *testing.T) {
	net := topology.NewMesh2D(8)
	cfg := laneConfig(net)
	recs, zombies := laneStream(t, net, wire.TopoID(net.Name()))

	_, plain := runLane(t, cfg, recs, 1024, nil)
	p, traced := runLane(t, cfg, recs, 1024, everyRecord)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("the trace lane changed the outcome:\nuntraced %+v\ntraced   %+v", plain, traced)
	}

	// The stream exercised what it claims to.
	if plain.Alarms != 2 || plain.Blocks != 4 || len(plain.Blocklist) != 4 {
		t.Fatalf("alarms %d blocks %d blocklist %v, want 2 alarms and the 4 zombies blocked", plain.Alarms, plain.Blocks, plain.Blocklist)
	}
	for i, z := range zombies {
		if plain.Blocklist[i].Node != z {
			t.Errorf("blocklist %v, want exactly the zombies %v", plain.Blocklist, zombies)
			break
		}
	}
	if plain.Admitted != 2 || plain.Replayed != 14 || plain.Suppressed != 14+5 || plain.Deferred != 0 {
		t.Errorf("gate: admitted %d replayed %d suppressed %d deferred %d, want 2/14/19/0",
			plain.Admitted, plain.Replayed, plain.Suppressed, plain.Deferred)
	}
	if plain.Undecodable != 1 || plain.TopoMismatch != 1 || plain.BadVictim != 2 || plain.BlockedHits == 0 {
		t.Errorf("undecodable %d topo-mismatch %d bad-victim %d blocked-hits %d, want 1/1/2/>0",
			plain.Undecodable, plain.TopoMismatch, plain.BadVictim, plain.BlockedHits)
	}

	// One committed trace per context, and the endings add up.
	fr := p.Recorder()
	if got := fr.Observed(); got != uint64(len(recs)) {
		t.Fatalf("recorder observed %d traces for %d contexts", got, len(recs))
	}
	byOutcome := map[Outcome]uint64{}
	blockedBy := map[int64]int64{} // source → victim, from block traces
	for _, tr := range fr.Snapshot(AllTraces()) {
		byOutcome[tr.Outcome]++
		if tr.Outcome == OutcomeBlock {
			blockedBy[tr.Source] = tr.Victim
			if tr.Ingest < 0 || tr.Identify < 0 || tr.Detect < 0 || tr.Block < 0 {
				t.Errorf("block trace has unreached spans: %+v", tr)
			}
		}
	}
	for out, want := range map[Outcome]uint64{
		OutcomeBlock:       traced.Blocks,
		OutcomeAlarm:       traced.Alarms,
		OutcomeBlockedHit:  traced.BlockedHits,
		OutcomeSuppressed:  traced.Suppressed,
		OutcomeRejected:    traced.TopoMismatch + traced.BadVictim,
		OutcomeUndecodable: traced.Undecodable,
	} {
		if byOutcome[out] != want {
			t.Errorf("%d %v traces, counters say %d (all: %v)", byOutcome[out], out, want, byOutcome)
		}
	}
	for _, e := range traced.Blocklist {
		if v, ok := blockedBy[int64(e.Node)]; !ok || v != int64(e.Victim) {
			t.Errorf("block of %d for victim %d has no block trace naming them (traces: %v)", e.Node, e.Victim, blockedBy)
		}
	}
	if hist, _ := p.DetectionLatency(); hist == nil || uint64(hist.N()) != traced.Blocks {
		t.Errorf("detection latency samples = %v, want one per block (%d)", hist, traced.Blocks)
	}
}

// fuzzSlabLen keeps the fuzz target's slabs short, so a block one slab
// lands is a blocked hit in the next.
const fuzzSlabLen = 64

// fuzzLaneRecords decodes fuzz bytes into up to SlabCap records over a
// 4x4 mesh, four bytes each: victim (mod 18, so two values fall
// outside the fabric), the marking field, and a flags byte — bit 0 is
// the record's "has a trace context" coin, bit 1 addresses it to a
// foreign fabric, the high nibble advances the tick clock.
func fuzzLaneRecords(data []byte, topo uint32) (recs []wire.Record, coins []bool) {
	var now eventq.Time
	for ; len(data) >= 4 && len(recs) < wire.SlabCap; data = data[4:] {
		flags := data[3]
		now += eventq.Time(flags >> 4)
		rec := wire.Record{
			T: now, Topo: topo, Victim: topology.NodeID(data[0] % 18),
			MF: uint16(data[1])<<8 | uint16(data[2]),
		}
		if flags&2 != 0 {
			rec.Topo++
		}
		recs = append(recs, rec)
		coins = append(coins, flags&1 != 0)
	}
	return recs, coins
}

// FuzzSubmitSlabLaneEquivalence: for any run of slabs, and any subset
// of their records carrying trace contexts, the pipeline ends in the
// same state as for the bare records — counters, blocklist, per-victim
// tallies — with one trace committed per context and every slab back
// in the pool.
func FuzzSubmitSlabLaneEquivalence(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0x11}) // one traced record; testdata/fuzz holds the real seeds
	net := topology.NewMesh2D(4)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := laneConfig(net)
		// One shard: with two, a block landing on one shard while the
		// other prefilters the same slab is a race between workers, not
		// between lanes. Small tables keep each execution cheap.
		cfg.Shards, cfg.TraceBuffer = 1, 4096
		recs, coins := fuzzLaneRecords(data, wire.TopoID(net.Name()))
		contexts := uint64(0)
		for _, c := range coins {
			if c {
				contexts++
			}
		}
		_, plain := runLane(t, cfg, recs, fuzzSlabLen, nil)
		p, traced := runLane(t, cfg, recs, fuzzSlabLen, func(i int) wire.TraceContext {
			if !coins[i] {
				return wire.TraceContext{}
			}
			return everyRecord(i)
		})
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("the trace lane changed the outcome:\nuntraced %+v\ntraced   %+v", plain, traced)
		}
		if got := p.Recorder().Observed(); got != contexts {
			t.Fatalf("recorder observed %d traces for %d contexts", got, contexts)
		}
	})
}

// TestBlockTraceSkipsUntracedPrefix: a group that opens with untraced
// records of a zombie — a forward gate's replayed prefix rides the hop
// without contexts — followed by traced ones must still commit a block
// trace, on the zombie's first traced record of the deciding group.
func TestBlockTraceSkipsUntracedPrefix(t *testing.T) {
	net := topology.NewMesh2D(8)
	topo := wire.TopoID(net.Name())
	cfg := laneConfig(net)
	cfg.Shards, cfg.SketchAdmit = 1, -1
	const victim, legit, zombie, quiet, prefix = 21, 5, 1, 300, 63
	var recs []wire.Record
	for i := 0; i < quiet; i++ {
		recs = append(recs, wire.Record{T: eventq.Time(25 * i), Topo: topo, Victim: victim, MF: mkMF(t, net, legit, victim)})
	}
	for i := 0; i < quiet; i++ {
		recs = append(recs, wire.Record{T: eventq.Time(25*quiet + i), Topo: topo, Victim: victim, MF: mkMF(t, net, zombie, victim), Proto: 6})
	}
	// The quiet baseline is one slab, the flood another whose first
	// prefix records are untraced.
	p, st := runLane(t, cfg, recs, quiet, func(i int) wire.TraceContext {
		if i < quiet+prefix {
			return wire.TraceContext{}
		}
		return everyRecord(i)
	})
	if st.Blocks != 1 || len(st.Blocklist) != 1 || st.Blocklist[0].Node != zombie {
		t.Fatalf("blocks %d blocklist %v, want the zombie blocked once", st.Blocks, st.Blocklist)
	}
	f := AllTraces()
	f.Outcome, f.HasOut = OutcomeBlock, true
	got := p.Recorder().Snapshot(f)
	if len(got) != 1 || got[0].Source != zombie || got[0].ID != everyRecord(quiet+prefix).ID {
		t.Fatalf("block traces %+v, want one naming the zombie's first traced record (id %d)", got, everyRecord(quiet+prefix).ID)
	}
	if hist, _ := p.DetectionLatency(); hist == nil || hist.N() != 1 {
		t.Errorf("detection latency samples = %v, want the block's", hist)
	}
}
