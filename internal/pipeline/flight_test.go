package pipeline

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// mkBoring builds a fast identified trace — the kind tail sampling is
// allowed to throw away.
func mkBoring(id uint64) Trace {
	return Trace{
		ID: id, Start: 1000, Victim: 5, Source: 7, Shard: 0,
		Outcome: OutcomeIdentified,
		Wire:    100, Ingest: 200, Identify: 300, Detect: 400, Block: 500,
	}
}

// keptOf takes the retention decision for already built traces, as
// the trace lane takes it before building them: one reserve claims the
// boring traces' sampler ticks, and the kept traces move to the front
// of ts, in order.
func keptOf(r *FlightRecorder, ts []Trace) []Trace {
	nb := 0
	for i := range ts {
		if !ts[i].Interesting(r.slowNS) {
			nb++
		}
	}
	sm := r.reserve(nb)
	kept := ts[:0]
	for i := range ts {
		if ts[i].Interesting(r.slowNS) || sm.keep() {
			kept = append(kept, ts[i])
		}
	}
	return kept
}

// offer decides retention for ts, commits the kept traces and returns
// how many it kept.
func offer(r *FlightRecorder, ts []Trace) int {
	kept := keptOf(r, ts)
	r.Commit(kept)
	return len(kept)
}

// commitOne offers one trace to r and reports whether it was retained.
func commitOne(r *FlightRecorder, t Trace) bool { return offer(r, []Trace{t}) == 1 }

func TestFlightRecorderDisabledIsNil(t *testing.T) {
	if r := NewFlightRecorder(0, 64, 0); r != nil {
		t.Fatalf("size 0 should disable the recorder, got %+v", r)
	}
	if r := NewFlightRecorder(-1, 64, 0); r != nil {
		t.Fatal("negative size should disable the recorder")
	}
}

func TestTailSamplingAlwaysRetainsInterestingOutcomes(t *testing.T) {
	// sampleN enormous: retention below can only come from the
	// outcome-based "interesting" rule.
	r := NewFlightRecorder(64, 1<<30, time.Hour)
	interesting := []Outcome{
		OutcomeAlarm, OutcomeBlock, OutcomeDrop, OutcomeRejected, OutcomeResync,
		OutcomeForwarded, OutcomeRingChange, OutcomeGossip, OutcomeHandback,
		OutcomeTakeover, OutcomeGateAdmit,
	}
	for _, out := range interesting {
		tr := mkBoring(uint64(out) + 1)
		tr.Outcome = out
		if !commitOne(r, tr) {
			t.Errorf("outcome %v not retained", out)
		}
	}
	// A blocked hit is as boring as an identified record: the blocklist
	// decided it earlier, and ddpmd_blocked_hits_total counts it.
	for _, out := range []Outcome{OutcomeIdentified, OutcomeUndecodable, OutcomeSuppressed, OutcomeBlockedHit} {
		tr := mkBoring(uint64(out) + 100)
		tr.Outcome = out
		if commitOne(r, tr) {
			t.Errorf("boring outcome %v retained despite 1-in-2^30 sampling", out)
		}
	}
	if got := r.Retained(); got != uint64(len(interesting)) {
		t.Fatalf("retained %d, want %d", got, len(interesting))
	}
	if got := r.Sampled(); got != 0 {
		t.Fatalf("sampler retained %d traces; outcome rule should have caught them all", got)
	}
	// Every one is still in the (large enough) ring.
	f := AllTraces()
	for _, out := range interesting {
		if f.ID = uint64(out) + 1; len(r.Snapshot(f)) != 1 {
			t.Errorf("retained trace for outcome %v not findable", out)
		}
	}
}

func TestTailSamplingKeepsOneInNBoring(t *testing.T) {
	const n = 8
	r := NewFlightRecorder(64, n, time.Hour)
	kept := 0
	for i := 1; i <= 3*n; i++ {
		tr := mkBoring(uint64(i))
		if commitOne(r, tr) {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d of %d boring traces, want exactly 1 in %d", kept, 3*n, n)
	}
	if got := r.Sampled(); got != 3 {
		t.Fatalf("Sampled() = %d, want 3", got)
	}
	if got := r.Observed(); got != 3*n {
		t.Fatalf("Observed() = %d, want %d", got, 3*n)
	}
}

func TestTailSamplingRetainsSlowSpans(t *testing.T) {
	slow := 10 * time.Millisecond
	r := NewFlightRecorder(64, 1<<30, slow)

	at := mkBoring(1) // all spans well under the threshold
	if commitOne(r, at) {
		t.Fatal("fast boring trace retained despite 1-in-2^30 sampling")
	}
	over := mkBoring(2)
	over.Detect = slow.Nanoseconds() + 1
	if !commitOne(r, over) {
		t.Fatal("trace with a span over the threshold not retained")
	}
	exact := mkBoring(3)
	exact.Detect = slow.Nanoseconds() // boundary: not strictly over
	if commitOne(r, exact) {
		t.Fatal("span exactly at the threshold should not count as slow")
	}

	// The slow gate reads daemon-side spans only: Wire and Forward cross
	// hosts' clocks, and an exporter skewed past the threshold must not
	// make every trace slow.
	skewed := mkBoring(5)
	skewed.Wire, skewed.Forward = 10*slow.Nanoseconds(), 10*slow.Nanoseconds()
	if commitOne(r, skewed) {
		t.Fatal("trace with fast daemon spans kept for its cross-host spans")
	}

	// Threshold <= 0 disables the slow rule entirely.
	r2 := NewFlightRecorder(64, 1<<30, 0)
	huge := mkBoring(4)
	huge.Identify = int64(time.Hour)
	if commitOne(r2, huge) {
		t.Fatal("slow rule fired with a zero threshold")
	}
}

func TestRingEvictionAndSnapshotOrder(t *testing.T) {
	// sampleN 1: keep everything. Boring traces fill the samples' share:
	// 4 of the 5 slots.
	r := NewFlightRecorder(5, 1, time.Hour)
	for i := 1; i <= 6; i++ {
		tr := mkBoring(uint64(i))
		if !commitOne(r, tr) {
			t.Fatalf("sampleN 1 must retain every trace (i=%d)", i)
		}
	}
	if got := r.Evicted(); got != 2 {
		t.Fatalf("Evicted() = %d, want 2", got)
	}
	got := r.Snapshot(AllTraces())
	want := []uint64{6, 5, 4, 3} // newest first, oldest two evicted
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d traces, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, got[i].ID, id)
		}
	}
	f := AllTraces()
	f.ID = 1
	if len(r.Snapshot(f)) != 0 {
		t.Error("evicted trace still findable")
	}
}

func TestSnapshotFilters(t *testing.T) {
	r := NewFlightRecorder(16, 1, time.Hour)
	commit := func(id uint64, victim, source int64, out Outcome) {
		tr := mkBoring(id)
		tr.Victim, tr.Source, tr.Outcome = victim, source, out
		commitOne(r, tr)
	}
	commit(1, 5, 7, OutcomeIdentified)
	commit(2, 5, 7, OutcomeBlock)
	commit(3, 9, -1, OutcomeUndecodable)
	commit(4, -1, -1, OutcomeResync) // stream-level event

	ids := func(f TraceFilter) []uint64 {
		var out []uint64
		for _, tr := range r.Snapshot(f) {
			out = append(out, tr.ID)
		}
		return out
	}
	eq := func(got, want []uint64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	if got := ids(AllTraces()); !eq(got, []uint64{4, 3, 2, 1}) {
		t.Errorf("AllTraces = %v", got)
	}
	f := AllTraces()
	f.Victim = 5
	if got := ids(f); !eq(got, []uint64{2, 1}) {
		t.Errorf("victim=5: %v", got)
	}
	// -1 is a real victim value (stream-level events), not a wildcard.
	f = AllTraces()
	f.Victim = -1
	if got := ids(f); !eq(got, []uint64{4}) {
		t.Errorf("victim=-1: %v", got)
	}
	f = AllTraces()
	f.Source = 7
	if got := ids(f); !eq(got, []uint64{2, 1}) {
		t.Errorf("source=7: %v", got)
	}
	f = AllTraces()
	f.Outcome, f.HasOut = OutcomeBlock, true
	if got := ids(f); !eq(got, []uint64{2}) {
		t.Errorf("outcome=block: %v", got)
	}
	f = AllTraces()
	f.ID = 3
	if got := ids(f); !eq(got, []uint64{3}) {
		t.Errorf("id=3: %v", got)
	}
	f = AllTraces()
	f.Limit = 2
	if got := ids(f); !eq(got, []uint64{4, 3}) {
		t.Errorf("limit=2: %v", got)
	}
	f = AllTraces()
	f.ID = 99
	if got := ids(f); len(got) != 0 {
		t.Errorf("id=99 matched %v, nothing committed", got)
	}
}

func TestCommitEventSyntheticIDs(t *testing.T) {
	r := NewFlightRecorder(16, 1<<30, time.Hour)
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		id := r.MintEventID(42)
		r.CommitEventWithID(id, OutcomeResync, 12345, -1)
		if id&(1<<63) == 0 {
			t.Fatalf("synthetic id %016x missing the top bit", id)
		}
		if seen[id] {
			t.Fatalf("synthetic id %016x repeated", id)
		}
		seen[id] = true
		f := AllTraces()
		f.ID = id
		got := r.Snapshot(f)
		if len(got) != 1 {
			t.Fatalf("stream event %016x not retained", id)
		}
		tr := got[0]
		if tr.Outcome != OutcomeResync || tr.Victim != -1 || tr.Shard != -1 {
			t.Fatalf("stream event trace malformed: %+v", tr)
		}
		if tr.Wire != SpanMissing || tr.Block != SpanMissing {
			t.Fatalf("stream event should have no spans: %+v", tr)
		}
	}
}

func TestOutcomeStringRoundTrip(t *testing.T) {
	for o := Outcome(0); o < numOutcomes; o++ {
		got, ok := OutcomeFromString(o.String())
		if !ok || got != o {
			t.Errorf("outcome %d -> %q -> %v, %v", o, o.String(), got, ok)
		}
	}
	if _, ok := OutcomeFromString("nope"); ok {
		t.Error("unknown outcome name resolved")
	}
	if s := Outcome(200).String(); s != "outcome(200)" {
		t.Errorf("out-of-range outcome renders %q", s)
	}
}

// laneLikeTraces is a seeded stream shaped like the trace lane's: runs
// of 1–8 traces sharing their spans (one victim group's), mixed
// outcomes, some spans unreached and some over the recorder's 1 µs
// slow threshold, spans drawn from few values so bins collide across
// runs.
func laneLikeTraces(seed uint64, n int) []Trace {
	r := rng.NewStream(seed)
	outs := [...]Outcome{OutcomeIdentified, OutcomeIdentified, OutcomeUndecodable, OutcomeSuppressed, OutcomeBlockedHit, OutcomeBlock}
	vals := [...]int64{SpanMissing, 0, 100, 700, 5000}
	var spans [4]int64
	ts := make([]Trace, n)
	for i := range ts {
		if i == 0 || r.Uint64()%4 == 0 {
			for k := range spans {
				spans[k] = vals[r.Uint64()%uint64(len(vals))]
			}
		}
		ts[i] = Trace{
			ID: seed<<32 | uint64(i+1), Victim: 5, Source: 7,
			Outcome: outs[r.Uint64()%uint64(len(outs))],
			Wire:    SpanMissing, Forward: SpanMissing,
			Ingest: spans[0], Identify: spans[1], Detect: spans[2], Block: spans[3],
		}
	}
	return ts
}

// commitInBatches offers ts to commit in seeded batches of 1–200,
// copied so commit may reorder them, and returns every batch's
// retained prefix in order.
func commitInBatches(seed uint64, ts []Trace, commit func([]Trace) int) (kept []Trace) {
	r := rng.NewStream(seed ^ 0x5eed)
	for i := 0; i < len(ts); {
		k := min(1+int(r.Uint64()%200), len(ts)-i)
		b := append([]Trace(nil), ts[i:i+k]...)
		kept = append(kept, b[:commit(b)]...)
		i += k
	}
	return kept
}

// TestBatchCommitMatchesSequential: committing a stream in batches
// leaves the ring, every counter and the retained set exactly as
// committing it one trace at a time does.
func TestBatchCommitMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		ts := laneLikeTraces(seed, 3000)
		one := NewFlightRecorder(256, 3, time.Microsecond)
		var want []Trace
		for _, tr := range ts {
			if commitOne(one, tr) {
				want = append(want, tr)
			}
		}
		batched := NewFlightRecorder(256, 3, time.Microsecond)
		got := commitInBatches(seed, ts, func(b []Trace) int { return offer(batched, b) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: batches retained %d traces, one at a time %d (or in another order)", seed, len(got), len(want))
		}
		if !reflect.DeepEqual(batched.Snapshot(AllTraces()), one.Snapshot(AllTraces())) {
			t.Fatalf("seed %d: ring order differs", seed)
		}
		// Each share evicts what overflows it: 64 slots for decisions, 192
		// for the rest.
		var decisions uint64
		for _, tr := range want {
			if tr.Outcome.decision() {
				decisions++
			}
		}
		n := uint64(len(want))
		evicted := decisions - 64 + n - decisions - 192
		if one.Observed() != uint64(len(ts)) || one.Retained() != n || one.Evicted() != evicted {
			t.Fatalf("seed %d: observed %d retained %d evicted %d, want %d, %d and %d",
				seed, one.Observed(), one.Retained(), one.Evicted(), len(ts), n, evicted)
		}
		for _, c := range [...]struct {
			name     string
			got, one uint64
		}{
			{"Observed", batched.Observed(), one.Observed()},
			{"Retained", batched.Retained(), one.Retained()},
			{"Sampled", batched.Sampled(), one.Sampled()},
			{"Evicted", batched.Evicted(), one.Evicted()},
		} {
			if c.got != c.one {
				t.Errorf("seed %d: %s %d batched, %d one at a time", seed, c.name, c.got, c.one)
			}
		}
	}
}

// TestCommitTracesStampsLikeEveryTrace: commitTraces skips a stage's
// exemplar while the next retained trace's span is the same, and the
// table it leaves must equal the one stamping every retained trace
// leaves.
func TestCommitTracesStampsLikeEveryTrace(t *testing.T) {
	newP := func() *Pipeline {
		p := &Pipeline{fr: NewFlightRecorder(1<<12, 3, time.Microsecond), sampleOn: true}
		for i := range p.lat {
			p.lat[i].hist = stats.NewAtomicHistogram(latLo, latHi, latBins, 1)
		}
		return p
	}
	for seed := uint64(1); seed <= 20; seed++ {
		ts := laneLikeTraces(seed, 3000)
		each := newP()
		for _, tr := range ts {
			if !commitOne(each.fr, tr) {
				continue
			}
			for stage, ns := range [numStages]int64{tr.Ingest, tr.Identify, tr.Detect, tr.Block} {
				if ns >= 0 {
					each.lat[stage].hist.SetExemplar(stats.Log2NS(ns), tr.ID)
				}
			}
		}
		batched := newP()
		commitInBatches(seed, ts, func(b []Trace) int {
			batched.commitTraces(keptOf(batched.fr, b))
			return 0
		})
		for stage := range batched.lat {
			for bin := 0; bin < latBins; bin++ {
				gid, gx := batched.lat[stage].hist.Exemplar(bin)
				wid, wx := each.lat[stage].hist.Exemplar(bin)
				if gid != wid || gx != wx {
					t.Fatalf("seed %d stage %d bin %d: exemplar %d (%g), stamping every trace leaves %d (%g)", seed, stage, bin, gid, gx, wid, wx)
				}
			}
		}
	}
}

// TestDecisionsOutliveSamples: one block trace, then a shed traced
// slab of 1 024 records (every one a kept drop ending, as SubmitSlab
// builds them when a shard queue is full) and 13 600 sampled traces —
// about 100 ms of flood_traced at 1 in 64 — and the block is still
// there, the oldest trace of a snapshot that stays newest first.
func TestDecisionsOutliveSamples(t *testing.T) {
	p, err := New(Config{Net: topology.NewMesh2D(4), Shards: 1, TraceBuffer: 4096, TraceSampleN: 1, TraceSlowThreshold: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := p.Recorder()
	block := mkBoring(1)
	block.Outcome = OutcomeBlock
	r.Commit([]Trace{block})
	const shed, samples = 1024, 13600
	recs := make([]wire.Record, shed)
	ctxs := make([]wire.TraceContext, shed)
	for i := range ctxs {
		ctxs[i].ID = uint64(i + 2)
	}
	p.commitTraces(p.traceEnded(nil, recs, ctxs, 1000, -1, SpanMissing, OutcomeDrop))
	for i := 0; i < samples; i++ {
		if !commitOne(r, mkBoring(uint64(shed+i+2))) {
			t.Fatal("1-in-1 sampling dropped a trace")
		}
	}
	f := AllTraces()
	f.ID = 1
	if got := r.Snapshot(f); len(got) != 1 || got[0].Outcome != OutcomeBlock {
		t.Fatalf("block trace evicted by the shed slab and samples: %+v", got)
	}
	all := r.Snapshot(AllTraces())
	if len(all) != 1+4096-4096/4 || all[0].ID != shed+samples+1 || all[len(all)-1].ID != 1 {
		t.Fatalf("snapshot of %d traces from id %d to %d, want %d from %d to the block", len(all), all[0].ID, all[len(all)-1].ID, 1+4096-4096/4, shed+samples+1)
	}
	for i := 1; i < len(all)-1; i++ {
		if all[i].ID != all[i-1].ID-1 {
			t.Fatalf("snapshot not newest first at %d: %d after %d", i, all[i].ID, all[i-1].ID)
		}
	}
	if got, want := r.Evicted(), uint64(shed+samples-(4096-4096/4)); got != want {
		t.Errorf("Evicted() = %d, want %d", got, want)
	}
}
