package pipeline

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
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

// commitOne offers one trace to r and reports whether it was retained.
func commitOne(r *FlightRecorder, t Trace) bool { return r.Commit([]Trace{t}) == 1 }

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
		OutcomeBlockedHit, OutcomeAlarm, OutcomeBlock,
		OutcomeDrop, OutcomeRejected, OutcomeResync,
	}
	for _, out := range interesting {
		tr := mkBoring(uint64(out) + 1)
		tr.Outcome = out
		if !commitOne(r, tr) {
			t.Errorf("outcome %v not retained", out)
		}
	}
	if got := r.Retained(); got != uint64(len(interesting)) {
		t.Fatalf("retained %d, want %d", got, len(interesting))
	}
	if got := r.Sampled(); got != 0 {
		t.Fatalf("sampler retained %d traces; outcome rule should have caught them all", got)
	}
	// Every one is still in the (large enough) ring.
	for _, out := range interesting {
		if _, ok := r.Find(uint64(out) + 1); !ok {
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

	// Threshold <= 0 disables the slow rule entirely.
	r2 := NewFlightRecorder(64, 1<<30, 0)
	huge := mkBoring(4)
	huge.Identify = int64(time.Hour)
	if commitOne(r2, huge) {
		t.Fatal("slow rule fired with a zero threshold")
	}
}

func TestRingEvictionAndSnapshotOrder(t *testing.T) {
	r := NewFlightRecorder(4, 1, time.Hour) // sampleN 1: keep everything
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
	if _, ok := r.Find(1); ok {
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
	if tr, ok := r.Find(2); !ok || tr.Outcome != OutcomeBlock {
		t.Errorf("Find(2) = %+v, %v", tr, ok)
	}
	if _, ok := r.Find(99); ok {
		t.Error("Find(99) matched nothing committed")
	}
}

func TestCommitEventSyntheticIDs(t *testing.T) {
	r := NewFlightRecorder(16, 1<<30, time.Hour)
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		id := r.CommitEvent(OutcomeResync, 12345, 42)
		if id&(1<<63) == 0 {
			t.Fatalf("synthetic id %016x missing the top bit", id)
		}
		if seen[id] {
			t.Fatalf("synthetic id %016x repeated", id)
		}
		seen[id] = true
		tr, ok := r.Find(id)
		if !ok {
			t.Fatalf("stream event %016x not retained", id)
		}
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
		got := commitInBatches(seed, ts, batched.Commit)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: batches retained %d traces, one at a time %d (or in another order)", seed, len(got), len(want))
		}
		if !reflect.DeepEqual(batched.Snapshot(AllTraces()), one.Snapshot(AllTraces())) {
			t.Fatalf("seed %d: ring order differs", seed)
		}
		if n := uint64(len(want)); one.Observed() != uint64(len(ts)) || one.Retained() != n || one.Evicted() != n-256 {
			t.Fatalf("seed %d: observed %d retained %d evicted %d, want %d, %d and %d",
				seed, one.Observed(), one.Retained(), one.Evicted(), len(ts), n, n-256)
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
			batched.commitTraces(b)
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
