package pipeline

// The flight recorder: per-record span timelines for wire records that
// carried a trace context, kept in a fixed-size in-memory ring with
// tail-based sampling. Aggregate histograms say how long stages take;
// the recorder says what happened to one specific record between
// exporter send and block decision. Retention is decided at the *end*
// of a record's journey (tail sampling), and before its trace is built:
// a decision — alarm, block, drop, rejection, stream resync, cluster
// event — is always retained, as is a forwarded half and anything with
// a daemon-side span slower than the configured threshold; boring
// endings (identified, undecodable, suppressed, blocked-source hit,
// fast) are sampled 1-in-N so the ring still carries baseline context.
// The decisions made once per victim, source, stream or cluster
// operation keep a quarter of the ring to themselves, so no flood of
// per-record endings evicts them.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Outcome classifies how a traced record's journey ended.
type Outcome uint8

const (
	OutcomeIdentified  Outcome = iota // decoded to a source, nothing notable
	OutcomeUndecodable                // MF decode rejected
	OutcomeBlockedHit                 // source already blocked; dropped pre-detector
	OutcomeAlarm                      // the record at which a detector first read alarmed
	OutcomeBlock                      // the record at which the block pass inserted its source's block
	OutcomeDrop                       // shed at SubmitSlab: shard queue full
	OutcomeRejected                   // failed validation (topo mismatch, bad victim, closed)
	OutcomeResync                     // synthetic stream-level event: reader skipped to next magic
	OutcomeSuppressed                 // tallied sketch-only, below the admission threshold
	OutcomeForwarded                  // origin-side record of a traced record relayed to its owner
	OutcomeRingChange                 // synthetic cluster event: ownership ring rebuilt
	OutcomeGossip                     // synthetic cluster event: anti-entropy round
	OutcomeHandback                   // synthetic cluster event: victim detach / handoff ship / seed
	OutcomeTakeover                   // synthetic cluster event: replica seeded on owner takeover
	OutcomeGateAdmit                  // synthetic cluster event: fwGate admitted a victim for forwarding
	numOutcomes
)

// outcomeNames are the JSON/admin-plane labels, in Outcome order.
var outcomeNames = [numOutcomes]string{
	"identified", "undecodable", "blocked_hit", "alarm", "block",
	"drop", "rejected", "resync", "suppressed",
	"forwarded", "ring_change", "gossip", "handback", "takeover", "gate_admit",
}

// OutcomeNames lists every outcome label in Outcome order: the values
// /debug/traces accepts as ?outcome=.
func OutcomeNames() []string { return slices.Clone(outcomeNames[:]) }

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// OutcomeFromString resolves an admin-plane filter string; ok is false
// for unknown names.
func OutcomeFromString(s string) (Outcome, bool) {
	for i, n := range outcomeNames {
		if n == s {
			return Outcome(i), true
		}
	}
	return 0, false
}

// SpanMissing marks a span the record never reached (e.g. detect on a
// blocked-source hit, everything past ingest on a drop).
const SpanMissing int64 = -1

// Trace is one record's completed span timeline. It is a flat value
// type — committing one into the ring is a struct copy, no allocation.
//
// Span semantics (all nanoseconds):
//
//	Wire     exporter Send stamp → first daemon's SubmitSlab entry (or,
//	         for a forwarded record, → the origin's route decision):
//	         wall-clock delta across hosts; skew-prone, still invaluable
//	Forward  origin's route decision → owner's SubmitSlab entry (route →
//	         forward queue → wire → remote ingest); SpanMissing unless
//	         the record crossed a cluster forward hop
//	Ingest   SubmitSlab entry → shard worker dequeue (validation + queue wait)
//	Identify MF decode + blocklist prefilter
//	Detect   CUSUM/entropy update + alarm latch
//	Block    threshold check (+ insertion and journaling on a block)
//
// Identify, Detect and Block are the wall time of the victim group's
// pass ÷ group length, so every trace of a group reads the same; the
// outcome says which record alarmed or blocked. (The stage histograms
// amortize over the whole sub-batch instead; an exemplar still
// resolves, because a trace stamps the bin of its own span.)
type Trace struct {
	ID      uint64
	Sent    int64 // exporter send time, unix nanos (0 = unknown)
	Start   int64 // SubmitSlab entry, unix nanos
	Victim  int64 // -1 for stream-level events
	Source  int64 // identified source; -1 when unknown/undecodable
	Shard   int32
	Outcome Outcome
	Origin  uint64 // forwarding member id for records that crossed a hop (0 = none)

	Wire, Forward, Ingest, Identify, Detect, Block int64 // spans; SpanMissing = not reached
}

// NewTrace starts a timeline at start on which the record reached no
// span and named no source; callers fill in what it did reach.
func NewTrace(id uint64, start, victim int64, shard int32, outcome Outcome) Trace {
	return Trace{
		ID: id, Start: start, Victim: victim, Source: -1, Shard: shard, Outcome: outcome,
		Wire: SpanMissing, Forward: SpanMissing, Ingest: SpanMissing,
		Identify: SpanMissing, Detect: SpanMissing, Block: SpanMissing,
	}
}

// Total sums the daemon-side spans (Wire excluded: it crosses clocks).
func (t *Trace) Total() int64 {
	var sum int64
	for _, d := range t.stages() {
		if d > 0 {
			sum += d
		}
	}
	return sum
}

// stages returns the worker-side spans in stage-histogram order.
func (t *Trace) stages() [numStages]int64 {
	return [numStages]int64{t.Ingest, t.Identify, t.Detect, t.Block}
}

// boring reports whether a trace ending in o is one of the many tail
// sampling may drop: a record identified (or not), kept sketch-only or
// dropped at the blocklist. Every other outcome is kept.
func (o Outcome) boring() bool {
	switch o {
	case OutcomeIdentified, OutcomeUndecodable, OutcomeSuppressed, OutcomeBlockedHit:
		return true
	}
	return false
}

// decision reports whether a trace ending in o goes to the ring's
// decision share: a kept outcome that happens once per victim, source,
// stream or cluster operation. The per-record kept endings share the
// ring with the samples instead — a forwarded half (one per forwarded
// record) and a record shed or rejected at ingest (a whole sub-batch
// at a time, and most when the daemon is overloaded) — so no flood of
// them evicts a block.
func (o Outcome) decision() bool {
	switch o {
	case OutcomeAlarm, OutcomeBlock, OutcomeResync,
		OutcomeRingChange, OutcomeGossip, OutcomeHandback, OutcomeTakeover, OutcomeGateAdmit:
		return true
	}
	return false
}

// Interesting reports whether tail sampling must retain the trace
// regardless of the boring 1-in-N counter: a kept outcome, or a
// daemon-side span over slowNS. Wire and Forward cross hosts' clocks, so
// they are not read: a skewed exporter would make every trace slow.
func (t *Trace) Interesting(slowNS int64) bool {
	return !t.Outcome.boring() || slowSpans(slowNS, t.Ingest, t.Identify, t.Detect, t.Block)
}

// slowSpans reports whether any of the spans exceeds slowNS (never when
// slowNS <= 0: the slow gate is off).
func slowSpans(slowNS int64, spans ...int64) bool {
	if slowNS <= 0 {
		return false
	}
	for _, d := range spans {
		if d > slowNS {
			return true
		}
	}
	return false
}

// FlightRecorder is the fixed-size ring of retained traces plus the
// tail-sampling policy and its accounting. A producer decides retention
// for a run of completed records before building any trace — reserve
// claims the run's sampler ticks — and Commits the kept ones in batches,
// each one mutex acquisition; readers (the /debug/traces endpoint,
// SIGQUIT dumps, tests) snapshot under the same mutex.
type FlightRecorder struct {
	sampleN uint64 // retain 1 in N boring traces (1 = all)
	slowNS  int64  // any daemon-side span above this is always retained

	retained    atomic.Uint64 // traces written into the ring
	sampled     atomic.Uint64 // boring traces retained by the 1-in-N sampler
	evicted     atomic.Uint64 // ring overwrites of a previously retained trace
	boring      atomic.Uint64 // boring traces observed: the sampler's clock
	interesting atomic.Uint64 // interesting traces observed, every one retained

	synthSeq atomic.Uint64 // synthetic ids for stream-level events

	mu        sync.Mutex
	seq       uint64    // commits so far: orders the two shares for Snapshot
	decisions traceRing // decision outcomes, which samples never evict
	samples   traceRing // everything else kept
}

// traceRing is one share of the recorder's ring. seqs[i] is the commit
// order of buf[i].
type traceRing struct {
	buf  []Trace
	seqs []uint64
	next int
	full bool
}

func newTraceRing(n int) traceRing {
	return traceRing{buf: make([]Trace, n), seqs: make([]uint64, n)}
}

// put writes t as commit number seq and reports whether it overwrote an
// older trace.
func (g *traceRing) put(t *Trace, seq uint64) (evicted bool) {
	evicted = g.full
	g.buf[g.next], g.seqs[g.next] = *t, seq
	if g.next++; g.next == len(g.buf) {
		g.next, g.full = 0, true
	}
	return evicted
}

// len is how many traces the share holds.
func (g *traceRing) len() int {
	if g.full {
		return len(g.buf)
	}
	return g.next
}

// slot returns where the i-th newest trace is held, for i < len().
func (g *traceRing) slot(i int) int {
	if i = g.next - 1 - i; i < 0 {
		i += len(g.buf)
	}
	return i
}

// NewFlightRecorder builds a recorder holding up to size traces — a
// quarter of them, rounded down, for decisions alone — retaining 1 in
// sampleN boring traces and everything with a daemon-side span over
// slow. size <= 0 returns nil — the disabled recorder; every method is
// nil-safe on the hot path via the callers' nil checks.
func NewFlightRecorder(size, sampleN int, slow time.Duration) *FlightRecorder {
	if size <= 0 {
		return nil
	}
	if sampleN <= 0 {
		sampleN = 64
	}
	return &FlightRecorder{
		sampleN:   uint64(sampleN),
		slowNS:    slow.Nanoseconds(),
		decisions: newTraceRing(size / 4),
		samples:   newTraceRing(size - size/4),
	}
}

// Counters for /metrics. The traces observed are the boring ones plus
// the interesting ones; both terms only grow, so a scrape racing a
// Commit never reads the counter going down.
func (r *FlightRecorder) Observed() uint64 {
	return r.boring.Load() + r.interesting.Load()
}
func (r *FlightRecorder) Retained() uint64 { return r.retained.Load() }
func (r *FlightRecorder) Sampled() uint64  { return r.sampled.Load() }
func (r *FlightRecorder) Evicted() uint64  { return r.evicted.Load() }

// sampler is the retention decision for a run of boring traces, taken
// before any of them is built: reserve claims the run's range of the
// boring counter with one add, and keep then tells, trace by trace in
// order, whether the 1-in-N sampler retains it — exactly as each would
// have sampled offered alone, the i-th boring trace ever observed being
// kept when i is a multiple of N.
type sampler struct {
	every, skip uint64 // skip: boring traces before the next one kept
}

// reserve counts n boring traces observed and returns their sampler.
func (r *FlightRecorder) reserve(n int) sampler {
	tick := r.boring.Add(uint64(n)) - uint64(n)
	return sampler{every: r.sampleN, skip: r.sampleN - 1 - tick%r.sampleN}
}

// keep reports whether the run's next boring trace is retained.
func (s *sampler) keep() bool {
	if s.skip == 0 {
		s.skip = s.every - 1
		return true
	}
	s.skip--
	return false
}

// Commit stores traces the caller decided to keep, in order: every
// interesting trace it completed and the boring ones its sampler kept.
// A boring trace reaches Commit only through reserve, which counted it.
// Decisions go to their own share of the ring, the rest to the other.
func (r *FlightRecorder) Commit(ts []Trace) {
	if len(ts) == 0 {
		return
	}
	var sampled, evicted uint64
	r.mu.Lock()
	for i := range ts {
		t := &ts[i]
		if !t.Interesting(r.slowNS) {
			sampled++
		}
		g := &r.samples
		if t.Outcome.decision() && len(r.decisions.buf) > 0 {
			g = &r.decisions
		}
		if g.put(t, r.seq) {
			evicted++
		}
		r.seq++
	}
	r.mu.Unlock()
	r.retained.Add(uint64(len(ts)))
	r.sampled.Add(sampled)
	r.interesting.Add(uint64(len(ts)) - sampled)
	r.evicted.Add(evicted)
}

// CommitEventWithID retains a synthetic event under id — minted by
// MintEventID, or shared by the two nodes that commit one cluster
// operation (a handoff's ship and its seed, say) so `ddpmd fleet trace`
// stitches both halves into a single timeline. victim is -1 for
// stream-level events and operations without one.
func (r *FlightRecorder) CommitEventWithID(id uint64, outcome Outcome, now int64, victim int64) {
	r.Commit([]Trace{NewTrace(id, now, victim, -1, outcome)})
}

// MintEventID generates a synthetic-event id without committing.
// Synthetic ids always carry the top bit — a reading hint, not a
// namespace: exporter ids are uniform 64-bit SplitMix64 values, so
// uniqueness across both kinds is probabilistic either way.
func (r *FlightRecorder) MintEventID(stream uint64) uint64 {
	return wire.SplitMix64(r.synthSeq.Add(1)^stream) | 1<<63
}

// TraceFilter selects traces for Snapshot. Start from AllTraces() and
// narrow; Victim/Source use MatchAny (-2) as the wildcard because -1
// is a real value (stream-level events).
type TraceFilter struct {
	Victim  int64 // MatchAny = any
	Source  int64 // MatchAny = any
	Outcome Outcome
	HasOut  bool   // filter by Outcome
	ID      uint64 // nonzero: exact trace id
	Limit   int    // max traces returned, newest first (0 = all)
}

// MatchAny is the wildcard for TraceFilter.Victim / Source.
const MatchAny int64 = -2

// AllTraces is the match-everything filter.
func AllTraces() TraceFilter { return TraceFilter{Victim: MatchAny, Source: MatchAny} }

// Snapshot returns retained traces matching f, newest first across
// both shares of the ring.
func (r *FlightRecorder) Snapshot(f TraceFilter) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, sm := &r.decisions, &r.samples
	nd, ns := d.len(), sm.len()
	out := make([]Trace, 0, min(nd+ns, max(f.Limit, 16)))
	// Walk both shares newest → oldest, merging on commit order.
	for i, j := 0, 0; i < nd || j < ns; {
		var t *Trace
		if di, sj := d.slot(i), sm.slot(j); j == ns || (i < nd && d.seqs[di] > sm.seqs[sj]) {
			t, i = &d.buf[di], i+1
		} else {
			t, j = &sm.buf[sj], j+1
		}
		if f.ID != 0 && t.ID != f.ID {
			continue
		}
		if f.Victim != MatchAny && f.Victim != t.Victim {
			continue
		}
		if f.Source != MatchAny && f.Source != t.Source {
			continue
		}
		if f.HasOut && f.Outcome != t.Outcome {
			continue
		}
		out = append(out, *t)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}
