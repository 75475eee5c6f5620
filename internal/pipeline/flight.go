package pipeline

// The flight recorder: per-record span timelines for wire records that
// carried a trace context, kept in a fixed-size in-memory ring with
// tail-based sampling. Aggregate histograms (PR 4) say how long stages
// take; the recorder says what happened to one specific record between
// exporter send and block decision. Retention is decided at the *end*
// of a record's journey (tail sampling): traces that end in an alarm,
// a block, a blocked-source hit, a drop, a rejection or a stream
// resync are always retained, as is anything with a stage slower than
// the configured threshold; boring traces (identified or undecodable,
// fast) are sampled 1-in-N so the ring still carries baseline context.

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
// pass ÷ group length — the amortized figure the stage histograms
// record — so every trace of a group reads the same; the outcome says
// which record alarmed or blocked.
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

// Interesting reports whether tail sampling must retain the trace
// regardless of the boring 1-in-N counter: any outcome beyond the
// ordinary identified/undecodable/suppressed triple, or any span over
// slowNS.
func (t *Trace) Interesting(slowNS int64) bool {
	if t.Outcome != OutcomeIdentified && t.Outcome != OutcomeUndecodable && t.Outcome != OutcomeSuppressed {
		return true
	}
	if slowNS <= 0 {
		return false
	}
	for _, d := range [...]int64{t.Wire, t.Forward, t.Ingest, t.Identify, t.Detect, t.Block} {
		if d > slowNS {
			return true
		}
	}
	return false
}

// FlightRecorder is the fixed-size ring of retained traces plus the
// tail-sampling policy and its accounting. Shard workers, the ingest
// path and the cluster tier Commit batches of traces, each one mutex
// acquisition; readers (the /debug/traces endpoint, SIGQUIT dumps,
// tests) snapshot under the same mutex.
type FlightRecorder struct {
	sampleN uint64 // retain 1 in N boring traces (1 = all)
	slowNS  int64  // any span above this is always retained

	observed atomic.Uint64 // completed traces offered to Commit
	retained atomic.Uint64 // traces written into the ring
	sampled  atomic.Uint64 // boring traces retained by the 1-in-N sampler
	evicted  atomic.Uint64 // ring overwrites of a previously retained trace
	boring   atomic.Uint64 // boring-trace counter driving the sampler

	synthSeq atomic.Uint64 // synthetic ids for stream-level events

	mu   sync.Mutex
	ring []Trace
	next int
	full bool
}

// NewFlightRecorder builds a recorder holding up to size traces,
// retaining 1 in sampleN boring traces and everything with a span over
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
		sampleN: uint64(sampleN),
		slowNS:  slow.Nanoseconds(),
		ring:    make([]Trace, size),
	}
}

// Counters for /metrics.
func (r *FlightRecorder) Observed() uint64 { return r.observed.Load() }
func (r *FlightRecorder) Retained() uint64 { return r.retained.Load() }
func (r *FlightRecorder) Sampled() uint64  { return r.sampled.Load() }
func (r *FlightRecorder) Evicted() uint64  { return r.evicted.Load() }

// Commit offers completed traces to tail sampling, moves the retained
// ones to the front of ts in order (the ring keeps copies) and returns
// how many. One add reserves the batch's range of the boring counter,
// so each trace samples exactly as it would committed alone.
func (r *FlightRecorder) Commit(ts []Trace) int {
	r.observed.Add(uint64(len(ts)))
	var nb uint64
	for i := range ts {
		if !ts[i].Interesting(r.slowNS) {
			nb++
		}
	}
	tick := r.boring.Add(nb) - nb
	var sampled, evicted uint64
	kept := 0
	for i := range ts {
		if !ts[i].Interesting(r.slowNS) {
			if tick++; tick%r.sampleN != 0 {
				continue
			}
			sampled++
		}
		ts[kept] = ts[i]
		kept++
	}
	r.sampled.Add(sampled)
	r.retained.Add(uint64(kept))
	r.mu.Lock()
	for i := range ts[:kept] {
		if r.full {
			evicted++
		}
		r.ring[r.next] = ts[i]
		r.next++
		if r.next == len(r.ring) {
			r.next = 0
			r.full = true
		}
	}
	r.mu.Unlock()
	r.evicted.Add(evicted)
	return kept
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

// Snapshot returns retained traces matching f, newest first.
func (r *FlightRecorder) Snapshot(f TraceFilter) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	total := n
	if r.full {
		total = len(r.ring)
	}
	out := make([]Trace, 0, min(total, max(f.Limit, 16)))
	for i := 0; i < total; i++ {
		// Walk newest → oldest.
		idx := n - 1 - i
		if idx < 0 {
			idx += len(r.ring)
		}
		t := &r.ring[idx]
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
