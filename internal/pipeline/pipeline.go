// Package pipeline is the online heart of ddpmd: a sharded streaming
// implementation of the paper's detect → identify → block loop over
// wire.Records instead of in-simulator packets. Records move in
// batches end to end: frames decode into pooled wire.Slabs, one
// counting sort partitions each slab by victim shard (grouped by
// victim within a shard), and every shard receives its sub-batch as a
// single channel element. Workers then run identification and
// detection per victim group, under one lock per sub-batch: the shard's
// own, which guards everything the shard owns. Each victim gets a DDPM
// identifier (single-packet source identification, the paper's §5),
// CUSUM + entropy detectors, and auto-blocking into a TTL'd blocklist.
//
// Backpressure is explicit and batch-granular: a full shard queue
// sheds that shard's whole sub-batch and counts every record in it,
// never blocking the ingest path — a traceback service that stalls
// its NIC under flood would be its own DoS amplifier.
package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// Config parameterizes a Pipeline. Zero values take the defaults
// noted per field.
type Config struct {
	// Net is the fabric the marking fields were accumulated in
	// (required): identification is just S = D − V, but the decode
	// needs the topology's dimensions and wrap rule.
	Net topology.Network

	Shards   int // worker/queue pairs (default 4)
	QueueLen int // sub-batches buffered per shard (default 1024); one element is one slab view, up to wire.SlabCap records

	// Detection: per-victim CUSUM on record arrival ticks plus a
	// source-entropy detector (random spoofing inflates entropy).
	CUSUMWindow    eventq.Time // default 500 ticks
	CUSUMSlack     float64     // default 4
	CUSUMThreshold float64     // default 40
	EntropyWindow  eventq.Time // default 500 ticks; < 0 disables
	EntropyDelta   float64     // default 1.5 bits

	// Response: once a victim's detector has alarmed, sources
	// identified more than BlockThreshold times are blocked for
	// BlockTTL. Zero takes the default; a negative TTL makes
	// auto-blocks permanent (filter.Permanent), matching the filter
	// package's convention.
	BlockThreshold int64         // default 100
	BlockTTL       time.Duration // default 60s; negative = permanent

	// Sketch admission gate: before a destination earns exact per-victim
	// state (DDPM identifier + detectors), it must look hot in a
	// per-shard space-saving heavy-hitter table fed exact counts (one
	// uint32 per destination the shard can own: ⌈NumNodes/Shards⌉ of
	// them). Destinations below the threshold are tallied sketch-only
	// (a few bytes each) and counted in SketchSuppressed; crossing it
	// materializes the victimState lazily and replays the slot's
	// buffered records through the exact path, so admission loses no
	// identification evidence from the moment the destination started
	// being tracked.
	SketchAdmit        int // records to materialize a victim (default 1 = admit on first record, the legacy behavior; negative disables the gate)
	SketchHeavyHitters int // space-saving slots and victim-state cap per shard (default 512)
	SketchDecayEvery   int // halve the gate's counts and slots every N gated records per shard (default 1<<20)

	// VictimTTL sweeps victims idle this long back to sketch-only
	// state: their exact state is dropped (a final VictimSnapshot goes
	// to the victim-expired hook and the journal), while blocklist
	// entries and past journal events survive. Renewed traffic
	// re-materializes through the admission gate. 0 disables sweeping.
	VictimTTL time.Duration

	// Now supplies the blocklist timebase in unix nanoseconds;
	// defaults to time.Now().UnixNano(). Tests inject a fake clock.
	Now func() int64

	// LatencySampleEvery records per-stage latencies for one in every
	// N ingest units, rounded up to a power of two (default 64; 1
	// times every unit; negative disables the histograms). A unit is
	// one submitted slab on the ingest stage and one sub-batch on the
	// shard stages — with single-record slabs that degenerates to one
	// in every N records. Sampled batches report the per-record
	// amortized stage cost, so the histograms stay comparable across
	// batch sizes. The sampled stages are ingest→enqueue,
	// decode/identify, detect and block, exposed on /metrics as
	// histogram + p50/p95/p99 series.
	LatencySampleEvery int

	// Journal, when non-nil, receives attack-audit events: alarms,
	// auto-blocks (with top-k evidence), block expiries and stream
	// incidents. The pipeline never closes it; the owner flushes it
	// with Journal.Close after Close (the daemon does this on the
	// SIGTERM drain path).
	Journal *Journal

	// JournalTopK is how many top identified sources a source-blocked
	// event carries as evidence (default 5).
	JournalTopK int

	// TraceBuffer is the flight-recorder capacity in traces (default
	// 4096; negative disables per-record tracing — a slab's trace lane
	// is then ignored). Slabs without a lane cost one nil test per
	// victim group regardless, so the recorder can stay on in production.
	TraceBuffer int

	// TraceSampleN is the tail-sampling rate for boring traces: 1 in N
	// traces that end in plain identified/undecodable are retained
	// (default 64; 1 retains all). Interesting outcomes — alarm, block,
	// blocked-source hit, drop, rejection, resync — are always retained.
	TraceSampleN int

	// TraceSlowThreshold forces retention of any trace with a single
	// span above it, whatever its outcome (default 1ms; negative
	// disables the slow gate).
	TraceSlowThreshold time.Duration
}

func (c *Config) applyDefaults() error {
	if c.Net == nil {
		return fmt.Errorf("pipeline: Config.Net is required")
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.CUSUMWindow <= 0 {
		c.CUSUMWindow = 500
	}
	if c.CUSUMSlack <= 0 {
		c.CUSUMSlack = 4
	}
	if c.CUSUMThreshold <= 0 {
		c.CUSUMThreshold = 40
	}
	if c.EntropyWindow == 0 {
		c.EntropyWindow = 500
	}
	if c.EntropyDelta <= 0 {
		c.EntropyDelta = 1.5
	}
	if c.BlockThreshold <= 0 {
		c.BlockThreshold = 100
	}
	if c.BlockTTL == 0 {
		c.BlockTTL = time.Minute
	}
	if c.SketchAdmit == 0 {
		c.SketchAdmit = 1
	}
	if c.SketchHeavyHitters <= 0 {
		c.SketchHeavyHitters = sketch.DefaultSlots
	}
	if c.SketchDecayEvery <= 0 {
		c.SketchDecayEvery = sketch.DefaultDecayEvery
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	if c.LatencySampleEvery == 0 {
		c.LatencySampleEvery = 64
	}
	if c.JournalTopK <= 0 {
		c.JournalTopK = 5
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 4096
	}
	if c.TraceSampleN <= 0 {
		c.TraceSampleN = 64
	}
	if c.TraceSlowThreshold == 0 {
		c.TraceSlowThreshold = time.Millisecond
	}
	return nil
}

// Pipeline stages instrumented with latency histograms.
const (
	stageIngest   = iota // SubmitSlab entry → shard-queue enqueue
	stageIdentify        // victim-state lookup + MF decode/identify
	stageDetect          // CUSUM/entropy update + alarm latch
	stageBlock           // blocklist consult + auto-block insertion
	numStages
)

// StageNames are the exposition labels, in stage order.
var StageNames = [numStages]string{"ingest", "identify", "detect", "block"}

// Latency histograms live in the log2-nanosecond domain: recording
// log2(ns) into stats.AtomicHistogram's fixed-width bins yields
// exponential buckets (×√2 per bin) while reusing the existing bin and
// percentile math; the exposition exponentiates the edges back to
// seconds. The range spans 1ns..2^30ns (~1.07s).
const (
	latLo   = 0
	latHi   = 30
	latBins = 60
)

// Detection latency — exporter send stamp to the block decision —
// crosses hosts and possibly a forward hop, so its range runs wider
// than the stage histograms: 2^10ns (~1µs) to 2^40ns (~18min).
const (
	detLatLo   = 10
	detLatHi   = 40
	detLatBins = 60
)

// stageLat is one stage's telemetry: the sharded histogram plus an
// exact nanosecond sum for the Prometheus _sum series (the histogram's
// own mean would be a bin-midpoint approximation).
type stageLat struct {
	hist  *stats.AtomicHistogram
	sumNS atomic.Int64
}

func (l *stageLat) observe(hint uint64, d time.Duration) {
	l.sumNS.Add(d.Nanoseconds())
	l.hist.Observe(hint, stats.Log2NS(d.Nanoseconds()))
}

// Counters is the pipeline's atomic metric block. Every field is a
// monotone total; read them consistently with the Snapshot method
// (which adds the non-monotone gauges: queue depths, active blocks).
type Counters struct {
	Ingested       atomic.Uint64 // records offered to SubmitSlab
	Dropped        atomic.Uint64 // backpressure: shard queue full
	RejectedClosed atomic.Uint64 // SubmitSlab after Close — a lifecycle bug upstream, not load shed
	TopoMismatch   atomic.Uint64 // record's TopoID != the pipeline's
	BadVictim      atomic.Uint64 // victim outside the topology
	Processed      atomic.Uint64 // records a shard worker consumed
	Identified     atomic.Uint64 // MF decoded to an in-topology source
	Undecodable    atomic.Uint64 // MF decode rejects
	BlockedHits    atomic.Uint64 // records from an actively blocked source
	Alarms         atomic.Uint64 // victims whose detector fired (first fire each)
	Blocks         atomic.Uint64 // auto-block insertions

	SketchSuppressed  atomic.Uint64 // records tallied sketch-only, below the admission threshold
	SketchReplayed    atomic.Uint64 // buffered records replayed through the exact path on admission
	SketchDeferred    atomic.Uint64 // admissions deferred at the per-shard victim-state cap
	VictimsAdmitted   atomic.Uint64 // victim states materialized through the gate
	VictimsExpired    atomic.Uint64 // victim states swept back to sketch-only by VictimTTL
	VictimsDetached   atomic.Uint64 // victim states handed off to a new cluster owner
	SchemeUnbuildable atomic.Uint64 // records for a fabric the marking scheme cannot cover
}

// Snapshot is a plain-value copy of the counters plus derived state.
// Accepted (records that passed validation and were enqueued) is
// derived: ingested minus every rejection counter, so the hot path
// pays no extra atomic for it.
type Snapshot struct {
	Ingested, Accepted, Dropped, RejectedClosed uint64
	TopoMismatch, BadVictim                     uint64
	Processed, Identified, Undecodable          uint64
	BlockedHits, Alarms, Blocks                 uint64
	SketchSuppressed, SketchReplayed            uint64
	SketchDeferred, VictimsAdmitted             uint64
	VictimsExpired, VictimsDetached             uint64
	SketchDecays, SchemeUnbuildable             uint64
	QueueDepths                                 []int
	ActiveBlocks                                int
	VictimStates                                int
	SketchHeavySlots                            int64

	// Per-shard views of the worker counters, indexed by shard.
	ShardProcessed    []uint64
	ShardIdentified   []uint64
	ShardDropped      []uint64
	ShardGatedVictims []int64
}

// victimState is everything the pipeline keeps per victim node: a plain
// struct, created lazily (on admission, or by a seed), living in exactly
// one shard, whose mu guards every field.
type victimState struct {
	ident    *traceback.DDPMIdentifier
	cusum    detect.Detector
	entropy  detect.Detector
	alarmed  bool          // latch: set once, on the first detector firing or by a seed
	scratch  packet.Packet // reused to feed packet-shaped detectors
	lastSeen int64         // cfg.Now() of the latest record (or of creation), read by the TTL sweep
}

// batch is one shard-queue element, of two kinds. A record batch is a
// [start, end) view into a partitioned slab (records contiguous and
// victim-grouped) plus the SubmitSlab-entry wall clock (unix nanos, 0
// when the slab is neither latency-sampled nor traced); the receiving
// worker owns one slab reference and releases it when done. A control
// batch carries only ctl, which the worker runs between record batches:
// that is how SeedVictim, DetachVictim and the TTL sweeps mutate shard
// state in queue order with the records. A ctl takes shard.mu itself.
type batch struct {
	slab       *wire.Slab
	start, end int32
	t0         int64
	ctl        func(*shard)
}

// shard is one worker's queue plus everything that worker owns. Its one
// mutex guards the victims map, every field of every victimState in it
// and the gate. The worker holds mu for the length of one sub-batch;
// control closures and sweeps hold it while they touch state; the admin
// reads (Alarmed … Snapshot) hold it and read plain fields — they do not
// ride the queue, so they work after Close and never wait on a worker.
//
// Lock order is cluster.Node.mu → shard.mu, never the reverse, and mu
// is never held across a call that can call back into the pipeline: the
// victim-expired hook and DetachVictim's fn fire after Unlock. Leaf
// sinks that neither call back nor block (Journal.Emit, the blocklist,
// FlightRecorder.Commit) may be called under it.
type shard struct {
	ch      chan batch
	mu      sync.Mutex
	victims map[topology.NodeID]*victimState

	// Admission gate a destination must be hot in before it earns a
	// victimState (nil when SketchAdmit < 0 or the scheme is unbuildable).
	gate *sketch.Gate[wire.Record]

	// Worker-only scratch and clocks, never read by another goroutine.
	// srcs is the per-group identification scratch: the identified
	// source per record, or a negative sentinel. outs is the trace
	// lane's per-group outcome scratch, sized when a lane is first seen.
	// traces are the lane's, built in place, committed by addTrace and
	// per sub-batch. lastSweep is the in-band TTL-sweep clock in cfg.Now()
	// nanos.
	srcs      []int32
	outs      []Outcome
	traces    []Trace
	lastSweep int64

	// batches is the worker-local latency-sampling clock, one tick per
	// sub-batch. processed, identified and dropped are the counts behind
	// the shard="N" metric labels: the worker writes the first two under
	// mu; SubmitSlab counts queue-full sheds from the ingest goroutines.
	batches    uint64
	processed  uint64
	identified uint64
	dropped    atomic.Uint64
}

// Pipeline is the running sharded service. Build with New, feed with
// SubmitSlab (any goroutine), stop with Close (drains queues).
type Pipeline struct {
	cfg    Config
	topoID uint32
	shards []*shard
	bl     *filter.Blocklist
	pool   *wire.SlabPool

	// scheme is the DDPM marking scheme, built once at New. When the
	// fabric is unbuildable (more nodes than the 16-bit MF can cover)
	// schemeErr caches the failure so the hot path never retries
	// construction — records for such fabrics count SchemeUnbuildable.
	scheme    *marking.DDPM
	schemeErr error

	// victimExpired, when set, receives the final snapshot of every
	// victim the TTL sweep retires (called on the shard worker with no
	// pipeline locks held) — the cluster tier's expiry feed.
	victimExpired atomic.Pointer[func(VictimSnapshot)]
	sweepIval     int64         // in-band sweep cadence in cfg.Now() nanos (0 = off)
	sweepQuit     chan struct{} // stops the real-time sweep ticker

	C Counters

	lat        [numStages]stageLat
	detLat     stageLat // send-to-block detection latency (traced records only)
	sampleOn   bool
	sampleMask uint64            // pow2-1: sample when count&mask == 0
	submitSeq  atomic.Uint64     // ingest-stage sampling clock, one tick per submitted slab
	rateWin    *stats.RateWindow // over rateWindow, one sample per /metrics scrape
	fr         *FlightRecorder   // nil when tracing disabled

	mu     sync.RWMutex // serializes SubmitSlab and control hand-offs against Close
	closed bool
	wg     sync.WaitGroup
}

// rateWindow is the span of the sliding-window ingest-rate gauge.
const rateWindow = time.Minute

// New builds and starts the pipeline's shard workers.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:     cfg,
		topoID:  wire.TopoID(cfg.Net.Name()),
		bl:      filter.NewTTLBlocklist(),
		pool:    wire.NewSlabPool(cfg.Shards*4 + 8),
		rateWin: stats.NewRateWindow(rateWindow),
	}
	p.scheme, p.schemeErr = marking.NewDDPM(cfg.Net)
	if cfg.LatencySampleEvery > 0 {
		p.sampleOn = true
		every := uint64(1)
		for every < uint64(cfg.LatencySampleEvery) {
			every <<= 1
		}
		p.sampleMask = every - 1
		for i := range p.lat {
			p.lat[i].hist = stats.NewAtomicHistogram(latLo, latHi, latBins, cfg.Shards)
		}
	}
	if cfg.TraceBuffer > 0 {
		p.fr = NewFlightRecorder(cfg.TraceBuffer, cfg.TraceSampleN, cfg.TraceSlowThreshold)
		p.detLat.hist = stats.NewAtomicHistogram(detLatLo, detLatHi, detLatBins, cfg.Shards)
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			ch:      make(chan batch, cfg.QueueLen),
			victims: make(map[topology.NodeID]*victimState),
		}
		if cfg.SketchAdmit > 0 && p.schemeErr == nil {
			// Keyed by victim / Shards: dense over the victims this
			// shard owns (victim mod Shards == i).
			keys := (cfg.Net.NumNodes() + cfg.Shards - 1) / cfg.Shards
			s.gate = sketch.NewGate[wire.Record](keys,
				cfg.SketchHeavyHitters, cfg.SketchAdmit, cfg.SketchDecayEvery)
		}
		p.shards = append(p.shards, s)
		p.wg.Add(1)
		go p.run(s, i)
	}
	if cfg.VictimTTL > 0 {
		p.sweepIval = cfg.VictimTTL.Nanoseconds()
		p.sweepQuit = make(chan struct{})
		p.wg.Add(1)
		go p.sweepLoop()
	}
	return p, nil
}

// TopoID returns the wire topology id this pipeline accepts.
func (p *Pipeline) TopoID() uint32 { return p.topoID }

// Blocklist exposes the shared TTL blocklist (concurrent-use-safe) for
// the admin plane.
func (p *Pipeline) Blocklist() *filter.Blocklist { return p.bl }

// Journal returns the configured attack-audit journal (nil when
// disabled). The pipeline emits to it but never closes it.
func (p *Pipeline) Journal() *Journal { return p.cfg.Journal }

// Recorder returns the flight recorder (nil when tracing is disabled).
func (p *Pipeline) Recorder() *FlightRecorder { return p.fr }

// GetSlab returns an empty pooled slab for decoding frames into. Hand
// it to SubmitSlab when filled — SubmitSlab consumes the caller's
// reference, so Get → fill → SubmitSlab is a complete lifecycle.
func (p *Pipeline) GetSlab() *wire.Slab { return p.pool.Get() }

// SlabsOutstanding reports pooled slabs handed out and not yet fully
// released — zero once every submitter has returned and the shard
// queues have drained (the leak check).
func (p *Pipeline) SlabsOutstanding() int64 { return p.pool.Outstanding() }

// SubmitSlab offers a filled slab to the pipeline without blocking and
// returns how many of its records were enqueued. The slab is
// partitioned in place by victim shard; each shard's contiguous
// sub-batch is submitted as one queue element. A full shard queue
// sheds that whole sub-batch (each record counted in Dropped and the
// shard's counter) — batch-granularity backpressure. Validation
// failures (topology mismatch, victim out of range) are counted per
// record as before.
//
// SubmitSlab consumes the caller's slab reference: after the call the
// caller must not touch the slab.
func (p *Pipeline) SubmitSlab(s *wire.Slab) (accepted int) {
	n := len(s.Recs)
	if n == 0 {
		s.Release()
		return 0
	}
	end := p.C.Ingested.Add(uint64(n))
	first := end - uint64(n)
	traced := s.Ctxs != nil && p.fr != nil
	// Sample one submit in every period: the unit is the slab, not the
	// record, so batch ingest keeps the same sampling overhead as
	// single-record slabs instead of multiplying it by the batch size.
	sampled := p.sampleOn && (p.submitSeq.Add(1)-1)&p.sampleMask == 0
	var t0 time.Time
	var t0ns int64
	var ended []Trace // ingest-side trace endings, committed before return
	if sampled || traced {
		t0 = time.Now()
		t0ns = t0.UnixNano()
	}
	if traced {
		ended = make([]Trace, 0, 16)
	}
	groups, valid := s.Partition(p.topoID, p.cfg.Net.NumNodes(), len(p.shards))
	for i := valid; i < n; i++ {
		if s.Recs[i].Topo != p.topoID {
			p.C.TopoMismatch.Add(1)
		} else {
			p.C.BadVictim.Add(1)
		}
	}
	if traced {
		ended = p.traceEnded(ended, s.Recs[valid:], s.Ctxs[valid:], t0ns, -1, SpanMissing, OutcomeRejected)
	}
	p.mu.RLock()
	if p.closed {
		// Not backpressure: the caller outlived the pipeline. Count it
		// apart from Dropped so load shed stays a clean signal.
		p.mu.RUnlock()
		p.C.RejectedClosed.Add(uint64(valid))
		if traced {
			ended = p.traceEnded(ended, s.Recs[:valid], s.Ctxs[:valid], t0ns, -1, SpanMissing, OutcomeRejected)
			p.commitTraces(ended)
		}
		s.Release()
		return 0
	}
	for _, g := range groups {
		sh := p.shards[g.Shard]
		s.Retain() // the worker's reference; dropped again on shed
		select {
		case sh.ch <- batch{slab: s, start: int32(g.Start), end: int32(g.End), t0: t0ns}:
			accepted += g.End - g.Start
		default:
			s.Release()
			cnt := uint64(g.End - g.Start)
			p.C.Dropped.Add(cnt) // bounded queue full: shed the sub-batch, don't stall ingest
			sh.dropped.Add(cnt)
			if traced {
				ended = p.traceEnded(ended, s.Recs[g.Start:g.End], s.Ctxs[g.Start:g.End], t0ns, -1, SpanMissing, OutcomeDrop)
			}
		}
	}
	p.mu.RUnlock()
	p.commitTraces(ended)
	if sampled {
		// One amortized observation per sampled batch: the whole submit
		// (partition + every enqueue) divided across its records.
		p.lat[stageIngest].observe(first, time.Since(t0)/time.Duration(n))
	}
	s.Release()
	return accepted
}

// traceBatch is the most traces a shard worker builds before one Commit.
const traceBatch = 128

// addTrace starts one record's timeline in a new last slot of ts — its
// identity, the SubmitSlab entry clock and the cross-host spans its
// context implies — committing ts first when it is full. Every
// daemon-side span starts SpanMissing; the caller fills in as far as
// the record got.
func (p *Pipeline) addTrace(ts []Trace, tc *wire.TraceContext, start int64, victim topology.NodeID, shard int) []Trace {
	if len(ts) == cap(ts) {
		p.commitTraces(ts)
		if ts = ts[:0]; cap(ts) == 0 {
			ts = make([]Trace, 0, traceBatch)
		}
	}
	ts = ts[:len(ts)+1]
	t := &ts[len(ts)-1]
	*t = Trace{
		ID: tc.ID, Sent: tc.Sent, Start: start,
		Victim: int64(victim), Source: -1, Shard: int32(shard),
		Wire: SpanMissing, Forward: SpanMissing, Ingest: SpanMissing,
		Identify: SpanMissing, Detect: SpanMissing, Block: SpanMissing,
	}
	if tc.Routed > 0 {
		// The record crossed a cluster forward hop: Wire ends at the
		// origin's route decision, Forward covers route → forward
		// queue → wire → this node's SubmitSlab entry.
		if tc.Sent > 0 {
			t.Wire = tc.Routed - tc.Sent
		}
		t.Forward = start - tc.Routed
		t.Origin = tc.Origin
	} else if tc.Sent > 0 {
		t.Wire = start - tc.Sent
	}
	return ts
}

// traceEnded adds to ts a trace for every traced record of a run whose
// journey ended short of a victim's exact state: rejected or shed in
// SubmitSlab (shard −1, ingest SpanMissing — no worker saw it), or, on
// a worker, kept sketch-only by the admission gate or addressed to a
// fabric the scheme cannot cover. No pass ran for such records, so
// every worker span stays SpanMissing.
func (p *Pipeline) traceEnded(ts []Trace, recs []wire.Record, ctxs []wire.TraceContext, start int64, shard int, ingest int64, out Outcome) []Trace {
	for i := range ctxs {
		if ctxs[i].ID == 0 {
			continue
		}
		ts = p.addTrace(ts, &ctxs[i], start, recs[i].Victim, shard)
		ts[len(ts)-1].Ingest, ts[len(ts)-1].Outcome = ingest, out
	}
	return ts
}

// observeDetection records one send-to-block detection latency sample.
// Unlike the stage histograms it is unsampled — blocks are rare and
// each one's latency is the paper's headline quantity.
func (p *Pipeline) observeDetection(hint uint64, ns int64) {
	if p.detLat.hist != nil && ns > 0 {
		p.detLat.observe(hint, time.Duration(ns))
	}
}

// DetectionLatency returns the send-to-block histogram and exact
// nanosecond sum (nil histogram when tracing is disabled).
func (p *Pipeline) DetectionLatency() (*stats.Histogram, int64) {
	if p.detLat.hist == nil {
		return nil, 0
	}
	return p.detLat.hist.Snapshot(), p.detLat.sumNS.Load()
}

// commitTraces commits ts and stamps each retained trace's id as the
// exemplar of every stage-histogram bin its spans fall in. Stamping only
// retained traces keeps exemplars resolvable: an id read off /metrics
// can always be looked up in /debug/traces (until the ring evicts it).
// Equal spans share a bin, so a stage is stamped only by the last trace
// of each run of them — the one per-trace stamping would leave there.
func (p *Pipeline) commitTraces(ts []Trace) {
	if len(ts) == 0 {
		return
	}
	kept := ts[:p.fr.Commit(ts)]
	if !p.sampleOn {
		return
	}
	for i := range kept {
		for stage, ns := range kept[i].stages() {
			if ns >= 0 && (i+1 == len(kept) || kept[i+1].stages()[stage] != ns) {
				p.lat[stage].hist.SetExemplar(stats.Log2NS(ns), kept[i].ID)
			}
		}
	}
}

// Close stops accepting records, drains every shard queue and waits
// for the workers — the SIGTERM path. Safe to call more than once.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		if p.sweepQuit != nil {
			close(p.sweepQuit)
		}
		for _, s := range p.shards {
			close(s.ch)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pipeline) run(s *shard, si int) {
	defer p.wg.Done()
	for b := range s.ch {
		if b.ctl != nil {
			b.ctl(s)
			continue
		}
		s.mu.Lock()
		p.processSub(s, si, b)
		s.mu.Unlock()
		b.slab.Release()
		if p.sweepIval > 0 {
			// In-band sweep: keeps TTL expiry moving on the configured
			// timebase even when the real-time ticker and the fake clock
			// disagree (tests) or the queue is never idle.
			if now := p.cfg.Now(); now-s.lastSweep >= p.sweepIval {
				s.lastSweep = now
				p.sweepShard(s)
			}
		}
	}
}

// srcBlocked marks a record whose identified source was already
// blocked at observation time (dropped before the detectors, like the
// in-fabric filter would). The source stays recoverable — the scratch
// holds srcBlocked − src, so every value at or below srcBlocked is a
// blocked hit — because the trace lane names it.
const srcBlocked = int32(-2)

// fastCtx accumulates one sub-batch's worth of tallies and stage
// timings across its victim groups — including groups replayed through
// the admission gate — flushed to the atomic counters once per
// sub-batch. The stage clock runs (timed) when the sub-batch is
// latency-sampled or carries a trace lane; only sampled sub-batches
// feed the histograms.
type fastCtx struct {
	sampled, timed bool
	tMark          time.Time

	durIdent, durDetect, durBlock time.Duration

	// What every trace of the sub-batch shares: the shard, the
	// SubmitSlab entry clock and the entry → worker-dequeue span.
	si         int
	t0, ingest int64

	identified, undecodable, blockedHits uint64
	alarms, blocks                       uint64
	suppressed, deferred, replayed       uint64
	admitted, unbuildable                uint64
}

// lap charges the wall time since the previous mark to one stage's
// sub-batch total and returns it.
func (fc *fastCtx) lap(total *time.Duration) time.Duration {
	t := time.Now()
	d := t.Sub(fc.tMark)
	fc.tMark = t
	*total += d
	return d
}

// flush publishes the accumulated tallies; the caller holds s.mu.
func (fc *fastCtx) flush(p *Pipeline, s *shard) {
	if fc.identified > 0 {
		p.C.Identified.Add(fc.identified)
		s.identified += fc.identified
	}
	if fc.undecodable > 0 {
		p.C.Undecodable.Add(fc.undecodable)
	}
	if fc.blockedHits > 0 {
		p.C.BlockedHits.Add(fc.blockedHits)
	}
	if fc.alarms > 0 {
		p.C.Alarms.Add(fc.alarms)
	}
	if fc.blocks > 0 {
		p.C.Blocks.Add(fc.blocks)
	}
	if fc.suppressed > 0 {
		p.C.SketchSuppressed.Add(fc.suppressed)
	}
	if fc.deferred > 0 {
		p.C.SketchDeferred.Add(fc.deferred)
	}
	if fc.replayed > 0 {
		p.C.SketchReplayed.Add(fc.replayed)
	}
	if fc.admitted > 0 {
		p.C.VictimsAdmitted.Add(fc.admitted)
	}
	if fc.unbuildable > 0 {
		p.C.SchemeUnbuildable.Add(fc.unbuildable)
	}
}

// processSub consumes one sub-batch view — the only unit a worker
// processes — with s.mu held by the caller for all of it. Records are
// already grouped by victim, so each group runs three passes —
// identify, detect, block — and counters/latency histograms are
// written once per sub-batch instead of once per record. Groups for
// destinations without exact state first clear the sketch admission
// gate (see gateRecord); the rest of the group from the crossing
// record on takes the exact path.
//
// A slab's trace lane rides along as the matching slice of contexts
// per group (nil without a lane or with the recorder off) and never
// changes a decision: it only makes the group commit one trace per
// nonzero context once its passes are done.
//
// Batch granularity shifts two per-record behaviors by design: a block
// inserted while processing a group takes effect from the next group
// (records already identified in this group were prefiltered against
// the blocklist as of the group's start), and the block pass may block
// a source based on any record of the group once the victim's alarm
// latch is set, not only records after the alarming one. Both keep the
// end state — who is blocked, who alarmed — identical for steady
// streams; see DESIGN.md §11.
func (p *Pipeline) processSub(s *shard, si int, b batch) {
	recs := b.slab.Recs[b.start:b.end]
	n := len(recs)
	p.C.Processed.Add(uint64(n))
	s.processed += uint64(n)
	fc := fastCtx{sampled: p.sampleOn && s.batches&p.sampleMask == 0, si: si, t0: b.t0}
	s.batches++
	var lane []wire.TraceContext
	if b.slab.Ctxs != nil && p.fr != nil {
		lane = b.slab.Ctxs[b.start:b.end]
	}
	fc.timed = fc.sampled || lane != nil
	if fc.timed {
		fc.tMark = time.Now()
		// SubmitSlab entry → worker dequeue: validation plus queue wait.
		fc.ingest = fc.tMark.UnixNano() - b.t0
	}
	for gi := 0; gi < n; {
		v := recs[gi].Victim
		ge := gi + 1
		for ge < n && recs[ge].Victim == v {
			ge++
		}
		group := recs[gi:ge]
		var ctxs []wire.TraceContext
		if lane != nil {
			ctxs = lane[gi:ge]
		}
		gi = ge
		st := s.victims[v]
		if st == nil {
			if p.schemeErr != nil {
				// Unbuildable scheme for this fabric, cached at New: count
				// and move on instead of retrying construction per batch.
				fc.unbuildable += uint64(len(group))
				s.traces = p.traceEnded(s.traces, group, ctxs, b.t0, si, fc.ingest, OutcomeUndecodable)
				continue
			}
			if s.gate != nil {
				// Admission gate: feed records through the sketch one at a
				// time until one materializes the victim; the crossing
				// record onward takes the exact path below.
				k := 0
				for k < len(group) {
					if st = p.gateRecord(s, v, group[k], &fc); st != nil {
						break
					}
					k++
				}
				if ctxs != nil {
					s.traces = p.traceEnded(s.traces, group[:k], ctxs[:k], b.t0, si, fc.ingest, OutcomeSuppressed)
					ctxs = ctxs[k:]
				}
				if st == nil {
					continue // the whole group stayed sketch-only
				}
				group = group[k:]
			} else {
				st = p.materialize(s, v)
			}
		}
		p.processGroup(s, st, v, group, ctxs, &fc)
	}
	p.commitTraces(s.traces)
	s.traces = s.traces[:0]
	fc.flush(p, s)
	if fc.sampled {
		// One amortized observation per stage per sampled batch.
		nn := time.Duration(n)
		p.lat[stageIdentify].observe(uint64(si), fc.durIdent/nn)
		p.lat[stageDetect].observe(uint64(si), fc.durDetect/nn)
		p.lat[stageBlock].observe(uint64(si), fc.durBlock/nn)
	}
}

// gateRecord runs one record of a destination without exact state
// through the admission gate. It returns nil when the record stays
// sketch-only (tallied, maybe buffered, suppressed), or the freshly
// materialized victimState when this record crossed the admission
// threshold — after replaying the slot's earlier buffered records
// through the exact path, so admission loses no identification
// evidence from the moment the destination started being tracked. The
// crossing record itself is not replayed; the caller processes it (and
// the rest of its group) normally. Replays run untraced: the buffer
// holds records, not contexts, and each buffered record already
// committed its suppressed ending.
func (p *Pipeline) gateRecord(s *shard, v topology.NodeID, rec wire.Record, fc *fastCtx) *victimState {
	key := uint64(v) / uint64(len(p.shards))
	prefix, hot := s.gate.Offer(key, rec)
	if !hot {
		fc.suppressed++
		return nil
	}
	if len(s.victims) >= p.cfg.SketchHeavyHitters {
		// At the per-shard victim-state cap: the key stays hot in the
		// gate until the TTL sweep frees a slot.
		fc.deferred++
		return nil
	}
	st := p.materialize(s, v)
	fc.admitted++
	if len(prefix) > 0 {
		fc.replayed += uint64(len(prefix))
		p.processGroup(s, st, v, prefix, nil, fc)
	}
	s.gate.Admit(key)
	return st
}

// processGroup runs one victim group through the three exact passes —
// identify, detect, block — accumulating tallies and stage timings
// into fc: the one implementation of identify → detect → block. Called
// from processSub per partitioned group and from gateRecord for
// admission replays, always with s.mu held. ctxs is the group's slice
// of the trace lane (nil without one); with it, passes B and C also
// mark the alarming and blocking records for traceGroup.
func (p *Pipeline) processGroup(s *shard, st *victimState, v topology.NodeID, group []wire.Record, ctxs []wire.TraceContext, fc *fastCtx) {
	now := p.cfg.Now()
	st.lastSeen = now
	if need := len(group); cap(s.srcs) < need {
		if need < wire.SlabCap {
			need = wire.SlabCap
		}
		s.srcs = make([]int32, 0, need)
	}
	var outs []Outcome
	if ctxs != nil {
		// A traced group is a slice of one slab, so SlabCap bounds it.
		// Zeroed scratch reads OutcomeIdentified: the ending of every
		// record passes B and C leave unmarked.
		if s.outs == nil {
			s.outs = make([]Outcome, wire.SlabCap)
		}
		outs = s.outs[:len(group)]
		clear(outs)
	}
	var dIdent, dDetect, dBlock time.Duration

	// Pass A: identify the whole group, then prefilter already-blocked
	// sources (skipped entirely while the blocklist is empty — the
	// steady state).
	srcs := s.srcs[:len(group)]
	id := st.ident
	for k := range group {
		if src, ok := id.ObserveMF(group[k].MF); ok {
			srcs[k] = int32(src)
			fc.identified++
		} else {
			srcs[k] = -1
			fc.undecodable++
		}
	}
	if !p.bl.Empty() {
		for k := range srcs {
			if srcs[k] >= 0 && p.bl.BlockedAt(topology.NodeID(srcs[k]), now) {
				srcs[k] = srcBlocked - srcs[k]
				fc.blockedHits++
			}
		}
	}
	if fc.timed {
		dIdent = fc.lap(&fc.durIdent)
	}

	// Pass B: feed both detectors. Blocked records skip them (dropped
	// upstream of the victim); undecodable ones still count toward its
	// arrival process.
	cu, en := st.cusum, st.entropy
	pk := &st.scratch
	newAlarm := st.alarmed
	var cuA, enA bool
	for k := range group {
		if srcs[k] <= srcBlocked {
			continue
		}
		pk.Hdr.Src = group[k].Src
		pk.Hdr.Proto = group[k].Proto
		cu.Observe(group[k].T, pk)
		en.Observe(group[k].T, pk)
		if !newAlarm && (cu.Alarmed() || en.Alarmed()) {
			newAlarm = true
			cuA, enA = cu.Alarmed(), en.Alarmed()
			if outs != nil {
				outs[k] = OutcomeAlarm
			}
		}
	}
	if newAlarm && !st.alarmed {
		st.alarmed = true
		fc.alarms++
		p.journalAlarmDetail(now, v, cuA, enA)
	}
	if fc.timed {
		dDetect = fc.lap(&fc.durDetect)
	}

	// Pass C: once the victim's alarm latch is set, block every
	// group source over threshold that isn't blocked already.
	if st.alarmed {
		for k := range srcs {
			if srcs[k] < 0 {
				continue
			}
			src := topology.NodeID(srcs[k])
			if cnt := id.Count(src); cnt > p.cfg.BlockThreshold && !p.bl.BlockedAt(src, now) {
				until := filter.Permanent
				if p.cfg.BlockTTL > 0 {
					until = now + p.cfg.BlockTTL.Nanoseconds()
				}
				p.bl.BlockUntilFor(src, until, v)
				fc.blocks++
				p.journalBlock(now, v, src, cnt, until, id)
				if outs != nil {
					// The block's trace is the source's first traced record
					// here: a forward gate's replay prefix rides untraced.
					j := k
					for j < len(srcs) && (srcs[j] != srcs[k] || ctxs[j].ID == 0) {
						j++
					}
					if j == len(srcs) {
						j = k
					}
					outs[j] = OutcomeBlock
					if ctxs[j].ID != 0 && ctxs[j].Sent > 0 {
						// True send-to-block latency: the exporter's original
						// send stamp survives forwarding, so this holds across
						// owner changes and cluster hops.
						p.observeDetection(uint64(fc.si), now-ctxs[j].Sent)
					}
				}
			}
		}
	}
	if fc.timed {
		dBlock = fc.lap(&fc.durBlock)
	}

	if outs != nil {
		p.traceGroup(s, fc, v, ctxs, srcs, outs, dIdent, dDetect, dBlock)
	}
}

// traceGroup is the trace lane's one extra pass over a processed
// group: it adds a trace per nonzero context to the shard's scratch,
// committed in order. Every worker span is its pass's wall time ÷ group
// length — the amortized figure the stage histograms record, so an
// exemplar read off a histogram bin resolves to a trace whose span
// falls in that bin. A group's traces therefore all stamp the same bins
// and the last one committed keeps them, so blocking records commit in
// a second sweep: the record that triggered a block is the one an
// operator following a bin's exemplar is after.
func (p *Pipeline) traceGroup(s *shard, fc *fastCtx, v topology.NodeID, ctxs []wire.TraceContext, srcs []int32, outs []Outcome, dIdent, dDetect, dBlock time.Duration) {
	n := int64(len(ctxs))
	for _, blocking := range [2]bool{false, true} {
		for k := range ctxs {
			if ctxs[k].ID == 0 || (outs[k] == OutcomeBlock) != blocking {
				continue
			}
			s.traces = p.addTrace(s.traces, &ctxs[k], fc.t0, v, fc.si)
			t := &s.traces[len(s.traces)-1]
			t.Ingest = fc.ingest
			t.Identify, t.Detect, t.Block = int64(dIdent)/n, int64(dDetect)/n, int64(dBlock)/n
			src, out := srcs[k], outs[k]
			switch {
			case src <= srcBlocked:
				src, out = srcBlocked-src, OutcomeBlockedHit
				t.Detect = SpanMissing // dropped before the detectors
			case src < 0 && out == OutcomeIdentified:
				out = OutcomeUndecodable
			}
			t.Source, t.Outcome = int64(src), out
		}
	}
}

// journalAlarmDetail records a victim's first detector firing from the
// alarm states the detect pass captured at the firing record.
func (p *Pipeline) journalAlarmDetail(now int64, victim topology.NodeID, cuAlarmed, enAlarmed bool) {
	if p.cfg.Journal == nil {
		return
	}
	detail := "cusum"
	switch {
	case cuAlarmed && enAlarmed:
		detail = "cusum+entropy"
	case enAlarmed:
		detail = "entropy"
	}
	p.cfg.Journal.Emit(Event{
		T: now, Type: EventAlarm,
		Victim: int64(victim), Source: -1,
		Detail: detail,
	})
}

// journalBlock records an auto-block with the victim's top-k identified
// sources at block time as evidence.
func (p *Pipeline) journalBlock(now int64, victim, src topology.NodeID, cnt, until int64, id *traceback.DDPMIdentifier) {
	if p.cfg.Journal == nil {
		return
	}
	p.cfg.Journal.Emit(Event{
		T: now, Type: EventBlock,
		Victim: int64(victim), Source: int64(src),
		Count: cnt, Until: until, Top: topCounts(id, p.cfg.JournalTopK),
	})
}

// topCounts pairs the identifier's k top sources with their tallies,
// sized by the sources it has seen, never by k (an admin-plane input).
func topCounts(id *traceback.DDPMIdentifier, k int) []SourceCount {
	top := id.TopSources(k)
	out := make([]SourceCount, 0, len(top))
	for _, n := range top {
		out = append(out, SourceCount{Node: int64(n), Count: id.Count(n)})
	}
	return out
}

// expireBlocks prunes lapsed blocklist entries, journaling each as a
// block-expired event; every expiry in the daemon comes through here.
func (p *Pipeline) expireBlocks(now int64) {
	for _, e := range p.bl.ExpireEntries(now) {
		if p.cfg.Journal != nil {
			p.cfg.Journal.Emit(Event{
				T: now, Type: EventBlockExpired,
				Victim: int64(e.Victim), Source: int64(e.Node), Until: e.Until,
			})
		}
	}
}

// materialize builds a victim's exact state from the scheme cached at
// New and registers it. The caller holds s.mu and must have checked
// p.schemeErr.
func (p *Pipeline) materialize(s *shard, victim topology.NodeID) *victimState {
	st := &victimState{
		ident:    traceback.NewDDPMIdentifier(p.scheme, victim),
		cusum:    detect.NewCUSUM(p.cfg.CUSUMWindow, p.cfg.CUSUMSlack, p.cfg.CUSUMThreshold),
		entropy:  nopDetector{},
		lastSeen: p.cfg.Now(),
	}
	if p.cfg.EntropyWindow > 0 {
		st.entropy = detect.NewEntropyDetector(p.cfg.EntropyWindow, p.cfg.EntropyDelta)
	}
	s.victims[victim] = st
	return st
}

// sweepShard retires every victim on the shard idle past VictimTTL:
// its exact state is dropped after a final snapshot goes to the
// journal and the victim-expired hook, while blocklist entries and
// past journal events survive. Renewed traffic re-materializes the
// victim through the admission gate. Runs on the shard worker, which
// takes s.mu for the scan and releases it before the hook fires.
func (p *Pipeline) sweepShard(s *shard) {
	ttl := p.cfg.VictimTTL.Nanoseconds()
	if ttl <= 0 {
		return
	}
	now := p.cfg.Now()
	var snaps []VictimSnapshot
	s.mu.Lock()
	for v, st := range s.victims {
		if now-st.lastSeen < ttl {
			continue
		}
		snap := snapshotState(v, st)
		snap.Expired = true
		snaps = append(snaps, snap)
		delete(s.victims, v)
	}
	s.mu.Unlock()
	if len(snaps) == 0 {
		return
	}
	p.C.VictimsExpired.Add(uint64(len(snaps)))
	hook := p.victimExpired.Load()
	for i := range snaps {
		snap := &snaps[i]
		if p.cfg.Journal != nil {
			p.cfg.Journal.Emit(Event{
				T: now, Type: EventVictimExpired,
				Victim: int64(snap.Victim), Source: -1,
				Count: snap.Identified(),
			})
		}
		if hook != nil {
			(*hook)(*snap)
		}
	}
}

// sweepLoop ticks TTL sweeps on real time. Enqueues are non-blocking:
// a shard whose queue is full is processing batches, and the in-band
// check in run will sweep it anyway.
func (p *Pipeline) sweepLoop() {
	defer p.wg.Done()
	iv := p.cfg.VictimTTL / 2
	if iv < time.Second {
		iv = time.Second
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	sweep := batch{ctl: p.sweepShard}
	for {
		select {
		case <-p.sweepQuit:
			return
		case <-t.C:
			p.mu.RLock()
			if !p.closed {
				for _, s := range p.shards {
					select {
					case s.ch <- sweep:
					default:
					}
				}
			}
			p.mu.RUnlock()
		}
	}
}

// SweepVictims synchronously runs one TTL sweep on every shard,
// returning once each worker has processed it — the deterministic
// entry point for fake-clock tests and admin tooling. No-op when
// VictimTTL is disabled or the pipeline is closed.
func (p *Pipeline) SweepVictims() {
	if p.cfg.VictimTTL <= 0 {
		return
	}
	done := make(chan struct{}, len(p.shards))
	sweep := batch{ctl: func(s *shard) {
		p.sweepShard(s)
		done <- struct{}{}
	}}
	sent := 0
	p.mu.RLock()
	if !p.closed {
		for _, s := range p.shards {
			s.ch <- sweep
			sent++
		}
	}
	p.mu.RUnlock()
	for i := 0; i < sent; i++ {
		<-done
	}
}

// SetVictimExpiredHook registers fn to receive the final snapshot
// (Expired set) of every victim the TTL sweep retires. It is called
// from the shard worker goroutine with no pipeline locks held; keep it
// non-blocking. Set it once before traffic; nil clears it.
func (p *Pipeline) SetVictimExpiredHook(fn func(VictimSnapshot)) {
	if fn == nil {
		p.victimExpired.Store(nil)
		return
	}
	p.victimExpired.Store(&fn)
}

// read runs fn on the victim's state under its shard's lock — the admin
// plane's one way in — or reports false when the pipeline holds none.
// fn must not call back into the pipeline.
func (p *Pipeline) read(victim topology.NodeID, fn func(*victimState)) bool {
	if len(p.shards) == 0 || victim < 0 {
		return false
	}
	s := p.shards[int(victim)%len(p.shards)]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.victims[victim]
	if st == nil {
		return false
	}
	fn(st)
	return true
}

// Alarmed reports whether the victim's detectors have fired.
func (p *Pipeline) Alarmed(victim topology.NodeID) (alarmed bool) {
	p.read(victim, func(st *victimState) { alarmed = st.cusum.Alarmed() || st.entropy.Alarmed() })
	return alarmed
}

// AlarmLatched reports whether the victim's alarm latch has ever set —
// the stable "this victim came under attack" bit that journal alarm
// events and /victims report, immune to a detector de-alarming as its
// window slides on.
func (p *Pipeline) AlarmLatched(victim topology.NodeID) (latched bool) {
	p.read(victim, func(st *victimState) { latched = st.alarmed })
	return latched
}

// TopSources returns the victim's k most frequently identified
// sources (empty before the victim's first record). Non-positive k is
// an admin-plane input; it clamps to an empty result rather than
// panicking downstream.
func (p *Pipeline) TopSources(victim topology.NodeID, k int) (top []topology.NodeID) {
	p.read(victim, func(st *victimState) { top = st.ident.TopSources(k) })
	return top
}

// SourcesAbove returns the victim's sources identified more than
// threshold times. A negative threshold is an admin-plane input that
// would otherwise select every source ever seen; it clamps to empty.
func (p *Pipeline) SourcesAbove(victim topology.NodeID, threshold int64) (above []topology.NodeID) {
	if threshold < 0 {
		return nil
	}
	p.read(victim, func(st *victimState) { above = st.ident.SourcesAbove(threshold) })
	return above
}

// Victims lists every victim node the pipeline has state for, sorted
// by node id so admin output is deterministic.
func (p *Pipeline) Victims() []topology.NodeID {
	var out []topology.NodeID
	for _, s := range p.shards {
		s.mu.Lock()
		for v := range s.victims {
			out = append(out, v)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VictimReport is the admin-plane view of one victim's state (the
// /victims endpoint and `ddpmd status`).
type VictimReport struct {
	Node        int64         `json:"node"`
	Alarmed     bool          `json:"alarmed"` // the latch, not the live detector
	Identified  int64         `json:"identified"`
	Undecodable int64         `json:"undecodable"`
	LastSeen    int64         `json:"last_seen_unix_nano"` // cfg.Now() of the latest record
	TopSources  []SourceCount `json:"top_sources"`
}

// VictimReports builds per-victim reports with up to k top sources
// each, sorted by node id. k <= 0 yields reports with no top-source
// evidence. Each row is built under one lock hold, so its counts and
// its top sources come from the same instant; the lock drops between
// rows, so a long report stalls a worker for one row at a time.
func (p *Pipeline) VictimReports(k int) []VictimReport {
	victims := p.Victims()
	out := make([]VictimReport, 0, len(victims))
	for _, v := range victims {
		// A victim retired since Victims() listed it gets no row.
		p.read(v, func(st *victimState) {
			r := VictimReport{
				Node:        int64(v),
				Alarmed:     st.alarmed,
				Identified:  st.ident.Observed(),
				Undecodable: st.ident.Undecodable(),
				LastSeen:    st.lastSeen,
			}
			if k > 0 {
				r.TopSources = topCounts(st.ident, k)
			}
			out = append(out, r)
		})
	}
	return out
}

// Snapshot copies the counters and derived gauges. It also prunes
// lapsed blocklist entries (journaling each expiry) so ActiveBlocks
// reflects live blocks only.
func (p *Pipeline) Snapshot() Snapshot {
	p.expireBlocks(p.cfg.Now())
	snap := Snapshot{
		Dropped:           p.C.Dropped.Load(),
		RejectedClosed:    p.C.RejectedClosed.Load(),
		TopoMismatch:      p.C.TopoMismatch.Load(),
		BadVictim:         p.C.BadVictim.Load(),
		Processed:         p.C.Processed.Load(),
		Identified:        p.C.Identified.Load(),
		Undecodable:       p.C.Undecodable.Load(),
		BlockedHits:       p.C.BlockedHits.Load(),
		Alarms:            p.C.Alarms.Load(),
		Blocks:            p.C.Blocks.Load(),
		SketchSuppressed:  p.C.SketchSuppressed.Load(),
		SketchReplayed:    p.C.SketchReplayed.Load(),
		SketchDeferred:    p.C.SketchDeferred.Load(),
		VictimsAdmitted:   p.C.VictimsAdmitted.Load(),
		VictimsExpired:    p.C.VictimsExpired.Load(),
		VictimsDetached:   p.C.VictimsDetached.Load(),
		SchemeUnbuildable: p.C.SchemeUnbuildable.Load(),
		ActiveBlocks:      p.bl.Len(),
	}
	// Accepted is derived rather than counted: every rejection path
	// already has a counter, so accepted = ingested − rejections.
	// Loading Ingested after the rejection counters keeps the subtrahend
	// a prefix of it under concurrent submits (no uint64 wraparound); a
	// racing scrape may transiently overcount Accepted by in-flight
	// submissions, which monotone-counter consumers tolerate.
	snap.Ingested = p.C.Ingested.Load()
	snap.Accepted = snap.Ingested - snap.TopoMismatch - snap.BadVictim - snap.RejectedClosed - snap.Dropped
	for _, s := range p.shards {
		snap.QueueDepths = append(snap.QueueDepths, len(s.ch))
		snap.ShardDropped = append(snap.ShardDropped, s.dropped.Load())
		var gated int64
		s.mu.Lock()
		snap.ShardProcessed = append(snap.ShardProcessed, s.processed)
		snap.ShardIdentified = append(snap.ShardIdentified, s.identified)
		if s.gate != nil {
			gated = int64(s.gate.Len())
			snap.SketchDecays += s.gate.Decays()
		}
		snap.VictimStates += len(s.victims)
		s.mu.Unlock()
		snap.ShardGatedVictims = append(snap.ShardGatedVictims, gated)
		snap.SketchHeavySlots += gated
	}
	return snap
}

// StageLatency returns a merged snapshot of one stage's histogram in
// the log2-nanosecond domain plus the exact nanosecond sum, or nil
// when latency recording is disabled. Stage indexes follow StageNames.
func (p *Pipeline) StageLatency(stage int) (h *stats.Histogram, sumNS int64) {
	if !p.sampleOn || stage < 0 || stage >= numStages {
		return nil, 0
	}
	return p.lat[stage].hist.Snapshot(), p.lat[stage].sumNS.Load()
}

// StageExemplars returns the nonzero exemplar trace ids currently
// stamped on one stage's histogram bins, or nil when latency recording
// is disabled. Every id resolves in the flight recorder until the ring
// evicts its trace. Stage indexes follow StageNames.
func (p *Pipeline) StageExemplars(stage int) []uint64 {
	if !p.sampleOn || stage < 0 || stage >= numStages {
		return nil
	}
	return p.lat[stage].hist.ExemplarIDs()
}

// nopDetector disables a detector slot.
type nopDetector struct{}

func (nopDetector) Name() string                        { return "nop" }
func (nopDetector) Observe(eventq.Time, *packet.Packet) {}
func (nopDetector) Alarmed() bool                       { return false }
func (nopDetector) AlarmedAt() (t eventq.Time)          { return t }
