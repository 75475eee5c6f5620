package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/pipeline"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a ddpmd operator sees, every metric on every
// workload, measured with benchmark tracing off.
var endToEnd = []metricDef{
	{"records_per_s", "rec/s", "higher", 0.25},
	{"cpu_ns_per_rec", "ns", "lower", 0.25},
	{"allocs_per_krec", "count", "lower", 0.15},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger: one module's cost or counter per row, taken
// from outside by timing public calls or reading public counters.
var perLayer = []metricDef{
	{Name: "ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "block_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "shed_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.encode_sealed.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_sealed.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_traced.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_forwarded.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wire.partition.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wire.partition.ns_per_call_16", Unit: "ns", Better: "lower"},
	{Name: "wire.slabpool.get_release_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.client.ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.client.frames", Unit: "count", Better: "higher"},
	{Name: "wire.client.resent", Unit: "count", Better: "lower"},
	{Name: "wire.client.reconnects", Unit: "count", Better: "lower"},
	{Name: "wire.client.lost", Unit: "count", Better: "lower"},
	{Name: "pipeline.submit.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "pipeline.submit.ns_per_call_16", Unit: "ns", Better: "lower"},
	{Name: "pipeline.drain.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "pipeline.traced_drain.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "pipeline.stage.ingest.p50_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.stage.identify.p50_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.stage.detect.p50_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.stage.block.p50_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.queue.depth_max", Unit: "count", Better: "lower"},
	{Name: "pipeline.queue.depth_mean", Unit: "count", Better: "lower"},
	{Name: "pipeline.dropped", Unit: "count", Better: "lower"},
	{Name: "pipeline.rejected", Unit: "count", Better: "lower"},
	{Name: "pipeline.blocked_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.sketch_suppressed_share", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.sketch_deferred", Unit: "count", Better: "lower"},
	{Name: "pipeline.victim_states", Unit: "count", Better: "lower"},
	{Name: "pipeline.journal.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.journal.block_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.journal.dropped", Unit: "count", Better: "lower"},
	{Name: "pipeline.flight.retained", Unit: "count", Better: "lower"},
	{Name: "sketch.countmin_add.ns", Unit: "ns", Better: "lower"},
	{Name: "sketch.spacesaving_touch.ns", Unit: "ns", Better: "lower"},
	{Name: "traceback.observe_mf.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "detect.cusum_observe.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "detect.entropy_observe.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "filter.blocked_at.ns", Unit: "ns", Better: "lower"},
	{Name: "filter.block_until.ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.route.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "cluster.ring_owner.ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.forwarded_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.forward_lost", Unit: "count", Better: "lower"},
	{Name: "cluster.forward_suppressed", Unit: "count", Better: "lower"},
	{Name: "cluster.forward_queue_len_max", Unit: "count", Better: "lower"},
	{Name: "cluster.hop_cost.cpu_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.goroutines_max", Unit: "count", Better: "lower"},
	{Name: "process.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "bench.generator.ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.layer_sum.cpu_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "bench.residual.cpu_ns_per_rec", Unit: "ns", Better: "lower"},
}

// result is one run of one workload.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	StreamHash string             `json:"stream_fnv64a"`
	Traced     bool               `json:"benchmark_tracing"`
	Records    int64              `json:"timed_records"`
	Frames     int64              `json:"timed_frames"`
	AckSamples int                `json:"ack_samples"`
	LagSamples int                `json:"block_lag_samples"`
	Correct    bool               `json:"correct"`
	Failures   []string           `json:"failures,omitempty"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Context    map[string]float64 `json:"context,omitempty"` // untraced runs: the latency medians and whole-phase figures, ungated
}

// quantile is the nearest-rank quantile of an ascending sample.
func quantile[T int32 | int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 && n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return quantile(s, 0.5)
}

// lag is one probe's block lag: the journal's source_blocked.T minus the
// wall clock read just before the Send of the probe's trigger frame.
type lag struct {
	sentAt int64 // unix ns
	ns     int64
}

// quiet is the statistic every time-based metric of a run reports: the
// phase is cut into half-second slices, the metric is taken per slice,
// and the quantile q of the slices is the result: the quartile on the
// good side (0.75 for a rate, 0.25 for a cost), so that slices the
// shared host disturbed land in the other three quarters. A run with
// fewer than four whole slices falls back to its whole-run value.
func quiet(perSlice []float64, q, wholeRun float64) float64 {
	if len(perSlice) < 4 {
		return wholeRun
	}
	s := append([]float64(nil), perSlice...)
	sort.Float64s(s)
	return quantile(s, q)
}

// runMetrics turns a phase run with benchmark tracing off, and the lags
// of the probes triggered in it, into the metrics taken from the run as
// a whole: the end-to-end ones (setup_s excepted) and the two latency
// medians.
func runMetrics(ps phaseStats, lags []lag, heap0 uint64) map[string]float64 {
	var rate, cpu, ack, blockLag []float64
	var allAcks []int32
	for i := 0; i+1 < len(ps.marks); i++ {
		a, b := ps.marks[i], ps.marks[i+1]
		allAcks = append(allAcks, ps.acks[i]...)
		n := float64(b.handled - a.handled)
		if b.t.Sub(a.t) < segment/2 || n <= 0 {
			continue
		}
		rate = append(rate, n/b.t.Sub(a.t).Seconds())
		cpu = append(cpu, float64((b.cpu-a.cpu).Nanoseconds())/n)
		if len(ps.acks[i]) >= 5 {
			ack = append(ack, quantile(ps.acks[i], 0.5)/1e3)
		}
		var in []int64
		for _, l := range lags {
			if l.sentAt >= a.t.UnixNano() && l.sentAt < b.t.UnixNano() {
				in = append(in, l.ns) // lags is ascending by ns, so in is too
			}
		}
		if len(in) >= 5 {
			blockLag = append(blockLag, quantile(in, 0.5)/1e3)
		}
	}
	sort.Slice(allAcks, func(i, j int) bool { return allAcks[i] < allAcks[j] })
	var ns []int64
	for _, l := range lags {
		if l.sentAt >= ps.marks[0].t.UnixNano() && l.sentAt < ps.marks[len(ps.marks)-1].t.UnixNano() {
			ns = append(ns, l.ns)
		}
	}
	return map[string]float64{
		"records_per_s":    quiet(rate, 0.75, float64(ps.records)/ps.wall.Seconds()),
		"cpu_ns_per_rec":   quiet(cpu, 0.25, perRec(ps.cpu, ps.records)),
		"ack_p50_us":       quiet(ack, 0.25, quantile(allAcks, 0.5)/1e3),
		"block_lag_p50_us": quiet(blockLag, 0.25, quantile(ns, 0.5)/1e3),
		"allocs_per_krec":  float64(ps.mallocs) / (float64(ps.records) / 1e3),
		"heap_live_mb":     (float64(ps.heapLive) - float64(heap0)) / (1 << 20),
	}
}

// discard tears down an instance whose results nobody will read (an
// earlier set-up, a failed one, the single-daemon reference), so what
// its sessions and daemons say on the way out is dropped.
func (in *instance) discard() {
	for _, c := range in.clients {
		if c != nil {
			_ = c.Close()
		}
	}
	_ = in.fl.stop()
}

// runConfig is one run's knobs.
type runConfig struct {
	seed      uint64
	seconds   float64       // timed phase length
	records   int64         // > 0: run this many timed records instead
	fewDecoys bool          // cut scan_carpet's 2 032 decoys, 1.5 GB of victim state, to 32 (tests)
	setups    int           // how often to set up; setup_s is the median
	layers    bool          // benchmark tracing on: spans, gauges, layer walk
	walkBatch time.Duration // > 0: override the layer walk's timed-batch length (tests)
}

// mixFor is the workload's mix with the run's overrides applied.
func (cfg runConfig) mixFor(w workload) mix {
	m := w.mix()
	if cfg.fewDecoys {
		m.decoys = min(m.decoys, 16)
	}
	return m
}

func perRec(d time.Duration, records int64) float64 {
	return float64(d.Nanoseconds()) / float64(max(records, 1))
}

// runWorkload is one run: set up (several times, untraced), drive the
// timed phase, gate it, and assemble the metrics. Untraced it yields the
// end-to-end metrics; traced, the per-layer ones.
func runWorkload(w workload, cfg runConfig, spans *spanLog) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Traced: cfg.layers, Metrics: make(map[string]float64)}
	root := spans.begin("workload", 0)
	defer spans.end(root)

	var setups []float64
	var inst *instance
	for i := 0; i < max(cfg.setups, 1); i++ {
		if inst != nil {
			inst.discard()
			runtime.GC()
		}
		var err error
		if inst, err = setUp(w, cfg, spans, root); err != nil {
			return nil, err
		}
		setups = append(setups, inst.setupS)
	}
	res.StreamHash = fmt.Sprintf("%016x", inst.st.hash)

	var ps, untraced phaseStats
	var err error
	if cfg.layers {
		// The first half runs with spans off, the second with every Send
		// spanned and the gauges sampled; the gap is the tracing cost.
		if untraced, err = inst.phase("run.untraced", cfg.seconds/2, cfg.records/2, false, nil, root); err == nil {
			ps, err = inst.phase("run.traced", cfg.seconds/2, cfg.records/2, true, spans, root)
		}
	} else {
		ps, err = inst.phase("run", cfg.seconds, cfg.records, false, nil, root)
		untraced = ps
	}
	if err != nil {
		inst.discard()
		return nil, err
	}
	ob, err := inst.finish()
	if err != nil {
		return nil, err
	}
	res.Records, res.Frames = ps.records, ps.frames
	res.AckSamples, res.LagSamples = int(ps.frames), len(ob.lags)
	res.Failures, res.Correct = ob.failures, len(ob.failures) == 0
	res.Attempted = ob.sentTotal
	res.Failed = ob.shed + int64(ob.unblocked)*probeRecords

	if !cfg.layers {
		all := runMetrics(ps, ob.lags, inst.heap0)
		all["setup_s"] = median(setups)
		for _, d := range endToEnd {
			res.Metrics[d.Name] = all[d.Name]
		}
		res.Context = map[string]float64{
			"ack_p50_us": all["ack_p50_us"], "block_lag_p50_us": all["block_lag_p50_us"],
			"whole_run.records_per_s":  float64(ps.records) / ps.wall.Seconds(),
			"whole_run.cpu_ns_per_rec": perRec(ps.cpu, ps.records),
			"whole_run.cpu_util":       ps.cpu.Seconds() / (ps.wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
		}
		return res, nil
	}

	rows, err := layerWalk(w, cfg, spans, root)
	if err != nil {
		return nil, err
	}
	m := rows
	res.Metrics = m
	var snap pipeline.Snapshot // fleet-wide sums
	for _, s := range ob.snaps {
		snap.Processed += s.Processed
		snap.Dropped += s.Dropped
		snap.BadVictim += s.BadVictim + s.TopoMismatch
		snap.BlockedHits += s.BlockedHits
		snap.SketchSuppressed += s.SketchSuppressed
		snap.SketchDeferred += s.SketchDeferred
		snap.VictimStates += s.VictimStates
	}
	fromRun := runMetrics(untraced, ob.lags, inst.heap0)
	m["ack_p50_us"], m["block_lag_p50_us"] = fromRun["ack_p50_us"], fromRun["block_lag_p50_us"]
	m["shed_share"] = float64(ob.shed) / float64(max(ob.sentTotal, 1))
	var acks []int32
	for _, a := range ps.acks {
		acks = append(acks, a...)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	m["wire.client.ack_p99_us"] = quantile(acks, 0.99) / 1e3
	m["wire.client.frames"] = float64(ps.frames)
	m["wire.client.resent"] = float64(ob.resent)
	m["wire.client.reconnects"] = float64(ob.reconnects)
	m["wire.client.lost"] = float64(ob.lost)
	for i, name := range pipeline.StageNames {
		m["pipeline.stage."+name+".p50_ns"] = ob.stageP50[i]
	}
	m["pipeline.queue.depth_max"] = float64(ps.depthMax)
	m["pipeline.queue.depth_mean"] = ps.depthMean
	m["pipeline.dropped"] = float64(snap.Dropped)
	m["pipeline.rejected"] = float64(snap.BadVictim)
	m["pipeline.blocked_hit_share"] = float64(snap.BlockedHits) / float64(max(snap.Processed, 1))
	m["pipeline.sketch_suppressed_share"] = float64(snap.SketchSuppressed) / float64(max(snap.Processed, 1))
	m["pipeline.sketch_deferred"] = float64(snap.SketchDeferred)
	m["pipeline.victim_states"] = float64(snap.VictimStates)
	m["pipeline.journal.block_lag_p99_us"] = 0
	if n := len(ob.lags); n > 0 {
		m["pipeline.journal.block_lag_p99_us"] = float64(ob.lags[min(n*99/100, n-1)].ns) / 1e3
	}
	m["pipeline.journal.dropped"] = float64(ob.journalDropped)
	m["pipeline.flight.retained"] = float64(ob.retained)
	m["cluster.forwarded_share"] = float64(ob.status.ForwardedOut) / float64(max(ob.sentTotal, 1))
	m["cluster.forward_lost"] = float64(ob.status.ForwardLost + ob.status.ForwardDropped)
	m["cluster.forward_suppressed"] = float64(ob.status.ForwardSuppress)
	m["cluster.forward_queue_len_max"] = float64(ps.fwdQueueMax)
	m["process.gc_pause_total_ms"] = float64(ps.gcPause.Nanoseconds()) / 1e6
	m["process.gc_cycles"] = float64(ps.gcCycles)
	m["process.goroutines_max"] = float64(ps.goroutinesMax)
	m["process.cpu_util"] = untraced.cpu.Seconds() / (untraced.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	tracedRate := float64(ps.records) / ps.wall.Seconds()
	untracedRate := float64(untraced.records) / untraced.wall.Seconds()
	m["bench.trace_overhead_share"] = 1 - tracedRate/untracedRate

	cpu := perRec(untraced.cpu, untraced.records)
	m["cluster.hop_cost.cpu_ns_per_rec"] = 0
	if w.fleet > 1 {
		// The same stream against one daemon, long enough for a CPU
		// figure: what a record costs without the hop.
		single := w
		single.fleet = 1
		ref, err := setUp(single, cfg, spans, root)
		if err != nil {
			return nil, err
		}
		rp, err := ref.phase("run.single_daemon", min(cfg.seconds/4, 2), cfg.records/4, false, nil, root)
		ref.discard()
		if err != nil {
			return nil, err
		}
		m["cluster.hop_cost.cpu_ns_per_rec"] = cpu - perRec(rp.cpu, rp.records)
	}

	// Σ layers on the path against the whole path's CPU per record. The
	// rows are wall time of single calls, so on a busy two-core box they
	// approximate CPU; what is left is sockets, the client's buffering,
	// acks, hand-offs and the runtime.
	sum := m["bench.generator.ns_per_rec"] + m["wire.encode_sealed.ns_per_rec"] + m["pipeline.submit.ns_per_rec"]
	if w.traced {
		sum += m["wire.decode_traced.ns_per_rec"] + m["pipeline.traced_drain.ns_per_rec"]
	} else {
		sum += m["wire.decode_sealed.ns_per_rec"] + m["pipeline.drain.ns_per_rec"]
	}
	if w.fleet > 1 {
		sum += m["cluster.route.ns_per_rec"] + m["cluster.forwarded_share"]*m["wire.decode_forwarded.ns_per_rec"]
	}
	m["bench.layer_sum.cpu_ns_per_rec"] = sum
	m["bench.residual.cpu_ns_per_rec"] = cpu - sum
	return res, nil
}
