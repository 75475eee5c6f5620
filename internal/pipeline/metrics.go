package pipeline

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/stats"
)

// promEscape escapes a string for use as a Prometheus label value:
// backslash, double quote and newline per the text exposition format.
func promEscape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WritePrometheus renders the pipeline state in Prometheus text
// exposition format: counters, per-shard labeled counters and queue
// gauges, the sliding-window ingest rate, per-stage latency histograms
// with p50/p95/p99 summaries, and journal health when a journal is
// configured. uptime is how long the pipeline has been serving. Series
// are emitted in a fixed order so the exposition is golden-testable.
func (p *Pipeline) WritePrometheus(w io.Writer, uptime time.Duration) {
	s := p.Snapshot()
	now := p.cfg.Now()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("ddpmd_ingested_total", "records offered to the pipeline", s.Ingested)
	counter("ddpmd_accepted_total", "records that passed validation and were enqueued", s.Accepted)
	counter("ddpmd_dropped_total", "records shed by shard-queue backpressure", s.Dropped)
	counter("ddpmd_rejected_closed_total", "records submitted after pipeline close", s.RejectedClosed)
	counter("ddpmd_topo_mismatch_total", "records rejected for a foreign topology id", s.TopoMismatch)
	counter("ddpmd_bad_victim_total", "records rejected for an out-of-range victim node", s.BadVictim)
	counter("ddpmd_processed_total", "records consumed by shard workers", s.Processed)
	counter("ddpmd_identified_total", "records whose MF decoded to an in-topology source", s.Identified)
	counter("ddpmd_undecodable_total", "records whose MF decode was rejected", s.Undecodable)
	counter("ddpmd_blocked_hits_total", "records dropped because their source was blocked", s.BlockedHits)
	counter("ddpmd_alarms_total", "victims whose detectors have fired", s.Alarms)
	counter("ddpmd_blocks_total", "auto-block insertions into the TTL blocklist", s.Blocks)
	counter("ddpmd_sketch_suppressed_total", "records tallied sketch-only below the admission threshold", s.SketchSuppressed)
	counter("ddpmd_sketch_replayed_total", "buffered records replayed through the exact path on admission", s.SketchReplayed)
	counter("ddpmd_sketch_deferred_total", "admissions deferred at the per-shard victim-state cap", s.SketchDeferred)
	counter("ddpmd_victims_admitted_total", "victim states materialized through the admission gate", s.VictimsAdmitted)
	counter("ddpmd_victims_expired_total", "idle victim states swept back to sketch-only", s.VictimsExpired)
	counter("ddpmd_victims_detached_total", "victim states handed off to a new cluster owner", s.VictimsDetached)
	counter("ddpmd_sketch_decays_total", "windowed halvings of the admission sketches", s.SketchDecays)
	counter("ddpmd_scheme_unbuildable_total", "records dropped because the marking scheme cannot cover the fabric", s.SchemeUnbuildable)

	gauge("ddpmd_active_blocks", "blocklist entries currently in force", float64(s.ActiveBlocks))
	gauge("ddpmd_victim_states", "victims with exact per-victim state materialized", float64(s.VictimStates))
	gauge("ddpmd_sketch_heavy_slots", "destinations tracked in the space-saving tables below admission", float64(s.SketchHeavySlots))
	secs := uptime.Seconds()
	gauge("ddpmd_uptime_seconds", "time since the pipeline started", secs)

	// The rate gauge keeps its historic name but is no longer a
	// lifetime mean: each scrape samples the accepted counter and the
	// gauge reports the slope over the sliding window. Before the window
	// has two samples the slope is undefined and the gauge reports 0 —
	// never a lifetime-mean spike or NaN on a cold daemon's first scrape.
	p.rateWin.Observe(now, s.Accepted)
	rate, _ := p.rateWin.Rate()
	gauge("ddpmd_ingest_rate",
		fmt.Sprintf("accepted (post-validation) records/sec over a sliding %gs window", rateWindow.Seconds()),
		rate)

	fmt.Fprintf(w, "# HELP ddpmd_topology_info fabric this pipeline identifies sources in\n"+
		"# TYPE ddpmd_topology_info gauge\nddpmd_topology_info{topology=\"%s\",topo_id=\"%#08x\"} 1\n",
		promEscape(p.cfg.Net.Name()), p.topoID)

	shardSeries := func(name, typ, help string, vals func(i int) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i := range p.shards {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %s\n", name, i, vals(i))
		}
	}
	shardSeries("ddpmd_shard_queue_depth", "gauge", "record sub-batches waiting per shard",
		func(i int) string { return fmt.Sprintf("%d", s.QueueDepths[i]) })
	shardSeries("ddpmd_shard_processed_total", "counter", "records consumed per shard worker",
		func(i int) string { return fmt.Sprintf("%d", s.ShardProcessed[i]) })
	shardSeries("ddpmd_shard_identified_total", "counter", "records identified per shard worker",
		func(i int) string { return fmt.Sprintf("%d", s.ShardIdentified[i]) })
	shardSeries("ddpmd_shard_dropped_total", "counter", "records shed per shard by backpressure",
		func(i int) string { return fmt.Sprintf("%d", s.ShardDropped[i]) })
	shardSeries("ddpmd_shard_gated_victims", "gauge", "sketch-gated destinations tracked per shard",
		func(i int) string { return fmt.Sprintf("%d", s.ShardGatedVictims[i]) })

	p.writeLatency(w)
	p.writeDetectionLatency(w)

	if fr := p.fr; fr != nil {
		counter("ddpmd_trace_observed_total", "completed traces offered to the flight recorder", fr.Observed())
		counter("ddpmd_trace_retained_total", "traces tail sampling kept in the flight recorder", fr.Retained())
		counter("ddpmd_trace_sampled_total", "boring traces retained by the 1-in-N sampler", fr.Sampled())
		counter("ddpmd_trace_evicted_total", "retained traces overwritten by the bounded ring", fr.Evicted())
	}

	if j := p.cfg.Journal; j != nil {
		counter("ddpmd_journal_written_total", "attack-audit events flushed to the journal", j.Written())
		counter("ddpmd_journal_dropped_total", "attack-audit events shed by the bounded journal queue", j.Dropped())
	}
}

// writeDetectionLatency emits the send-to-block latency histogram: the
// wall-clock delta between a traced record's exporter send stamp and
// the block decision it pushed over the threshold, unsampled, observed
// on whichever node owned the victim at block time (the send stamp
// rides the forward lane, so the series stays correct across owner
// changes). Absent when tracing is disabled.
func (p *Pipeline) writeDetectionLatency(w io.Writer) {
	if p.detLat.hist == nil {
		return
	}
	h := p.detLat.hist.Snapshot()
	const name = "ddpmd_detection_latency_seconds"
	fmt.Fprintf(w, "# HELP %s exporter send to block decision, across cluster hops\n# TYPE %s histogram\n", name, name)
	bins := h.Bins()
	under, _ := h.OutOfRange()
	cum := under
	for i, c := range bins {
		cum += c
		le := math.Exp2(p.detLat.hist.BinUpperBound(i)) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=\"%.9g\"} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.N())
	fmt.Fprintf(w, "%s_sum %.9g\n", name, float64(p.detLat.sumNS.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.N())
}

// writeLatency emits the per-stage latency histograms. Buckets live in
// the log2-ns domain internally; the exposition exponentiates the bin
// edges back to seconds, folds underflow into the first bucket, and
// adds a summary series with interpolated p50/p95/p99.
func (p *Pipeline) writeLatency(w io.Writer) {
	if !p.sampleOn {
		return
	}
	var snaps [numStages]*stats.Histogram
	for stage := range snaps {
		snaps[stage] = p.lat[stage].hist.Snapshot()
	}
	const histName = "ddpmd_stage_latency_seconds"
	fmt.Fprintf(w, "# HELP %s sampled per-stage processing latency (1 in %d records)\n# TYPE %s histogram\n",
		histName, p.sampleMask+1, histName)
	for stage := 0; stage < numStages; stage++ {
		h := snaps[stage]
		label := StageNames[stage]
		bins := h.Bins()
		under, _ := h.OutOfRange()
		cum := under // sub-range observations belong in every finite bucket
		for i, c := range bins {
			cum += c
			le := math.Exp2(p.lat[stage].hist.BinUpperBound(i)) / 1e9
			fmt.Fprintf(w, "%s_bucket{stage=\"%s\",le=\"%.9g\"} %d", histName, label, le, cum)
			// OpenMetrics-style exemplar: the last retained trace whose
			// span landed in this bucket, so a slow bucket links straight
			// to one concrete /debug/traces entry.
			if id, x := p.lat[stage].hist.Exemplar(i); id != 0 {
				fmt.Fprintf(w, " # {trace_id=\"%016x\"} %.9g", id, math.Exp2(x)/1e9)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s_bucket{stage=\"%s\",le=\"+Inf\"} %d\n", histName, label, h.N())
		fmt.Fprintf(w, "%s_sum{stage=\"%s\"} %.9g\n", histName, label, float64(p.lat[stage].sumNS.Load())/1e9)
		fmt.Fprintf(w, "%s_count{stage=\"%s\"} %d\n", histName, label, h.N())
	}

	const sumName = "ddpmd_stage_latency_summary_seconds"
	fmt.Fprintf(w, "# HELP %s interpolated latency quantiles per stage\n# TYPE %s summary\n", sumName, sumName)
	for stage := 0; stage < numStages; stage++ {
		h := snaps[stage]
		label := StageNames[stage]
		for _, q := range [...]float64{0.5, 0.95, 0.99} {
			v := 0.0
			if h.N() > 0 {
				v = math.Exp2(h.Percentile(q*100)) / 1e9
			}
			fmt.Fprintf(w, "%s{stage=\"%s\",quantile=\"%g\"} %.9g\n", sumName, label, q, v)
		}
		fmt.Fprintf(w, "%s_sum{stage=\"%s\"} %.9g\n", sumName, label, float64(p.lat[stage].sumNS.Load())/1e9)
		fmt.Fprintf(w, "%s_count{stage=\"%s\"} %d\n", sumName, label, h.N())
	}
}
