package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/pipeline"
)

// runStatus renders a running daemon's admin plane as a human-readable
// report: health, the headline counters from /metrics, per-stage
// latency quantiles, and the per-victim view from /victims.
func runStatus(args []string) {
	fs := flag.NewFlagSet("ddpmd status", flag.ExitOnError)
	var (
		httpAddr = fs.String("http", "127.0.0.1:7421", "admin plane address of the daemon")
		topK     = fs.Int("k", 5, "top identified sources listed per victim")
		timeout  = fs.Duration("timeout", 5*time.Second, "HTTP timeout")
	)
	fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	// /healthz answers 503 when draining or failed; its body says which.
	code, health, err := adminGet(client, *httpAddr, "/healthz", nil)
	if code == 0 {
		fatal(fmt.Errorf("status: %w", err))
	}
	_, metricsBody, err := adminGet(client, *httpAddr, "/metrics", nil)
	if err != nil {
		fatal(fmt.Errorf("status: %w", err))
	}
	m := parseMetrics(metricsBody)

	fmt.Printf("ddpmd at %s — %s", *httpAddr, strings.TrimSpace(string(health)))
	if code != http.StatusOK {
		fmt.Printf(" (HTTP %d)", code)
	}
	if up, ok := m.value("ddpmd_uptime_seconds", nil); ok {
		fmt.Printf(", up %s", (time.Duration(up) * time.Second).String())
	}
	fmt.Println()
	for _, s := range m.series["ddpmd_topology_info"] {
		fmt.Printf("fabric %s (topo id %s)\n", s.labels["topology"], s.labels["topo_id"])
	}
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	row := func(label, name string) {
		if v, ok := m.value(name, nil); ok {
			fmt.Fprintf(tw, "  %s\t%.0f\n", label, v)
		}
	}
	fmt.Println("pipeline:")
	row("ingested", "ddpmd_ingested_total")
	row("accepted", "ddpmd_accepted_total")
	row("processed", "ddpmd_processed_total")
	row("identified", "ddpmd_identified_total")
	row("undecodable", "ddpmd_undecodable_total")
	row("dropped (backpressure)", "ddpmd_dropped_total")
	row("blocked hits", "ddpmd_blocked_hits_total")
	row("alarms", "ddpmd_alarms_total")
	row("blocks", "ddpmd_blocks_total")
	row("active blocks", "ddpmd_active_blocks")
	if v, ok := m.value("ddpmd_ingest_rate", nil); ok {
		fmt.Fprintf(tw, "  ingest rate\t%.1f rec/s\n", v)
	}
	row("journal events written", "ddpmd_journal_written_total")
	row("journal events dropped", "ddpmd_journal_dropped_total")
	row("traces retained", "ddpmd_trace_retained_total")
	row("traces sampled (boring)", "ddpmd_trace_sampled_total")
	row("traces evicted", "ddpmd_trace_evicted_total")
	tw.Flush()

	if stages := m.stageQuantiles(); len(stages) > 0 {
		fmt.Println("\nstage latency (sampled):")
		tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  stage\tp50\tp95\tp99\tsamples")
		for _, st := range stages {
			fmt.Fprint(tw, renderStageRow(st))
		}
		tw.Flush()
	}

	if shardRows := m.shardRows(); len(shardRows) > 0 {
		fmt.Println("\nshards:")
		tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  shard\tprocessed\tidentified\tdropped\tqueue")
		for _, r := range shardRows {
			fmt.Fprintf(tw, "  %d\t%.0f\t%.0f\t%.0f\t%.0f\n",
				r.shard, r.processed, r.identified, r.dropped, r.queue)
		}
		tw.Flush()
	}

	var reports []pipeline.VictimReport
	if _, _, err := adminGet(client, *httpAddr, fmt.Sprintf("/victims?k=%d", *topK), &reports); err != nil {
		fatal(fmt.Errorf("status: %w", err))
	}
	fmt.Printf("\nvictims (%d):\n", len(reports))
	tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  node\talarmed\tidentified\tundecodable\ttop sources")
	for _, r := range reports {
		var tops []string
		for _, s := range r.TopSources {
			tops = append(tops, fmt.Sprintf("%d(%d)", s.Node, s.Count))
		}
		fmt.Fprintf(tw, "  %d\t%v\t%d\t%d\t%s\n",
			r.Node, r.Alarmed, r.Identified, r.Undecodable, strings.Join(tops, " "))
	}
	tw.Flush()
}

// renderStageRow formats one stage's latency line. A histogram with no
// samples renders every quantile as "-" rather than a misleading "0s":
// nothing was measured, so nothing should look measured.
func renderStageRow(st stageQuantiles) string {
	if st.count == 0 {
		return fmt.Sprintf("  %s\t-\t-\t-\t0\n", st.name)
	}
	return fmt.Sprintf("  %s\t%s\t%s\t%s\t%.0f\n", st.name,
		fmtLatency(st.q[0]), fmtLatency(st.q[1]), fmtLatency(st.q[2]), st.count)
}

// fmtLatency prints a latency in seconds at a readable scale.
func fmtLatency(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d <= 0:
		return "-"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}

// metricSample is one exposition line: its label set and value.
type metricSample struct {
	labels map[string]string
	value  float64
}

type metricsDump struct {
	series map[string][]metricSample
}

// parseMetrics consumes the subset of the Prometheus text format ddpmd
// emits: `name value` and `name{k="v",...} value` lines, comments
// skipped. Unparseable lines are ignored — status should degrade, not
// die, on a newer daemon.
func parseMetrics(body []byte) *metricsDump {
	m := &metricsDump{series: make(map[string][]metricSample)}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Strip OpenMetrics exemplar suffixes (` # {trace_id="..."} v`)
		// so the value parse below sees the sample value, not the
		// exemplar's.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		name, labels := key, map[string]string(nil)
		if b := strings.IndexByte(key, '{'); b >= 0 && strings.HasSuffix(key, "}") {
			name = key[:b]
			labels = parseLabels(key[b+1 : len(key)-1])
		}
		m.series[name] = append(m.series[name], metricSample{labels: labels, value: val})
	}
	return m
}

// parseLabels splits `k="v",k2="v2"`. Values with escaped quotes are
// unescaped the same way the exposition escapes them.
func parseLabels(s string) map[string]string {
	out := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return out
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		out[key] = val.String()
		s = rest[i:]
		s = strings.TrimPrefix(s, `"`)
		s = strings.TrimPrefix(s, ",")
	}
	return out
}

// value finds the first sample of name whose labels include want.
func (m *metricsDump) value(name string, want map[string]string) (float64, bool) {
	for _, s := range m.series[name] {
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value, true
		}
	}
	return 0, false
}

// shardRow is one shard's counters joined across the per-shard series.
type shardRow struct {
	shard                          int
	processed, identified, dropped float64
	queue                          float64
}

// shardRows joins the shard-labeled series into one row per shard,
// sorted numerically by shard index — lexical label order would file
// shard 10 between 1 and 2 once a daemon runs more than ten shards.
func (m *metricsDump) shardRows() []shardRow {
	byShard := make(map[int]*shardRow)
	get := func(labels map[string]string) *shardRow {
		n, err := strconv.Atoi(labels["shard"])
		if err != nil {
			return nil
		}
		r := byShard[n]
		if r == nil {
			r = &shardRow{shard: n}
			byShard[n] = r
		}
		return r
	}
	for _, s := range m.series["ddpmd_shard_processed_total"] {
		if r := get(s.labels); r != nil {
			r.processed = s.value
		}
	}
	for _, s := range m.series["ddpmd_shard_identified_total"] {
		if r := get(s.labels); r != nil {
			r.identified = s.value
		}
	}
	for _, s := range m.series["ddpmd_shard_dropped_total"] {
		if r := get(s.labels); r != nil {
			r.dropped = s.value
		}
	}
	for _, s := range m.series["ddpmd_shard_queue_depth"] {
		if r := get(s.labels); r != nil {
			r.queue = s.value
		}
	}
	out := make([]shardRow, 0, len(byShard))
	for _, r := range byShard {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].shard < out[j].shard })
	return out
}

type stageQuantiles struct {
	name  string
	q     [3]float64 // p50, p95, p99
	count float64
}

// stageQuantiles collects the per-stage latency summary series in a
// stable order.
func (m *metricsDump) stageQuantiles() []stageQuantiles {
	byStage := make(map[string]*stageQuantiles)
	for _, s := range m.series["ddpmd_stage_latency_summary_seconds"] {
		stage := s.labels["stage"]
		if stage == "" {
			continue
		}
		st := byStage[stage]
		if st == nil {
			st = &stageQuantiles{name: stage}
			byStage[stage] = st
		}
		switch s.labels["quantile"] {
		case "0.5":
			st.q[0] = s.value
		case "0.95":
			st.q[1] = s.value
		case "0.99":
			st.q[2] = s.value
		}
	}
	for _, s := range m.series["ddpmd_stage_latency_summary_seconds_count"] {
		if st := byStage[s.labels["stage"]]; st != nil {
			st.count = s.value
		}
	}
	out := make([]stageQuantiles, 0, len(byStage))
	for _, st := range byStage {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
