package main

// The client commands keep no schema of their own: each decodes the
// type the daemon encodes (here pipeline.TraceJSON), so a renamed field
// fails the build instead of reading zero. encoding/json already skips
// keys a newer daemon adds and leaves absent ones zero.

import (
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/pipeline"
)

// runTrace fetches retained traces from a daemon's /debug/traces and
// renders them as span-timeline table rows, newest first.
func runTrace(args []string) {
	fs := flag.NewFlagSet("ddpmd trace", flag.ExitOnError)
	var (
		httpAddr = fs.String("http", "127.0.0.1:7421", "admin plane address of the daemon")
		victim   = fs.String("victim", "", "only traces for this victim node")
		source   = fs.String("source", "", "only traces for this identified source node")
		outcome  = fs.String("outcome", "", "only traces with this outcome ("+strings.Join(pipeline.OutcomeNames(), ", ")+")")
		id       = fs.String("id", "", "one trace by hex id (e.g. off a /metrics exemplar)")
		limit    = fs.Int("limit", 50, "max traces shown (0 = all retained)")
		minCount = fs.Int("min", 0, "exit nonzero unless at least this many traces matched")
		timeout  = fs.Duration("timeout", 5*time.Second, "HTTP timeout")
		jsonOut  = fs.Bool("json", false, "emit the raw /debug/traces JSON instead of the table")
	)
	fs.Parse(args)

	q := url.Values{}
	for k, v := range map[string]string{"victim": *victim, "source": *source, "outcome": *outcome, "id": *id} {
		if v != "" {
			q.Set(k, v)
		}
	}
	if *limit > 0 {
		q.Set("limit", fmt.Sprint(*limit))
	}
	var traces []pipeline.TraceJSON
	_, body, err := adminGet(&http.Client{Timeout: *timeout}, *httpAddr, "/debug/traces?"+q.Encode(), &traces)
	if err != nil {
		fatal(fmt.Errorf("trace: %w", err))
	}

	if *jsonOut {
		os.Stdout.Write(body)
	} else {
		fmt.Printf("%d traces (newest first)\n", len(traces))
		if len(traces) > 0 {
			tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "  id\t"+traceHeader)
			for i := range traces {
				fmt.Fprintf(tw, "  %s\t%s\n", traces[i].ID, traceCells(&traces[i]))
			}
			tw.Flush()
		}
	}
	if len(traces) < *minCount {
		fmt.Fprintf(os.Stderr, "trace: %d traces matched, wanted at least %d\n", len(traces), *minCount)
		os.Exit(1)
	}
}

// traceHeader and traceCells are the timeline columns `trace` and
// `fleet trace` share: outcome, the node ids, then every span.
const traceHeader = "outcome\tvictim\tsource\tshard\twire\tforward\tingest\tidentify\tdetect\tblock\ttotal"

func traceCells(t *pipeline.TraceJSON) string {
	return fmt.Sprintf("%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s",
		t.Outcome, fmtNode(t.Victim), fmtNode(t.Source), fmtNode(int64(t.Shard)),
		fmtSpan(t.WireNS), fmtSpan(t.ForwardNS), fmtSpan(t.IngestNS), fmtSpan(t.IdentifyNS),
		fmtSpan(t.DetectNS), fmtSpan(t.BlockNS), fmtSpan(t.TotalNS))
}

// fmtNode renders a node id, with "-" for the -1 "not applicable"
// sentinel (stream-level events, unidentified sources).
func fmtNode(n int64) string {
	if n < 0 {
		return "-"
	}
	return fmt.Sprint(n)
}

// fmtSpan renders a span duration in nanoseconds; negative means the
// record never reached that stage.
func fmtSpan(ns int64) string {
	switch {
	case ns < 0:
		return "-"
	case ns == 0:
		// A measured-but-zero span (clock granularity) is not the same
		// as an unreached stage.
		return "0ns"
	default:
		return fmtLatency(float64(ns) / 1e9)
	}
}
