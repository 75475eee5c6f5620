// Command bench is the socket-to-block benchmark for ddpmd: it starts
// real daemons in-process on loopback TCP, drives them with two
// closed-loop exporter sessions, checks what they did against what the
// generator emitted, and prints every metric of BENCHMARK.json by name.
//
//	go run ./bench                                  every workload, end-to-end metrics
//	go run ./bench -trace spans.json                the same plus the per-layer ledger and the spans
//	go run ./bench -repeat 3                        three sets and their spread against the bounds
//	go run ./bench -workload flood_dense -seed 2 -seconds 10 -trace 0
//
// With -workload the last line of standard output is the one-object
// JSON result the benchmark contract asks for. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setups is how often an untraced run sets the system up; setup_s is the
// median.
const setups = 3

type options struct {
	seed     uint64
	workload string
	seconds  float64
	trace    string
	out      string
	repeat   int
	scale    float64
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Uint64Var(&o.seed, "seed", 1, "stream seed (2 is the held-out seed)")
	fs.StringVar(&o.workload, "workload", "", "run one workload and end with the contract's JSON line (default: all)")
	fs.Float64Var(&o.seconds, "seconds", 10, "timed phase length in seconds")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run; a path: both, spans written there")
	fs.StringVar(&o.out, "o", "", "write the results as JSON to this file instead of standard output")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many sets and compare their spread with the bounds")
	fs.Float64Var(&o.scale, "scale", 0, "run by record count instead of time: the issue's sizes times this factor")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	todo := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []workload{w}
	}
	// -trace: "0" end to end only, "1" per layer only, a path both.
	spanFile := ""
	if o.trace != "0" && o.trace != "1" {
		spanFile = o.trace
	}
	untraced, traced := o.trace != "1", o.trace == "1" || spanFile != ""
	fmt.Fprintf(stdout, "ddpmd socket-to-block benchmark: loopback TCP, %d exporters, window %d records, nproc %d, GOMAXPROCS %d, %s\n",
		exporters, window, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var sets [][]*result
	var logs []*spanLog
	ok := true
	for k := 0; k < max(o.repeat, 1); k++ {
		var set []*result
		for _, w := range todo {
			cfg := runConfig{seed: o.seed, seconds: o.seconds, setups: setups}
			if o.scale > 0 {
				cfg.records = int64(float64(w.records) * o.scale)
			}
			if untraced {
				res, err := runWorkload(w, cfg, nil)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				printResult(stdout, res, endToEnd)
				set, ok = append(set, res), ok && res.Correct
			}
			if traced {
				cfg.layers, cfg.setups = true, 1
				log := &spanLog{workload: w.name}
				res, err := runWorkload(w, cfg, log)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s (traced): %v\n", w.name, err)
					return 1
				}
				printResult(stdout, res, perLayer)
				printSelfTimes(stdout, log)
				set, ok, logs = append(set, res), ok && res.Correct, append(logs, log)
			}
		}
		sets = append(sets, set)
	}
	if spanFile != "" {
		if err := writeSpans(spanFile, logs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if o.repeat > 1 && !printSpread(stdout, sets) {
		ok = false
	}

	var doc any = sets
	if o.workload != "" && o.repeat <= 1 && len(sets[0]) == 1 {
		doc = contractLine(sets[0][0])
	}
	enc, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "%s\n", enc)
	}
	if !ok {
		return 1
	}
	return 0
}

// contractLine is the one-object result of a single-workload run: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced.
func contractLine(r *result) map[string]any {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.Name] = map[string]any{"value": r.Metrics[d.Name], "unit": d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func printResult(w io.Writer, r *result, defs []metricDef) {
	mode := "end to end, benchmark tracing off"
	if r.Traced {
		mode = "per layer, benchmark tracing on"
	}
	fmt.Fprintf(w, "\n%s  seed %d  stream fnv64a %s  (%s)\n", r.Workload, r.Seed, r.StreamHash, mode)
	fmt.Fprintf(w, "  timed records %d in %d frames; samples: ack %d, block lag %d\n", r.Records, r.Frames, r.AckSamples, r.LagSamples)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	if c := r.Context; c != nil {
		fmt.Fprintf(w, "  ungated: ack_p50_us %.3f, block_lag_p50_us %.3f; over the whole phase %.0f rec/s, %.1f CPU ns/rec, process CPU / (wall x cores) %.2f\n",
			c["ack_p50_us"], c["block_lag_p50_us"], c["whole_run.records_per_s"], c["whole_run.cpu_ns_per_rec"], c["whole_run.cpu_util"])
	}
	if r.Correct {
		fmt.Fprintf(w, "  correctness gate: pass (attempted %d, failed %d)\n", r.Attempted, r.Failed)
		return
	}
	fmt.Fprintf(w, "  correctness gate: FAIL (attempted %d, failed %d) - run invalid\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "    %s\n", f)
	}
}

// printSelfTimes lists, per span name, total time minus the time the
// span's children cover.
func printSelfTimes(w io.Writer, l *spanLog) {
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  span self times (ms):")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%.1f", n, float64(self[n].Nanoseconds())/1e6)
	}
	fmt.Fprintln(w)
}

// printSpread compares the sets metric by metric: median, range, and the
// range as a share of the median against the metric's bound. It reports
// whether every end-to-end metric repeated within its bound.
func printSpread(w io.Writer, sets [][]*result) bool {
	ok := true
	fmt.Fprintf(w, "\nspread over %d sets (max-min as a share of the median, against the bound)\n", len(sets))
	for i := range sets[0] {
		first := sets[0][i]
		if first.Traced {
			continue
		}
		for _, d := range endToEnd {
			var vals []float64
			for _, set := range sets {
				vals = append(vals, set[i].Metrics[d.Name])
			}
			sort.Float64s(vals)
			med := median(vals)
			spread := 0.0
			if med != 0 {
				spread = (vals[len(vals)-1] - vals[0]) / med
			}
			verdict := "ok"
			if spread > d.Bound {
				verdict, ok = "OVER", false
			}
			fmt.Fprintf(w, "  %-15s %-18s median %14.4f  range %14.4f..%-14.4f spread %.4f bound %.2f %s\n",
				first.Workload, d.Name, med, vals[0], vals[len(vals)-1], spread, d.Bound, verdict)
		}
	}
	if !ok {
		fmt.Fprintln(w, strings.ToUpper("  two sets disagree by more than a bound"))
	}
	return ok
}
