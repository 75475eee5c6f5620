// Command benchpairs is the paired protocol behind every performance
// statement in CHANGES.md: it runs the socket-to-block benchmark on a
// base commit and on the working tree, alternating which side goes
// first, and reports per end-to-end metric how often the tree won, both
// medians, the shift between them — also in units of the metric's
// BENCHMARK.json bound, positive the better way — and the base's own
// run-to-run spread (the distance between its quartiles). A shift
// inside that spread is unresolved, not a gain.
// Each run's ack_p50_us and block_lag_p50_us, read off the bench's
// "ungated:" line, follow its result line, and each side's medians
// follow the table; the verdict never reads them.
// Several workloads (a comma-separated list, or "all" for every one
// BENCHMARK.json declares) run one after the other, never two at once,
// and the report ends with the PR driver's acceptance rule applied
// locally: one line per (workload, metric) whose median moved the wrong
// way by more than that metric's bound, per workload whose tree failed
// the correctness gate, and per workload whose share of failed
// operations rose. Any such line makes the command exit 1, so CI runs it
// as the pull-request gate.
//
//	make bench-pairs BASE=HEAD~1 WORKLOAD=flood_dense [N=10] [SEED=1]
//	make bench-pairs BASE=HEAD~1 WORKLOAD=all N=3
//
// The base is unpacked with git archive under .bench_build/pairs-base
// (ignored, removed when the run ends); each side builds its own bench/
// from its own sources through bench/run.sh, exactly as the PR driver
// does. Expect about 14 s per run: ten pairs of one workload take ~5 min.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// contract is the one JSON object `bench/run.sh --workload` ends its
// output with.
type contract struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "git ref of the base commit (required)")
	workload := flag.String("workload", "", "benchmark workload names, comma-separated, or \"all\" (required)")
	n := flag.Int("n", 10, "pairs to run per workload")
	seed := flag.Int("seed", 1, "stream seed")
	flag.Parse()
	if *base == "" || *workload == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *n, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

// metric is one end_to_end row of BENCHMARK.json; Bound is the
// fraction its median may worsen by before the driver rejects a PR.
type metric struct {
	Name, Better string
	Bound        float64
}

func run(base, workload string, n, seed int) error {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	workloads := strings.Split(workload, ",")
	if workload == "all" {
		workloads = workloads[:0]
		for _, w := range decl.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	baseDir := filepath.Join(".bench_build", "pairs-base")
	defer os.RemoveAll(baseDir)
	if err := unpack(base, baseDir); err != nil {
		return err
	}
	var moved []string
	for _, w := range workloads {
		m, err := pairs(baseDir, base, w, n, seed, decl.EndToEnd)
		if err != nil {
			return err
		}
		moved = append(moved, m...)
	}
	fmt.Printf("\npast a bound, the wrong way (%s, %d pairs each):\n", strings.Join(workloads, ", "), n)
	if len(moved) == 0 {
		fmt.Println("  nothing")
		return nil
	}
	for _, line := range moved {
		fmt.Println(" ", line)
	}
	return fmt.Errorf("%d regressions past a bound", len(moved))
}

// pairs runs n alternating pairs of one workload, prints every run and
// the per-metric table, and returns verdict's lines for the workload.
func pairs(baseDir, base, workload string, n, seed int, metrics []metric) ([]string, error) {
	dirs := map[string]string{"base": baseDir, "tree": "."}
	runs := map[string][]contract{}
	acks, lags := map[string][]float64{}, map[string][]float64{} // ungated medians per run
	for i := 0; i < n; i++ {
		order := []string{"tree", "base"}
		if i%2 == 1 {
			order = []string{"base", "tree"}
		}
		for _, side := range order {
			line, u, err := benchOnce(dirs[side], workload, seed)
			if err != nil {
				return nil, fmt.Errorf("%s pair %d, %s: %w", workload, i+1, side, err)
			}
			fmt.Printf("%s pair %d %s %s\n", workload, i+1, side, line)
			var c contract
			if err := json.Unmarshal([]byte(line), &c); err != nil {
				return nil, fmt.Errorf("%s pair %d, %s: result line: %w", workload, i+1, side, err)
			}
			runs[side] = append(runs[side], c)
			if u != nil {
				fmt.Printf("%s pair %d %s ungated, not in the verdict: ack_p50_us %.3f, block_lag_p50_us %.3f\n",
					workload, i+1, side, u[0], u[1])
				acks[side], lags[side] = append(acks[side], u[0]), append(lags[side], u[1])
			}
		}
	}

	fmt.Printf("\n%s, seed %d, %d pairs, base %s\n", workload, seed, n, base)
	fmt.Printf("%-16s %9s %14s %14s %8s %7s %12s\n", "metric", "tree wins", "base median", "tree median", "shift", "bounds", "base IQR")
	for _, m := range metrics {
		s := summarize(runs["base"], runs["tree"], m)
		fmt.Printf("%-16s %6d/%-2d %14.4f %14.4f %+7.1f%% %+7.2f %12.4f\n",
			m.Name, s.wins, n, s.baseMedian, s.treeMedian, 100*s.shift, margin(s, m), s.baseIQR)
	}
	for _, side := range []string{"base", "tree"} {
		failed, incorrect, _ := failures(runs[side])
		fmt.Printf("%s: %d failed operations, %d runs failed the correctness gate\n", side, failed, incorrect)
	}
	for _, side := range []string{"base", "tree"} {
		if len(acks[side]) != 0 {
			fmt.Printf("%s ungated, not in the verdict: median ack_p50_us %.3f, block_lag_p50_us %.3f (%d runs)\n",
				side, median(acks[side]), median(lags[side]), len(acks[side]))
		}
	}
	return verdict(workload, runs["base"], runs["tree"], metrics), nil
}

// summary is one end-to-end metric over paired runs.
type summary struct {
	wins                                   int
	baseMedian, treeMedian, shift, baseIQR float64
}

// summarize compares the i-th base run with the i-th tree run on m.
func summarize(base, tree []contract, m metric) summary {
	var b, t []float64
	var s summary
	for i := range base {
		bv, tv := base[i].Metrics[m.Name].Value, tree[i].Metrics[m.Name].Value
		b, t = append(b, bv), append(t, tv)
		if (m.Better == "higher" && tv > bv) || (m.Better == "lower" && tv < bv) {
			s.wins++
		}
	}
	sort.Float64s(b)
	sort.Float64s(t)
	s.baseMedian, s.treeMedian = quantile(b, 0.5), quantile(t, 0.5)
	s.shift = (s.treeMedian - s.baseMedian) / s.baseMedian
	s.baseIQR = quantile(b, 0.75) - quantile(b, 0.25)
	return s
}

// margin is s's median shift in units of m's bound, signed so that a
// shift the better way reads positive: verdict rejects a tree below −1,
// and a claimed gain is as far from the bound as its margin is above +1.
func margin(s summary, m metric) float64 {
	if m.Better == "lower" {
		return -s.shift / m.Bound
	}
	return s.shift / m.Bound
}

// failures totals one side's failed operations, counts its runs that
// failed the correctness gate, and gives the failed share of its
// attempted operations.
func failures(runs []contract) (failed, incorrect int64, share float64) {
	var attempted int64
	for _, c := range runs {
		attempted += c.Attempted
		failed += c.Failed
		if !c.Correct {
			incorrect++
		}
	}
	return failed, incorrect, float64(failed) / float64(max(attempted, 1))
}

// verdict is the PR driver's acceptance rule for one workload: a line
// for each metric whose median moved the losing way by more than its
// bound, one if any tree run failed the correctness gate, and one if a
// larger share of the tree's operations failed. Empty means accept.
func verdict(workload string, base, tree []contract, metrics []metric) []string {
	var moved []string
	for _, m := range metrics {
		s := summarize(base, tree, m)
		if (m.Better == "higher" && s.shift < -m.Bound) || (m.Better == "lower" && s.shift > m.Bound) {
			moved = append(moved, fmt.Sprintf("%s %s: median %.4f -> %.4f (%+.1f%%), bound %.0f%%, tree won %d/%d",
				workload, m.Name, s.baseMedian, s.treeMedian, 100*s.shift, 100*m.Bound, s.wins, len(tree)))
		}
	}
	_, _, baseShare := failures(base)
	_, incorrect, treeShare := failures(tree)
	if incorrect > 0 {
		moved = append(moved, fmt.Sprintf("%s: %d tree runs failed the correctness gate", workload, incorrect))
	}
	if treeShare > baseShare {
		moved = append(moved, fmt.Sprintf("%s: failed share %.2e -> %.2e", workload, baseShare, treeShare))
	}
	return moved
}

// unpack replaces dir with the files of commit ref.
func unpack(ref, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("bash", "-c", `set -o pipefail; git archive "$0" | tar -x -C "$1"`, ref, dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	return nil
}

// benchOnce runs one workload the way the PR driver does and returns
// the contract line and the ungated latency medians (nil when the
// output has none). A failed correctness gate exits non-zero but still
// prints the line; that run is reported, not hidden.
func benchOnce(dir, workload string, seed int) (string, []float64, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", "10", "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "{") {
		return "", nil, fmt.Errorf("no result line (%v)", err)
	}
	return last, parseUngated(lines), nil
}

// parseUngated reads ack_p50_us and block_lag_p50_us off the bench's
// "ungated:" line, which the contract line does not carry; nil when no
// line parses.
func parseUngated(lines []string) []float64 {
	for _, line := range lines {
		var ack, lag float64
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "ungated: ack_p50_us %f, block_lag_p50_us %f;", &ack, &lag); err == nil {
			return []float64{ack, lag}
		}
	}
	return nil
}

// median is the middle of xs, interpolated; it sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quantile interpolates linearly on sorted xs.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
