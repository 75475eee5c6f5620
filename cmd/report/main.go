// Command report runs every core.Artifacts entry in one pass and prints
// a one-page paper-vs-measured verdict sheet — the quickest way to
// audit the reproduction. It exits 1 if any artifact fails its claim:
//
//	go run ./cmd/report          # ~1 s; testdata/paper/report.golden pins it
//	go run ./cmd/report -trials 30
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	trials := fs.Int("trials", 10, "trials per E1 cell; E3 and X1 run 10x as many per row")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args) // ExitOnError: exits 2 on a bad flag, 0 on -h

	fmt.Fprintln(stdout, "Reproduction report — Lee, Kim & Lee, \"A Source Identification Scheme")
	fmt.Fprintln(stdout, "against DDoS Attacks in Cluster Interconnects\" (ICPP Workshops 2004)")
	fmt.Fprintln(stdout)
	failures := 0
	for _, a := range core.Artifacts {
		got, ok, err := a.Run(io.Discard, *seed, *trials)
		status := "OK  "
		if err != nil {
			status, got = "ERR ", err.Error()
			failures++
		} else if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(stdout, "[%s] %-36s paper: %s\n%6smeasured: %s\n", status, a.Name, a.Claim, "", got)
	}
	fmt.Fprintln(stdout)
	if failures > 0 {
		fmt.Fprintf(stdout, "%d check(s) failed\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "all checks passed — see EXPERIMENTS.md for the full numbers")
	return 0
}
