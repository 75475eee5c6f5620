// Command figures regenerates the paper's figures and the measured
// experiment series (E1–E7, X1, X2, X4 in DESIGN.md §3), one
// core.Artifacts entry each:
//
//	figures -figure 2    # routing deliverability matrix (Figure 2)
//	figures -figure 3a   # simple-PPM edge samples (Figure 3a); 3b, 3c: DDPM traces
//	figures -figure E1   # PPM convergence vs path length (CSV); E2–E7 likewise
//	figures -figure X1   # extension: fat-tree port stamping (CSV); X2, X4 likewise
//	figures -all         # everything, as testdata/paper/figures.golden pins it
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	var ids []string
	for _, a := range core.Artifacts {
		if !a.IsTable() {
			ids = append(ids, a.ID)
		}
	}
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	figure := fs.String("figure", "", "figure id: "+strings.Join(ids, ", "))
	all := fs.Bool("all", false, "run every figure")
	seed := fs.Uint64("seed", 1, "experiment seed")
	trials := fs.Int("trials", 10, "trials per E1 cell; E3 and X1 run 10x as many per row")
	fs.Parse(args) // ExitOnError: exits 2 on a bad flag, 0 on -h
	if !*all && *figure == "" {
		fs.Usage()
		return 2
	}
	printed := 0
	for _, a := range core.Artifacts {
		if a.IsTable() || !*all && !strings.EqualFold(a.ID, *figure) {
			continue
		}
		if printed++; printed > 1 {
			fmt.Fprintln(stdout)
		}
		if _, _, err := a.Run(stdout, *seed, *trials); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if printed == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
		return 1
	}
	return 0
}
