// Command tables regenerates the paper's scalability tables (Tables
// 1–3, core.Artifacts T1–T3): the marking-field bits each scheme needs
// per topology family and the largest cluster that fits the 16-bit IP
// Identification field.
//
//	tables            # all three tables, as testdata/paper/tables.golden pins them
//	tables -table 3   # one table
//	tables -sweep     # per-size bit requirements (CSV)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/marking"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	table := fs.Int("table", 0, "table number (1, 2 or 3); 0 prints all")
	sweep := fs.Bool("sweep", false, "emit the per-size bit-requirement sweep as CSV")
	fs.Parse(args) // ExitOnError: exits 2 on a bad flag, 0 on -h
	if *sweep {
		emitSweep(stdout)
		return 0
	}
	printed := 0
	for _, a := range core.Artifacts {
		if !a.IsTable() || *table != 0 && a.ID != fmt.Sprintf("T%d", *table) {
			continue
		}
		if printed++; printed > 1 {
			fmt.Fprintln(stdout)
		}
		if _, _, err := a.Run(stdout, 0, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if printed == 0 {
		fmt.Fprintf(os.Stderr, "tables: no table %d (have 1, 2, 3)\n", *table)
		return 1
	}
	return 0
}

func emitSweep(w io.Writer) {
	fmt.Fprintln(w, "family,n,scheme,bits,fits16")
	kinds := []marking.SchemeKind{marking.KindSimplePPM, marking.KindBitDiffPPM, marking.KindDDPM}
	for n := 2; n <= 512; n <<= 1 {
		for _, k := range kinds {
			bits := marking.MeshBits(k, n)
			fmt.Fprintf(w, "mesh,%d,%s,%d,%v\n", n, k, bits, bits <= marking.MFBits)
		}
	}
	for n := 1; n <= 20; n++ {
		for _, k := range kinds {
			bits := marking.CubeBits(k, n)
			fmt.Fprintf(w, "hypercube,%d,%s,%d,%v\n", n, k, bits, bits <= marking.MFBits)
		}
	}
}
