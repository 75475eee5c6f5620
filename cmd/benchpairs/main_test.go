package main

import (
	"strings"
	"testing"
)

// runs builds one side's contracts: one run per value of the single
// metric "m", each correct with 1000 operations attempted and none
// failed.
func runs(vals ...float64) []contract {
	var cs []contract
	for _, v := range vals {
		c := contract{Correct: true, Attempted: 1000}
		c.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"m": {Value: v}}
		cs = append(cs, c)
	}
	return cs
}

// TestVerdict pins the acceptance rule: one case per rule, both
// directions of "better", and a shift exactly at the bound (allowed).
func TestVerdict(t *testing.T) {
	higher := []metric{{Name: "m", Better: "higher", Bound: 0.25}}
	lower := []metric{{Name: "m", Better: "lower", Bound: 0.25}}
	incorrect := runs(100, 100, 100)
	incorrect[1].Correct = false
	failed := runs(100, 100, 100)
	failed[2].Failed = 1

	for _, tc := range []struct {
		name       string
		base, tree []contract
		metrics    []metric
		want       string // substring of the one expected line; "" for none
	}{
		{"higher: fell past the bound", runs(90, 100, 110), runs(70, 74, 90), higher, "median 100.0000 -> 74.0000"},
		{"higher: fell exactly the bound", runs(90, 100, 110), runs(70, 75, 90), higher, ""},
		{"higher: rose past the bound", runs(90, 100, 110), runs(130, 140, 150), higher, ""},
		{"lower: rose past the bound", runs(90, 100, 110), runs(120, 126, 130), lower, "median 100.0000 -> 126.0000"},
		{"lower: rose exactly the bound", runs(90, 100, 110), runs(120, 125, 130), lower, ""},
		{"lower: fell past the bound", runs(90, 100, 110), runs(50, 60, 70), lower, ""},
		{"a tree run failed the correctness gate", runs(100, 100, 100), incorrect, higher, "1 tree runs failed the correctness gate"},
		{"only a base run failed the correctness gate", incorrect, runs(100, 100, 100), higher, ""},
		{"larger failed share", runs(100, 100, 100), failed, higher, "failed share 0.00e+00 -> 3.33e-04"},
		{"equal failed share", failed, failed, higher, ""},
	} {
		got := verdict("w", tc.base, tc.tree, tc.metrics)
		switch {
		case tc.want == "" && len(got) != 0:
			t.Errorf("%s: verdict %q, want none", tc.name, got)
		case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
			t.Errorf("%s: verdict %q, want one line containing %q", tc.name, got, tc.want)
		}
	}
}
