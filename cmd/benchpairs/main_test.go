package main

import (
	"math"
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

// TestMargin: the table's "bounds" column reads a shift in units of
// the metric's bound, positive the better way for either kind of
// metric, and −1 exactly where verdict starts to reject.
func TestMargin(t *testing.T) {
	higher := metric{Name: "m", Better: "higher", Bound: 0.25}
	lower := metric{Name: "m", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		name       string
		base, tree []contract
		m          metric
		want       float64
	}{
		{"higher rose 35 %", runs(90, 100, 110), runs(125, 135, 150), higher, 1.4},
		{"higher fell the bound", runs(90, 100, 110), runs(70, 75, 90), higher, -1},
		{"lower fell 20 %", runs(90, 100, 110), runs(70, 80, 90), lower, 0.8},
		{"lower rose 50 %", runs(90, 100, 110), runs(140, 150, 160), lower, -2},
	} {
		s := summarize(tc.base, tc.tree, tc.m)
		if got := margin(s, tc.m); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: margin %v, want %v", tc.name, got, tc.want)
		}
		if rejected := len(verdict("w", tc.base, tc.tree, []metric{tc.m})) != 0; rejected != (margin(s, tc.m) < -1) {
			t.Errorf("%s: verdict rejects %v at margin %v", tc.name, rejected, margin(s, tc.m))
		}
	}
}

// TestParseUngated reads the latency medians off the bench's text
// output, which the contract line does not carry, and reports none when
// the line is absent.
func TestParseUngated(t *testing.T) {
	out := strings.Split(`frames_small  seed 1  stream fnv64a 851481677fee0d52  (end to end, benchmark tracing off)
  cpu_ns_per_rec                               216.1460 ns
  ungated: ack_p50_us 0.496, block_lag_p50_us 360.713; over the whole phase 8699304 rec/s, 224.8 CPU ns/rec, process CPU / (wall x cores) 0.98
  correctness gate: pass (attempted 87389136, failed 0)
{"attempted":87389136,"correct":true,"failed":0,"metrics":{}}`, "\n")
	if got := parseUngated(out); len(got) != 2 || got[0] != 0.496 || got[1] != 360.713 {
		t.Errorf("parseUngated = %v, want [0.496 360.713]", got)
	}
	if got := parseUngated(out[3:]); got != nil {
		t.Errorf("parseUngated without the line = %v, want nil", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
