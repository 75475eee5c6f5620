package core

import (
	"strings"
	"testing"
)

func TestRunX1PerfectAccuracy(t *testing.T) {
	for _, cfg := range [][2]int{{2, 4}, {4, 3}, {4, 6}} {
		row, err := RunX1(cfg[0], cfg[1], 200, 3)
		if err != nil {
			t.Fatalf("k=%d n=%d: %v", cfg[0], cfg[1], err)
		}
		if row.Correct != row.Trials {
			t.Errorf("%s: %d/%d identified", row.Tree, row.Correct, row.Trials)
		}
		if row.Bits > 16 {
			t.Errorf("%s: %d bits", row.Tree, row.Bits)
		}
	}
	if _, err := RunX1(2, 13, 10, 1); err == nil {
		t.Error("over-wide fat tree accepted")
	}
}

func TestRunX2CoverageShape(t *testing.T) {
	full, err := RunX2(4, 0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if full.DeterministicCov != 1.0 {
		t.Errorf("unbudgeted cover = %.3f, want 1.0", full.DeterministicCov)
	}
	small, err := RunX2(4, 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if small.Monitors != 1 {
		t.Errorf("budget 1 used %d monitors", small.Monitors)
	}
	if small.DeterministicCov >= full.DeterministicCov {
		t.Errorf("1 monitor covered %.3f >= full %.3f", small.DeterministicCov, full.DeterministicCov)
	}
	if small.AdaptiveCov <= 0 || small.AdaptiveCov > 1 {
		t.Errorf("adaptive coverage %.3f out of range", small.AdaptiveCov)
	}
}

// TestFatTreeScalabilityRows: X1 ends with the fat-tree analog of
// Table 3, one row per arity.
func TestFatTreeScalabilityRows(t *testing.T) {
	var out strings.Builder
	if _, _, err := artifact(t, "X1").Run(&out, 1, 1); err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(out.String(), "MF scalability (Table 3 analog for fat trees):\n")
	rows := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r == "" {
			t.Error("empty row")
		}
	}
}
