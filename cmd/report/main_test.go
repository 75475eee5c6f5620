package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGolden: `report` prints testdata/paper/report.golden byte for byte.
// Regenerate the golden with `make paper-golden`.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	code := run(nil, &out)
	want, err := os.ReadFile("../../testdata/paper/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d differs:\n got %q\nwant %q", i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, want %d", len(got), len(wantLines))
	}
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
}
