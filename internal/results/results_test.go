package results

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/netsim"
)

func TestCSVBasic(t *testing.T) {
	var sb strings.Builder
	c, err := NewCSV(&sb, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Row("x", 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Row("y", int64(-7), false); err != nil {
		t.Fatal(err)
	}
	want := "a,b,c\nx,1,2.5\ny,-7,false\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestCSVEscaping(t *testing.T) {
	var sb strings.Builder
	c, _ := NewCSV(&sb, "v")
	if err := c.Row(`with,comma and "quote"` + "\nnewline"); err != nil {
		t.Fatal(err)
	}
	want := "v\n\"with,comma and \"\"quote\"\"\nnewline\"\n"
	if sb.String() != want {
		t.Errorf("csv = %q", sb.String())
	}
}

func TestCSVValidation(t *testing.T) {
	var sb strings.Builder
	if _, err := NewCSV(&sb); err == nil {
		t.Error("zero columns accepted")
	}
	if _, err := NewCSV(&sb, "a", "a"); err == nil {
		t.Error("duplicate columns accepted")
	}
	c, _ := NewCSV(&sb, "a", "b")
	if err := c.Row(1); err == nil {
		t.Error("short row accepted")
	}
}

func TestCSVStringer(t *testing.T) {
	var sb strings.Builder
	c, _ := NewCSV(&sb, "reason")
	if err := c.Row(netsim.DropTTL); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ttl-expired") {
		t.Errorf("stringer not rendered: %q", sb.String())
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, errSink
	}
	return len(p), nil
}

var errSink = errors.New("sink failed")

func TestCSVStickyFailure(t *testing.T) {
	fw := &failWriter{}
	c, err := NewCSV(fw, "a") // header write succeeds
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Row(1); err == nil {
		t.Fatal("write to failing sink succeeded")
	}
	// Subsequent rows fail fast without touching the sink.
	n := fw.n
	if err := c.Row(2); err == nil {
		t.Fatal("sticky failure not reported")
	}
	if fw.n != n {
		t.Error("failed CSV kept writing to the sink")
	}
}
