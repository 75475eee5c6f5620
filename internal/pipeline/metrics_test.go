package pipeline

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/topology"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestPromEscape(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"all\\\"\n", `all\\\"\n`},
	}
	for _, c := range cases {
		if got := promEscape(c.in); got != c.want {
			t.Errorf("promEscape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestMetricsGolden pins the full /metrics exposition — series order,
// names, labels, escaping — against a golden file. Latency sampling is
// disabled so every value is deterministic (the histograms time with
// the real clock); the histogram series have their own structural test
// below. Refresh with: go test ./internal/pipeline -run Golden -update
func TestMetricsGolden(t *testing.T) {
	net := topology.NewMesh2D(4)
	var clock atomic.Int64
	clock.Store(1_000_000_000)
	p, err := New(Config{
		Net: net, Shards: 2,
		LatencySampleEvery: -1,
		Now:                func() int64 { return clock.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	submitWait(t, p, wire.Record{T: 1, Topo: p.TopoID(), Victim: 1, MF: 0})
	submitWait(t, p, wire.Record{T: 2, Topo: p.TopoID(), Victim: 2, MF: 0})
	submitWait(t, p, wire.Record{T: 3, Topo: p.TopoID(), Victim: 2, MF: 0x7F7F}) // undecodable
	submit(p, wire.Record{T: 4, Topo: 12345, Victim: 1})                         // topo mismatch
	submit(p, wire.Record{T: 5, Topo: p.TopoID(), Victim: 99})                   // bad victim
	p.Blocklist().BlockUntil(3, clock.Load()+int64(time.Hour))
	p.Close() // drain and flush shard counters

	var buf bytes.Buffer
	p.WritePrometheus(&buf, 3*time.Second)

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestMetricsStageLatencySeries checks the histogram exposition
// structurally: every stage present as histogram + summary, cumulative
// non-decreasing buckets ending in a +Inf that equals _count, and
// quantile series for p50/p95/p99.
func TestMetricsStageLatencySeries(t *testing.T) {
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 2, LatencySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		submitWait(t, p, wire.Record{T: eventq.Time(i), Topo: p.TopoID(), Victim: topology.NodeID(i % 16), MF: 0})
	}
	p.Close()
	var buf bytes.Buffer
	p.WritePrometheus(&buf, time.Second)
	body := buf.String()

	for _, stage := range StageNames {
		histPrefix := fmt.Sprintf(`ddpmd_stage_latency_seconds_bucket{stage="%s",le="`, stage)
		var cum, inf int64 = -1, -1
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, histPrefix) {
				continue
			}
			parts := strings.Fields(line)
			v, err := strconv.ParseInt(parts[len(parts)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < cum {
				t.Fatalf("bucket counts decreased at %q", line)
			}
			cum = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		}
		if inf < 0 {
			t.Fatalf("stage %s missing +Inf bucket:\n%s", stage, body)
		}
		countLine := fmt.Sprintf(`ddpmd_stage_latency_seconds_count{stage="%s"} %d`, stage, inf)
		if !strings.Contains(body, countLine) {
			t.Errorf("stage %s: _count disagrees with +Inf (%d)", stage, inf)
		}
		if inf == 0 {
			t.Errorf("stage %s recorded no samples with sampling on every record", stage)
		}
		for _, q := range []string{"0.5", "0.95", "0.99"} {
			s := fmt.Sprintf(`ddpmd_stage_latency_summary_seconds{stage="%s",quantile="%s"}`, stage, q)
			if !strings.Contains(body, s) {
				t.Errorf("missing summary series %s", s)
			}
		}
	}
}
