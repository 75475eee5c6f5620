package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, m := range []struct {
		name string
		mix  mix
	}{{"dense", denseMix()}, {"scan", scanMix()}} {
		a, err := generate(m.mix, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(m.mix, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(m.mix, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 1 hashed %016x then %016x", m.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 1 and 2 both hash %016x", m.name, a.hash)
		}
		for e, x := range a.exp {
			if len(x.cycle) != m.mix.cycle || len(x.train) != m.mix.cycle {
				t.Errorf("%s: exporter %d cycle has %d/%d records, want %d", m.name, e, len(x.train), len(x.cycle), m.mix.cycle)
			}
			if len(x.probes) < 100 {
				t.Errorf("%s: exporter %d has only %d probe sources", m.name, e, len(x.probes))
			}
		}
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the runner has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the runner %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file   %+v\n runner %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file   %+v\n runner %+v", f.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || len(f.Command) == 0 {
		t.Errorf("paths %v, command %v", f.Paths, f.Command)
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func emitted(t *testing.T, r *result) []string {
	t.Helper()
	line := contractLine(r)
	if len(line) != 4 {
		t.Errorf("%s: result line has keys %v", r.Workload, line)
	}
	var out []string
	for name := range r.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	if got := len(line["metrics"].(map[string]any)); got != len(out) {
		t.Errorf("%s: result line carries %d metrics, the run measured %d", r.Workload, got, len(out))
	}
	return out
}

// testConfig is a run at 1/200 of the issue's sizes, by record count so
// it does the same work on any machine, and without the gigabyte of
// decoy victim state.
func testConfig(w workload) runConfig {
	return runConfig{seed: 1, seconds: 1, records: w.records / 200, setups: 1, walkBatch: time.Millisecond, fewDecoys: true}
}

func TestEveryWorkloadPassesItsGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, testConfig(w), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("correctness gate failed: %v", res.Failures)
			}
			if res.Records < w.records/200 || res.Failed != 0 {
				t.Errorf("timed %d records (want at least %d), %d failed", res.Records, w.records/200, res.Failed)
			}
			if got, want := emitted(t, res), names(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("emitted %v\nwant    %v", got, want)
			}
		})
	}
}

func TestTracedRunEmitsEveryLayerRow(t *testing.T) {
	w, _ := findWorkload("frames_small")
	cfg := testConfig(w)
	cfg.layers = true
	log := &spanLog{workload: w.name}
	res, err := runWorkload(w, cfg, log)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("correctness gate failed: %v", res.Failures)
	}
	if got, want := emitted(t, res), names(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("emitted %v\nwant    %v", got, want)
	}
	self := log.selfTimes()
	for _, name := range []string{"workload", "setup", "run.traced", "wire.client.send", "layer_walk", "pipeline.drain.ns_per_rec"} {
		if _, ok := self[name]; !ok {
			t.Errorf("no span named %s among %d", name, len(log.spans))
		}
	}
	for _, s := range log.spans {
		if s.End < s.Start || s.Workload != w.name {
			t.Fatalf("span %+v", s)
		}
	}
}
