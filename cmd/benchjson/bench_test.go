package main

import (
	"fmt"
	"testing"
)

// BenchmarkPipelineThroughput exposes the gate benchmark to `go test
// -bench` so it can be profiled with the stock -cpuprofile/-memprofile
// flags; `benchjson -check` runs the same function via testing.Benchmark.
func BenchmarkPipelineThroughput(b *testing.B) { benchPipeline(b) }

// BenchmarkPipelineThroughputTraced is the gate benchmark with every
// record carrying a trace context — benchjson's PipelineThroughputTraced.
func BenchmarkPipelineThroughputTraced(b *testing.B) { benchPipelineTraced(b) }

// BenchmarkPipelineThroughputBatch sweeps the ingest batch size — the
// same sub-benchmarks benchjson records as PipelineThroughputBatch/N.
func BenchmarkPipelineThroughputBatch(b *testing.B) {
	for _, n := range []int{1, 16, 150, 1024} {
		b.Run(fmt.Sprint(n), benchPipelineBatch(n))
	}
}

// BenchmarkPipelineObservabilityOff is the gate benchmark with stage
// histograms and exemplars disabled (LatencySampleEvery -1). The delta
// against BenchmarkPipelineThroughput is the observability overhead;
// DESIGN.md documents the measured figure (budget: <= 5%).
func BenchmarkPipelineObservabilityOff(b *testing.B) {
	benchPipelineOpts(1024, -1, false)(b)
}
