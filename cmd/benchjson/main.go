// Command benchjson runs the netsim engine benchmarks through
// testing.Benchmark and emits machine-readable results as JSON, so
// performance regressions are diffable in review. The checked-in
// snapshot lives at BENCH_netsim.json (refresh with `make bench`).
//
// The workloads mirror internal/netsim/bench_test.go: the headline
// 16×16-torus adaptive-routing benchmark (events/sec), the per-hop
// allocation benchmark (allocs/op must be 0), and the three-topology
// throughput sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wire"
)

// seedBaseline pins the pre-rewrite engine's numbers on the reference
// machine (Intel Xeon @ 2.10GHz), measured with the identical workload
// before the typed-event/dense-table engine landed. The speedup fields
// in the output are computed against these.
var seedBaseline = map[string]float64{
	"AdaptiveTorus16.events_per_sec": 1481512,
	"ForwardHop.allocs_per_op":       192,
	"ForwardHop.ns_per_op":           8194,
}

// Result is one benchmark's measurements.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra holds benchmark-specific metrics (events_per_sec,
	// pkts_per_sec, hops_per_op).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Engine    string             `json:"engine"`
	GoVersion string             `json:"go_version"`
	GOARCH    string             `json:"goarch"`
	NumCPU    int                `json:"num_cpu"`
	Results   []Result           `json:"results"`
	Baseline  map[string]float64 `json:"seed_baseline"`
	Speedup   map[string]float64 `json:"speedup_vs_seed"`
}

func record(name string, br testing.BenchmarkResult, extras ...string) Result {
	r := Result{
		Name:        name,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}
	for _, key := range extras {
		if v, ok := br.Extra[key]; ok {
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[jsonKey(key)] = v
		}
	}
	return r
}

// jsonKey normalizes testing metric names ("events/sec") to JSON-ish
// snake case ("events_per_sec").
func jsonKey(metric string) string {
	switch metric {
	case "events/sec":
		return "events_per_sec"
	case "pkts/sec":
		return "pkts_per_sec"
	case "hops/op":
		return "hops_per_op"
	case "records/sec":
		return "records_per_sec"
	default:
		return metric
	}
}

// benchAdaptiveTorus16 is the headline benchmark: 16×16 torus,
// minimal-adaptive routing with the congestion selector, DDPM marking,
// 2000 uniform packets per iteration.
func benchAdaptiveTorus16(b *testing.B) {
	tor := topology.NewTorus2D(16)
	d, err := marking.NewDDPM(tor)
	if err != nil {
		b.Fatal(err)
	}
	plan := packet.NewAddrPlan(packet.DefaultBase, tor.NumNodes())
	var fired uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routing.NewRouter(tor, routing.NewMinimalAdaptive(tor))
		r.Sel = routing.CongestionSelector{R: rng.NewStream(7)}
		n, err := netsim.New(netsim.Config{Net: tor, Router: r, Scheme: d, Plan: plan, QueueCap: 64})
		if err != nil {
			b.Fatal(err)
		}
		stream := rng.NewStream(uint64(i) + 1)
		for k := 0; k < 2000; k++ {
			src := topology.NodeID(stream.Intn(tor.NumNodes()))
			dst := topology.NodeID(stream.Intn(tor.NumNodes()))
			n.InjectAt(eventq.Time(k/8), n.AcquirePacket(src, dst, packet.ProtoUDP, 32))
		}
		n.RunAll(10_000_000)
		fired += n.Q.Fired()
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// benchForwardHop measures steady-state per-hop cost with the packet
// pool: one pooled packet crossing an 8×8 mesh corner to corner
// (14 hops) under XY routing with DDPM. allocs/op must be zero.
func benchForwardHop(b *testing.B) {
	m := topology.NewMesh2D(8)
	d, err := marking.NewDDPM(m)
	if err != nil {
		b.Fatal(err)
	}
	r := routing.NewRouter(m, routing.NewXY(m))
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	n, err := netsim.New(netsim.Config{Net: m, Router: r, Scheme: d, Plan: plan, QueueCap: 64})
	if err != nil {
		b.Fatal(err)
	}
	src := m.IndexOf(topology.Coord{0, 0})
	dst := m.IndexOf(topology.Coord{7, 7})
	n.Inject(n.AcquirePacket(src, dst, packet.ProtoUDP, 32))
	n.RunAll(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Inject(n.AcquirePacket(src, dst, packet.ProtoUDP, 32))
		n.RunAll(1_000_000)
	}
	b.ReportMetric(14, "hops/op")
}

// benchFabric builds the per-topology throughput benchmark: 1000
// uniform packets per iteration, adaptive routing + DDPM.
func benchFabric(net topology.Network) func(b *testing.B) {
	return func(b *testing.B) {
		d, err := marking.NewDDPM(net)
		if err != nil {
			b.Fatal(err)
		}
		plan := packet.NewAddrPlan(packet.DefaultBase, net.NumNodes())
		var delivered uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := routing.NewRouter(net, routing.NewMinimalAdaptive(net))
			r.Sel = routing.CongestionSelector{R: rng.NewStream(7)}
			n, err := netsim.New(netsim.Config{Net: net, Router: r, Scheme: d, Plan: plan, QueueCap: 64})
			if err != nil {
				b.Fatal(err)
			}
			stream := rng.NewStream(uint64(i) + 1)
			for k := 0; k < 1000; k++ {
				src := topology.NodeID(stream.Intn(net.NumNodes()))
				dst := topology.NodeID(stream.Intn(net.NumNodes()))
				n.InjectAt(eventq.Time(k/8), n.AcquirePacket(src, dst, packet.ProtoUDP, 32))
			}
			n.RunAll(10_000_000)
			delivered += n.Stats().Delivered
		}
		b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "pkts/sec")
	}
}

// pipelineBenchRecords pre-generates the pipeline workload: 64k valid
// records spread across 16 victims (exercising the shard fan-out),
// sources cycling over the fabric, each MF the true displacement a
// marked packet would carry.
func pipelineBenchRecords(b *testing.B, net topology.Network) []wire.Record {
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		b.Fatal(err)
	}
	topoID := wire.TopoID(net.Name())
	const nRecs = 1 << 16
	recs := make([]wire.Record, nRecs)
	stream := rng.NewStream(7)
	for i := range recs {
		victim := topology.NodeID(i % 16)
		src := topology.NodeID(stream.Intn(net.NumNodes()))
		sc, dc := net.CoordOf(src), net.CoordOf(victim)
		v := make(topology.Vector, len(sc))
		for j := range v {
			v[j] = dc[j] - sc[j]
		}
		mf, err := scheme.Codec().Encode(v)
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = wire.Record{
			T: eventq.Time(i), Topo: topoID, Victim: victim,
			MF: mf, Src: packet.Addr(i), Proto: packet.ProtoTCPSYN,
		}
	}
	return recs
}

// benchPipelineBatch measures ddpmd's streaming pipeline at one ingest
// batch size: records are appended to pooled slabs batchSize at a time
// and pushed through SubmitSlab. The metric is sustained steady-state
// records/sec end to end — DDPM identification plus detector updates —
// against one long-lived pipeline, the way the daemon actually runs.
// Each iteration replays the workload one window-epoch later so the
// detectors keep rolling forward instead of replaying time. Submission
// is paced by SlabsOutstanding so the slab pool recycles (a real
// exporter gets the same pacing from the socket); batchSize 1 is the
// record-at-a-time discipline, 1024 the exporter client default.
func benchPipelineBatch(batchSize int) func(b *testing.B) {
	return benchPipelineOpts(batchSize, 0, false)
}

// benchPipelineOpts additionally exposes the stage-latency sampling
// knob so the observability overhead is measurable: sampleEvery 0 is
// the production default (1 in 64), -1 disables stage histograms and
// exemplars entirely. Compare BenchmarkPipelineThroughput against
// BenchmarkPipelineObservabilityOff to quantify the cost. traced stamps
// every record with a trace context (AppendTraced), so each one also
// commits a trace to the flight recorder at its default settings.
func benchPipelineOpts(batchSize, sampleEvery int, traced bool) func(b *testing.B) {
	return func(b *testing.B) {
		net := topology.NewTorus2D(8)
		recs := pipelineBenchRecords(b, net)
		p, err := pipeline.New(pipeline.Config{
			Net: net, Shards: 4, QueueLen: 64,
			LatencySampleEvery: sampleEvery,
		})
		if err != nil {
			b.Fatal(err)
		}
		const maxOutstanding = 20 // under the pool size, so slabs recycle
		var epoch eventq.Time
		var id uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(recs); off += batchSize {
				end := off + batchSize
				if end > len(recs) {
					end = len(recs)
				}
				for p.SlabsOutstanding() >= maxOutstanding {
					runtime.Gosched()
				}
				s := p.GetSlab()
				var sent int64
				if traced {
					sent = time.Now().UnixNano() // one send stamp per frame, as an exporter would
				}
				for _, rec := range recs[off:end] {
					rec.T += epoch
					if id++; traced {
						s.AppendTraced(wire.TracedRecord{Record: rec, Ctx: wire.TraceContext{ID: id, Sent: sent}})
					} else {
						s.Append(rec)
					}
				}
				p.SubmitSlab(s)
			}
			epoch += 1 << 16
		}
		b.StopTimer()
		p.Close()
		if p.C.Dropped.Load() != 0 {
			b.Fatalf("benchmark pacing broken: %d dropped", p.C.Dropped.Load())
		}
		b.ReportMetric(float64(p.C.Processed.Load())/b.Elapsed().Seconds(), "records/sec")
	}
}

// benchPipeline is the headline pipeline benchmark: batch ingest at the
// exporter client's default frame size. benchPipelineTraced is the same
// record set with the trace lane on.
var (
	benchPipeline       = benchPipelineBatch(1024)
	benchPipelineTraced = benchPipelineOpts(1024, 0, true)
)

// gatedRows are the pipeline benchmarks main records and bench-gate
// re-measures: the untraced lane and the traced one, so a regression
// confined to either is caught.
var gatedRows = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"PipelineThroughput", benchPipeline},
	{"PipelineThroughputTraced", benchPipelineTraced},
}

// checkPipeline is the CI regression gate: rerun the gated pipeline
// rows and compare records/sec against the committed baseline file,
// failing when a measured rate falls more than tolerance below it. Only
// the pipeline benches gate — the fabric benches are too
// machine-sensitive to compare across CI runners without a stored
// reference host.
func checkPipeline(baselinePath string, tolerance float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	for _, row := range gatedRows {
		want := 0.0
		for _, r := range base.Results {
			if r.Name == row.name {
				want = r.Extra["records_per_sec"]
			}
		}
		if want <= 0 {
			return fmt.Errorf("%s has no %s records_per_sec", baselinePath, row.name)
		}
		fmt.Fprintln(os.Stderr, "benchjson: running", row.name, "...")
		got := testing.Benchmark(row.fn).Extra["records/sec"]
		ratio := got / want
		fmt.Fprintf(os.Stderr, "benchjson: %s %.0f records/sec vs baseline %.0f (%.1f%%)\n",
			row.name, got, want, 100*ratio)
		if ratio < 1-tolerance {
			return fmt.Errorf("%s regressed %.1f%% (tolerance %.0f%%): %.0f < %.0f records/sec",
				row.name, 100*(1-ratio), 100*tolerance, got, want)
		}
	}
	// The sparse-victim run gates on its invariants (bounded state,
	// exactness, flat memory), not on rate — those break functionally,
	// not by degrees.
	fmt.Fprintln(os.Stderr, "benchjson: running PipelineSparseVictims invariants ...")
	run, err := runSparseOnce()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: PipelineSparseVictims %.0f records/sec, heap delta %d KB\n",
		float64(run.ingested)/run.elapsed.Seconds(), run.heapDelta>>10)
	return nil
}

func main() {
	out := flag.String("o", "BENCH_netsim.json", "output path ('-' for stdout)")
	check := flag.String("check", "", "regression-gate mode: compare PipelineThroughput and PipelineThroughputTraced against this baseline JSON and exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional records/sec regression per gated row in -check mode")
	flag.Parse()

	if *check != "" {
		if err := checkPipeline(*check, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	rep := Report{
		Engine:    "typed-event freelist kernel, dense link tables, packet pool",
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Baseline:  seedBaseline,
		Speedup:   map[string]float64{},
	}

	fmt.Fprintln(os.Stderr, "benchjson: running AdaptiveTorus16 ...")
	torus := testing.Benchmark(benchAdaptiveTorus16)
	rep.Results = append(rep.Results, record("AdaptiveTorus16", torus, "events/sec"))

	fmt.Fprintln(os.Stderr, "benchjson: running ForwardHop ...")
	hop := testing.Benchmark(benchForwardHop)
	rep.Results = append(rep.Results, record("ForwardHop", hop, "hops/op"))

	sweeps := []struct {
		name string
		net  topology.Network
	}{
		{"FabricThroughput/mesh16x16", topology.NewMesh2D(16)},
		{"FabricThroughput/torus16x16", topology.NewTorus2D(16)},
		{"FabricThroughput/hypercube8", topology.NewHypercube(8)},
	}
	for _, s := range sweeps {
		fmt.Fprintln(os.Stderr, "benchjson: running", s.name, "...")
		br := testing.Benchmark(benchFabric(s.net))
		rep.Results = append(rep.Results, record(s.name, br, "pkts/sec"))
	}

	for _, row := range gatedRows {
		fmt.Fprintln(os.Stderr, "benchjson: running", row.name, "...")
		rep.Results = append(rep.Results, record(row.name, testing.Benchmark(row.fn), "records/sec"))
	}

	fmt.Fprintln(os.Stderr, "benchjson: running PipelineSparseVictims ...")
	var sparseErr error
	sv := testing.Benchmark(benchSparseVictims(&sparseErr))
	if sparseErr != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", sparseErr)
		os.Exit(1)
	}
	rep.Results = append(rep.Results, record("PipelineSparseVictims", sv, "records/sec"))

	// Ingest batch-size sweep: 1 (record-at-a-time discipline), 16
	// (small UDP datagrams), 150 (traced sealed frames), 1024 (exporter
	// client default).
	for _, n := range []int{1, 16, 150, 1024} {
		name := fmt.Sprintf("PipelineThroughputBatch/%d", n)
		fmt.Fprintln(os.Stderr, "benchjson: running", name, "...")
		br := testing.Benchmark(benchPipelineBatch(n))
		rep.Results = append(rep.Results, record(name, br, "records/sec"))
	}

	if eps := rep.Results[0].Extra["events_per_sec"]; eps > 0 {
		rep.Speedup["AdaptiveTorus16.events_per_sec"] = eps / seedBaseline["AdaptiveTorus16.events_per_sec"]
	}
	rep.Speedup["ForwardHop.ns_per_op"] = seedBaseline["ForwardHop.ns_per_op"] / rep.Results[1].NsPerOp

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchjson: wrote", *out)
}
