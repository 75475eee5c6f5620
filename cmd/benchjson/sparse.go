package main

// The sparse-victim benchmark: the destination-scan workload the sketch
// admission gate exists for. A 65,536-node hypercube fabric, 8 attacked
// victims with real marked prelude traffic, then a scan touching 2^20
// distinct destination ids exactly once. Without the gate every
// in-fabric scanned id would materialize detectors and identifier
// state; with it, exact state stays bounded by the attacked set while
// identification on the attacked victims remains bit-for-bit equal to
// an offline identifier fed the same records. runSparseOnce asserts all
// of that itself — testing.Benchmark swallows b.Fatal, so correctness
// must not live inside the benchmark loop.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/marking"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// sparseHeapBudget bounds the pipeline's retained-heap growth across
// the run. The run measures 6–11.2 MB (sketches, slab pool, detector
// windows; the 8 attacked victims are ≈ 1.5 KB each, highest on a cold
// first run), and a victim state is ≈ 1.2 KB, so materializing all
// 65 536 in-fabric scanned ids would add ≈ 79 MB: twice the measured
// ceiling still leaves a leak of a quarter of them over budget.
const sparseHeapBudget = 24 << 20

type sparseRun struct {
	ingested  uint64
	processed uint64
	elapsed   time.Duration
	heapDelta int64
}

// runSparseOnce generates the workload, pushes it through a fresh
// pipeline, and verifies the gate's invariants: bounded victim state,
// exact suppression accounting, zero loss, zero drops, identification
// equality with an offline traceback run, and flat memory.
func runSparseOnce() (*sparseRun, error) {
	net := topology.NewHypercube(16)
	const admit = 8
	gen, err := loadgen.GenerateSparse(loadgen.SparseScenario{
		Net: net, PerVictim: 64, ScanIDs: 1 << 20, Seed: 7,
	})
	if err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	p, err := pipeline.New(pipeline.Config{
		Net: net, Shards: 4, QueueLen: 64,
		SketchAdmit:    admit,
		BlockThreshold: 1 << 30, // identification only, no blocking
	})
	if err != nil {
		return nil, err
	}
	const maxOutstanding = 20
	start := time.Now()
	submit := func(recs []wire.Record) {
		for off := 0; off < len(recs); off += wire.SlabCap {
			end := min(off+wire.SlabCap, len(recs))
			for p.SlabsOutstanding() >= maxOutstanding {
				runtime.Gosched()
			}
			s := p.GetSlab()
			for _, rec := range recs[off:end] {
				s.Append(rec)
			}
			p.SubmitSlab(s)
		}
	}
	submit(gen.Prelude)
	submit(gen.Scan)
	p.Close() // drains every shard queue
	run := &sparseRun{
		ingested:  p.C.Ingested.Load(),
		processed: p.C.Processed.Load(),
		elapsed:   time.Since(start),
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	run.heapDelta = int64(after.HeapAlloc) - int64(before.HeapAlloc)

	// Loss accounting: nothing shed, every out-of-fabric scan id
	// rejected at validation, everything else processed.
	if n := p.C.Dropped.Load(); n != 0 {
		return nil, fmt.Errorf("sparse: %d records dropped (pacing broken)", n)
	}
	wantBad := uint64(len(gen.Scan) - gen.InFabricScan)
	if n := p.C.BadVictim.Load(); n != wantBad {
		return nil, fmt.Errorf("sparse: bad-victim rejects = %d, want %d", n, wantBad)
	}
	wantProcessed := uint64(len(gen.Prelude) + gen.InFabricScan)
	if run.processed != wantProcessed {
		return nil, fmt.Errorf("sparse: processed = %d, want %d", run.processed, wantProcessed)
	}

	// The gate: every non-attacked in-fabric id tallied sketch-only,
	// plus each attacked victim's pre-admission records (replayed on
	// admission, so they suppress AND identify).
	wantSuppressed := uint64(gen.InFabricScan + len(gen.Victims)*(admit-1))
	if n := p.C.SketchSuppressed.Load(); n != wantSuppressed {
		return nil, fmt.Errorf("sparse: suppressed = %d, want %d", n, wantSuppressed)
	}
	if n := p.C.SketchReplayed.Load(); n != uint64(len(gen.Victims)*(admit-1)) {
		return nil, fmt.Errorf("sparse: replayed = %d, want %d", n, len(gen.Victims)*(admit-1))
	}
	if n := p.C.VictimsAdmitted.Load(); n != uint64(len(gen.Victims)) {
		return nil, fmt.Errorf("sparse: admitted = %d victims, want %d", n, len(gen.Victims))
	}

	// Bounded state: exact victim state is the attacked set, nothing
	// scanned materialized.
	if n := p.Snapshot().VictimStates; n != len(gen.Victims) {
		return nil, fmt.Errorf("sparse: %d victim states materialized, want %d", n, len(gen.Victims))
	}

	// Exactness: the daemon's per-victim answer equals an offline
	// identifier fed the same prelude — admission lost no evidence.
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		return nil, err
	}
	for _, v := range gen.Victims {
		offline := traceback.NewDDPMIdentifier(scheme, v)
		for _, rec := range gen.Prelude {
			if rec.Victim == v {
				offline.ObserveMF(rec.MF)
			}
		}
		snap, ok := p.ExportVictim(v)
		if !ok {
			return nil, fmt.Errorf("sparse: attacked victim %d has no exact state", v)
		}
		if snap.Undecodable != offline.Undecodable() {
			return nil, fmt.Errorf("sparse: victim %d undecodable = %d, offline %d",
				v, snap.Undecodable, offline.Undecodable())
		}
		var offlineSources int
		offline.EachSource(func(topology.NodeID, int64) { offlineSources++ })
		if len(snap.Sources) != offlineSources {
			return nil, fmt.Errorf("sparse: victim %d has %d sources, offline %d",
				v, len(snap.Sources), offlineSources)
		}
		for _, sc := range snap.Sources {
			if want := offline.Count(topology.NodeID(sc.Node)); sc.Count != want {
				return nil, fmt.Errorf("sparse: victim %d source %d tally = %d, offline %d",
					v, sc.Node, sc.Count, want)
			}
		}
	}

	// Flat memory: retained heap growth stays within the attacked-set
	// budget. The million-record workload is allocated before the first
	// snapshot and kept alive past the second, so it cancels out.
	if run.heapDelta > sparseHeapBudget {
		return nil, fmt.Errorf("sparse: retained heap grew %d MB (budget %d MB)",
			run.heapDelta>>20, int64(sparseHeapBudget)>>20)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(gen)
	return run, nil
}

// benchSparseVictims wraps runSparseOnce for testing.Benchmark. Any
// invariant failure lands in *errp — b.Fatal inside testing.Benchmark
// produces an empty result instead of a visible error.
func benchSparseVictims(errp *error) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var ingested uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run, err := runSparseOnce()
			if err != nil {
				*errp = err
				return
			}
			// The scan's validation rejects are real per-record work, so
			// the rate is over everything offered, not just processed.
			ingested += run.ingested
		}
		b.ReportMetric(float64(ingested)/b.Elapsed().Seconds(), "records/sec")
	}
}
