package pipeline

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/marking"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// sparseHeapBudget bounds the pipeline's retained-heap growth across
// TestSparseVictimInvariants. The run measures 6–11.2 MB (sketches,
// slab pool, detector windows; the 8 attacked victims are ≈ 1.5 KB
// each, highest on a cold first run), and a victim state is ≈ 1.2 KB,
// so materializing all 65 536 in-fabric scanned ids would add ≈ 79 MB:
// twice the measured ceiling still leaves a leak of a quarter of them
// over budget.
const sparseHeapBudget = 24 << 20

// TestSparseVictimInvariants is the destination-scan workload the
// sketch admission gate exists for: a 65,536-node hypercube fabric, 8
// attacked victims with real marked prelude traffic, then a scan
// touching 2^20 distinct destination ids exactly once. Without the gate
// every in-fabric scanned id would materialize detectors and identifier
// state; with it, exact state stays bounded by the attacked set while
// identification on the attacked victims stays bit-for-bit equal to an
// offline identifier fed the same records. It also pins zero drops,
// exact suppression and replay accounting, and flat memory.
func TestSparseVictimInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("million-record workload")
	}
	net := topology.NewHypercube(16)
	const admit = 8
	gen, err := loadgen.GenerateSparse(loadgen.SparseScenario{
		Net: net, PerVictim: 64, ScanIDs: 1 << 20, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	p, err := New(Config{
		Net: net, Shards: 4, QueueLen: 64,
		SketchAdmit:    admit,
		BlockThreshold: 1 << 30, // identification only, no blocking
	})
	if err != nil {
		t.Fatal(err)
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
	elapsed := time.Since(start)

	runtime.GC()
	runtime.ReadMemStats(&after)
	heapDelta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("sparse: %d ingested, %d processed in %v (heap delta %d KB)",
		p.C.Ingested.Load(), p.C.Processed.Load(), elapsed, heapDelta>>10)

	// Loss accounting: nothing shed, every out-of-fabric scan id
	// rejected at validation, everything else processed.
	if n := p.C.Dropped.Load(); n != 0 {
		t.Fatalf("%d records dropped (pacing broken)", n)
	}
	wantBad := uint64(len(gen.Scan) - gen.InFabricScan)
	if n := p.C.BadVictim.Load(); n != wantBad {
		t.Fatalf("bad-victim rejects = %d, want %d", n, wantBad)
	}
	wantProcessed := uint64(len(gen.Prelude) + gen.InFabricScan)
	if n := p.C.Processed.Load(); n != wantProcessed {
		t.Fatalf("processed = %d, want %d", n, wantProcessed)
	}

	// The gate: every non-attacked in-fabric id tallied sketch-only,
	// plus each attacked victim's pre-admission records (replayed on
	// admission, so they suppress AND identify).
	wantSuppressed := uint64(gen.InFabricScan + len(gen.Victims)*(admit-1))
	if n := p.C.SketchSuppressed.Load(); n != wantSuppressed {
		t.Fatalf("suppressed = %d, want %d", n, wantSuppressed)
	}
	if n := p.C.SketchReplayed.Load(); n != uint64(len(gen.Victims)*(admit-1)) {
		t.Fatalf("replayed = %d, want %d", n, len(gen.Victims)*(admit-1))
	}
	if n := p.C.VictimsAdmitted.Load(); n != uint64(len(gen.Victims)) {
		t.Fatalf("admitted = %d victims, want %d", n, len(gen.Victims))
	}

	// Bounded state: exact victim state is the attacked set, nothing
	// scanned materialized.
	if n := p.Snapshot().VictimStates; n != len(gen.Victims) {
		t.Fatalf("%d victim states materialized, want %d", n, len(gen.Victims))
	}

	// Exactness: the daemon's per-victim answer equals an offline
	// identifier fed the same prelude — admission lost no evidence.
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		t.Fatal(err)
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
			t.Fatalf("attacked victim %d has no exact state", v)
		}
		if snap.Undecodable != offline.Undecodable() {
			t.Fatalf("victim %d undecodable = %d, offline %d",
				v, snap.Undecodable, offline.Undecodable())
		}
		var offlineSources int
		offline.EachSource(func(topology.NodeID, int64) { offlineSources++ })
		if len(snap.Sources) != offlineSources {
			t.Fatalf("victim %d has %d sources, offline %d",
				v, len(snap.Sources), offlineSources)
		}
		for _, sc := range snap.Sources {
			if want := offline.Count(topology.NodeID(sc.Node)); sc.Count != want {
				t.Fatalf("victim %d source %d tally = %d, offline %d",
					v, sc.Node, sc.Count, want)
			}
		}
	}

	// Flat memory: retained heap growth stays within the attacked-set
	// budget. The million-record workload is allocated before the first
	// snapshot and kept alive past the second, so it cancels out.
	if heapDelta > sparseHeapBudget {
		t.Fatalf("retained heap grew %d MB (budget %d MB)",
			heapDelta>>20, int64(sparseHeapBudget)>>20)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(gen)
}
