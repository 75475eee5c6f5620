package pipeline

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestBatchBackpressureShedsWholeSubBatch pins the batch-granularity
// shed contract: when a shard queue is full, SubmitSlab drops that
// shard's entire sub-batch and counts every record of it, and the
// counters still balance (ingested = accepted + dropped + rejected).
func TestBatchBackpressureShedsWholeSubBatch(t *testing.T) {
	net := topology.NewMesh2D(4)
	gate := make(chan struct{})
	var released atomic.Bool
	p, err := New(Config{
		Net: net, Shards: 1, QueueLen: 1,
		Now: func() int64 {
			if !released.Load() {
				<-gate // stall the worker inside its victim group
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := wire.Record{Topo: p.TopoID(), Victim: 3}

	// One batch enters the worker and stalls on the clock; a second
	// fills the depth-1 queue.
	if got := submit(p, rec); !got {
		t.Fatal("first submit rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.C.Processed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	s := p.GetSlab()
	for i := 0; i < 3; i++ {
		s.Append(rec)
	}
	if got := p.SubmitSlab(s); got != 3 {
		t.Fatalf("queue-filling batch accepted %d records, want 3", got)
	}

	// Queue full: the whole 5-record sub-batch must shed, per-record
	// counted, without blocking.
	s = p.GetSlab()
	for i := 0; i < 5; i++ {
		s.Append(rec)
	}
	done := make(chan int)
	go func() { done <- p.SubmitSlab(s) }()
	select {
	case got := <-done:
		if got != 0 {
			t.Errorf("submit to a full queue accepted %d records", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SubmitSlab blocked on a full shard queue")
	}
	if got := p.C.Dropped.Load(); got != 5 {
		t.Errorf("dropped = %d, want 5 (whole sub-batch)", got)
	}

	released.Store(true)
	close(gate)
	p.Close()
	// Snapshot only after the gate opens: it consults the test clock too.
	snap := p.Snapshot()
	if snap.ShardDropped[0] != 5 {
		t.Errorf("shard dropped = %d, want 5", snap.ShardDropped[0])
	}
	if snap.Ingested != snap.Accepted+snap.Dropped {
		t.Errorf("counters unbalanced: ingested %d != accepted %d + dropped %d",
			snap.Ingested, snap.Accepted, snap.Dropped)
	}
	if got := p.C.Processed.Load(); got != 4 {
		t.Errorf("processed = %d after drain, want 4", got)
	}
	if got := p.SlabsOutstanding(); got != 0 {
		t.Errorf("slabs outstanding after drain = %d, want 0", got)
	}
}

// TestSubmitSlabValidationTail checks that Partition's invalid tail is
// counted per record under the right rejection counters and that only
// valid records are accepted.
func TestSubmitSlabValidationTail(t *testing.T) {
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := p.GetSlab()
	s.Append(wire.Record{Topo: p.TopoID(), Victim: 1, MF: 7})
	s.Append(wire.Record{Topo: p.TopoID() + 1, Victim: 1}) // wrong fabric
	s.Append(wire.Record{Topo: p.TopoID(), Victim: 99})    // victim out of range
	s.Append(wire.Record{Topo: p.TopoID(), Victim: 2, MF: 9})
	if got := p.SubmitSlab(s); got != 2 {
		t.Fatalf("accepted %d records, want 2", got)
	}
	p.Close()
	if got := p.C.TopoMismatch.Load(); got != 1 {
		t.Errorf("topo mismatch = %d, want 1", got)
	}
	if got := p.C.BadVictim.Load(); got != 1 {
		t.Errorf("bad victim = %d, want 1", got)
	}
	if got := p.C.Processed.Load(); got != 2 {
		t.Errorf("processed = %d, want 2", got)
	}
	if got := p.SlabsOutstanding(); got != 0 {
		t.Errorf("slabs outstanding = %d, want 0", got)
	}
}

// TestSlabLifecycleAcrossPipeline drives many multi-victim slabs —
// some accepted, some shed, some after Close — and asserts every slab
// returned to the pool: the drain-time leak check the pool's
// Outstanding counter exists for.
func TestSlabLifecycleAcrossPipeline(t *testing.T) {
	net := topology.NewMesh2D(8)
	p, err := New(Config{Net: net, Shards: 4, QueueLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 200; iter++ {
		s := p.GetSlab()
		for i := 0; i < 100; i++ {
			s.Append(wire.Record{
				Topo: p.TopoID(), Victim: topology.NodeID((iter + i) % net.NumNodes()),
				MF: uint16(i),
			})
		}
		p.SubmitSlab(s) // sheds freely against the tiny queues
	}
	p.Close()
	// Post-close submits must release their slabs too.
	s := p.GetSlab()
	s.Append(wire.Record{Topo: p.TopoID(), Victim: 1})
	if got := p.SubmitSlab(s); got != 0 {
		t.Errorf("post-close submit accepted %d records", got)
	}
	if got := p.C.RejectedClosed.Load(); got != 1 {
		t.Errorf("rejected-closed = %d, want 1", got)
	}
	if got := p.SlabsOutstanding(); got != 0 {
		t.Fatalf("slabs outstanding after drain = %d, want 0 (leak)", got)
	}
	snap := p.Snapshot()
	if snap.Processed != snap.Accepted {
		t.Errorf("processed %d != accepted %d after drain", snap.Processed, snap.Accepted)
	}
}

// drainAllocs measures the steady-state allocations of one full slab
// lifecycle — GetSlab → n appends → SubmitSlab → workers drained — over
// eight victims on two shards. The quiesce barrier allocates a little
// itself, identically in every configuration compared.
func drainAllocs(t *testing.T, traceBuffer, n int, traced bool) float64 {
	t.Helper()
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 2, TraceBuffer: traceBuffer})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mf := mkMF(t, net, 9, 5)
	var id uint64
	return testing.AllocsPerRun(50, func() {
		s := p.GetSlab()
		for i := 0; i < n; i++ {
			rec := wire.Record{Topo: p.TopoID(), Victim: topology.NodeID(i % 8), MF: mf}
			if id++; traced {
				s.AppendTraced(wire.TracedRecord{Record: rec, Ctx: wire.TraceContext{ID: id, Sent: 1}})
			} else {
				s.Append(rec)
			}
		}
		p.SubmitSlab(s)
		quiesce(p)
	})
}

// TestSubmitUntracedZeroExtraAlloc pins the untraced lane's cost: a
// 16-record slab without contexts allocates exactly the same with the
// flight recorder armed as with tracing disabled outright — an armed
// recorder costs slabs that carry no lane nothing.
func TestSubmitUntracedZeroExtraAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	armed, disabled := drainAllocs(t, 4096, 16, false), drainAllocs(t, -1, 16, false)
	if armed != disabled {
		t.Fatalf("untraced slab allocates %.1f/op with the recorder armed, %.1f/op with tracing disabled — the trace lane leaked onto the untraced path", armed, disabled)
	}
}

// TestTracedSlabDrainsWithoutAllocating: at steady state a 1 024-record
// traced slab — one trace committed per record — allocates nothing the
// same slab without its lane does not: the slab's context buffer, the
// shard's outcome scratch and the recorder's ring are all reused.
func TestTracedSlabDrainsWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	traced, plain := drainAllocs(t, 4096, 1024, true), drainAllocs(t, 4096, 1024, false)
	if traced != plain {
		t.Fatalf("traced 1024-record slab allocates %.1f/op, untraced %.1f/op — want 0 allocations per traced record", traced, plain)
	}
}

// benchProcessSub times the shard worker's path alone: processSub over
// one 1 024-record slab of 16 victims' groups, 64 records each from 8
// sources of which 4 are blocked — half the slab blocked hits — with
// every context nonzero when traced. Each op moves the slab's ticks on by
// 64, so the detectors' windows keep closing.
func benchProcessSub(b *testing.B, traced bool) {
	net := topology.NewMesh2D(8)
	p, err := New(Config{Net: net, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	slab := p.GetSlab()
	defer slab.Release()
	for i := 0; i < 1024; i++ {
		v, src := topology.NodeID(i/64), topology.NodeID(32+i%8)
		rec := wire.Record{T: eventq.Time(i % 64), Topo: p.TopoID(), Victim: v, MF: mkMF(b, net, src, v), Src: packet.Addr(src)}
		if traced {
			slab.AppendTraced(wire.TracedRecord{Record: rec, Ctx: wire.TraceContext{ID: uint64(i) + 1, Sent: 1}})
		} else {
			slab.Append(rec)
		}
		if i < 64 && i%8 < 4 {
			p.Blocklist().BlockUntilFor(src, filter.Permanent, v)
		}
	}
	s := p.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	run := func() {
		p.processSub(s, 0, batch{slab: slab, end: int32(slab.Len()), t0: time.Now().UnixNano()})
		for i := range slab.Recs {
			slab.Recs[i].T += 64
		}
	}
	run() // admit the victims
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slab.Len()), "ns/rec")
}

func BenchmarkProcessSubTraced(b *testing.B)   { benchProcessSub(b, true) }
func BenchmarkProcessSubUntraced(b *testing.B) { benchProcessSub(b, false) }
