package cluster

// Route forward-path benchmarks and its allocation pins. The harness
// parks every forwarder on a dial that only completes at cleanup and
// then fills the forward queues with pooled slabs, so Route runs
// against the deterministic shed path with no background goroutine
// allocating during measurement.

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

func newBenchNode(tb testing.TB, traceBuffer int) (*Node, *pipeline.Pipeline) {
	tb.Helper()
	p, err := pipeline.New(pipeline.Config{
		Net: topology.NewTorus2D(8), Shards: 2, QueueLen: 1 << 12,
		BlockThreshold: 1 << 30, BlockTTL: time.Hour,
		TraceBuffer: traceBuffer, TraceSampleN: 1 << 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	block := make(chan struct{})
	parked := make(chan struct{}, 8)
	var now atomic.Int64
	now.Store(1)
	n, err := New(p, Config{
		Self:           "10.9.0.1:1",
		Peers:          []string{"10.9.0.2:1", "10.9.0.3:1"},
		GossipInterval: time.Hour, FailAfter: time.Hour,
		Incarnation: 901,
		Dial: func(string) (net.Conn, error) {
			select {
			case parked <- struct{}{}:
			default: // retries after cleanup: no one is counting
			}
			<-block
			return nil, errors.New("bench: no network")
		},
		Now:  now.Load,
		Logf: tb.Logf,
	})
	if err != nil {
		p.Close()
		tb.Fatal(err)
	}
	// Hand each forwarder one record, which its flush dials for, and wait
	// until every forwarder is parked in that dial. Then saturate the
	// queues: every enqueue after this sheds without touching a goroutine.
	oneRecord := func() *wire.Slab {
		s := p.GetSlab()
		s.Append(wire.Record{Topo: p.TopoID()})
		return s
	}
	peers := n.members.Load().list
	for _, pr := range peers {
		pr.queue <- oneRecord()
	}
	for range peers {
		<-parked
	}
	for _, pr := range peers {
		for len(pr.queue) < cap(pr.queue) {
			pr.queue <- oneRecord()
		}
	}
	tb.Cleanup(func() {
		// Drain the saturated queues so shutdown doesn't grind each stale
		// batch through the failing client's retry backoff.
		for _, pr := range peers {
			for len(pr.queue) > 0 {
				(<-pr.queue).Release()
			}
		}
		close(block)
		n.Close()
		p.Close()
	})
	return n, p
}

// peerVictims lists victims this node does not own — records for them
// take Route's forward partition, never the local submit.
func peerVictims(n *Node) []topology.NodeID {
	ring := n.Ring()
	var vs []topology.NodeID
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) != n.self {
			vs = append(vs, v)
		}
	}
	return vs
}

func benchRouteForward(b *testing.B, traced bool) {
	n, p := newBenchNode(b, 4096)
	vs := peerVictims(n)
	topo := p.TopoID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := p.GetSlab()
		for j := 0; j < 256; j++ {
			rec := wire.Record{Victim: vs[j%len(vs)], MF: uint16(j), Topo: topo}
			if traced {
				s.AppendTraced(wire.TracedRecord{
					Record: rec,
					Ctx:    wire.TraceContext{ID: uint64(i)<<16 | uint64(j+1), Sent: 1},
				})
			} else {
				s.Append(rec)
			}
		}
		n.Route(s)
	}
}

func BenchmarkClusterRouteForwardUntraced(b *testing.B) { benchRouteForward(b, false) }
func BenchmarkClusterRouteForwardTraced(b *testing.B)   { benchRouteForward(b, true) }

// routeAllocs reports Route's allocations per 256-record slab of
// foreign records on the shed path, traced or not.
func routeAllocs(t *testing.T, traceBuffer int, traced bool) float64 {
	n, p := newBenchNode(t, traceBuffer)
	vs := peerVictims(n)
	topo := p.TopoID()
	i := 0
	return testing.AllocsPerRun(50, func() {
		i++
		s := p.GetSlab()
		for j := 0; j < 256; j++ {
			rec := wire.Record{Victim: vs[j%len(vs)], MF: uint16(j), Topo: topo}
			if traced {
				s.AppendTraced(wire.TracedRecord{
					Record: rec,
					Ctx:    wire.TraceContext{ID: uint64(i)<<16 | uint64(j+1), Sent: 1},
				})
			} else {
				s.Append(rec)
			}
		}
		n.Route(s)
	})
}

// TestRouteUntracedZeroExtraAlloc: routing an untraced slab through the
// forward partition must allocate exactly the same with the flight
// recorder armed as with tracing disabled outright — the trace lane's
// cost (clock read, context lane, origin-span commits) is paid only by
// slabs that actually carry contexts.
func TestRouteUntracedZeroExtraAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	armed, disabled := routeAllocs(t, 4096, false), routeAllocs(t, -1, false)
	if armed != disabled {
		t.Fatalf("untraced Route allocates %.1f/op with the recorder armed, %.1f/op with tracing disabled — the trace lane leaked onto the untraced path", armed, disabled)
	}
}

// TestRouteShedPathZeroAlloc pins the forward partition's cost: batches
// are pooled slabs, so routing a slab of foreign records into full
// queues allocates nothing, traced or not.
func TestRouteShedPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	for _, traced := range []bool{false, true} {
		if got := routeAllocs(t, 4096, traced); got != 0 {
			t.Errorf("Route (traced=%v) allocates %.1f/op on the shed path, want 0", traced, got)
		}
	}
}
