package cluster

// Route forward-path benchmarks and the zero-extra-alloc guard for the
// untraced lane. The harness parks every forwarder on a dial that only
// completes at cleanup and pre-fills the forward queues, so Route runs
// against the deterministic shed path with no background goroutine
// allocating during measurement.

import (
	"errors"
	"math"
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
	var now atomic.Int64
	now.Store(1)
	n, err := New(p, Config{
		Self:           "10.9.0.1:1",
		Peers:          []string{"10.9.0.2:1", "10.9.0.3:1"},
		GossipInterval: time.Hour, FailAfter: time.Hour,
		Incarnation: 901,
		Dial: func(string) (net.Conn, error) {
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
	// Saturate every forward queue: each forwarder consumes one batch and
	// parks in the blocked dial; every enqueue after this sheds without
	// touching a goroutine.
	for _, pr := range n.members.Load().list {
	fill:
		for {
			select {
			case pr.queue <- fwBatch{}:
			default:
				break fill
			}
		}
	}
	tb.Cleanup(func() {
		// Drain the saturated queues so shutdown doesn't grind each stale
		// batch through the failing client's retry backoff.
		for _, pr := range n.members.Load().list {
		drain:
			for {
				select {
				case <-pr.queue:
				default:
					break drain
				}
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

// TestRouteUntracedZeroExtraAlloc: routing an untraced slab through the
// forward partition must allocate exactly the same with the flight
// recorder armed as with tracing disabled outright — the trace lane's
// cost (clock read, context batches, origin-span commits) is paid only
// by slabs that actually carry contexts.
//
// AllocsPerRun counts process-wide mallocs, and Route's consumers
// (forward goroutines, shard workers materialising a victim) allocate
// asynchronously inside the window. A stray background allocation can
// only raise a reading, so each side is the minimum of three.
func TestRouteUntracedZeroExtraAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	measure := func(traceBuffer int) float64 {
		n, p := newBenchNode(t, traceBuffer)
		vs := peerVictims(n)
		topo := p.TopoID()
		least := math.Inf(1)
		for i := 0; i < 3; i++ {
			least = min(least, testing.AllocsPerRun(50, func() {
				s := p.GetSlab()
				for j := 0; j < 256; j++ {
					s.Append(wire.Record{Victim: vs[j%len(vs)], MF: uint16(j), Topo: topo})
				}
				n.Route(s)
			}))
		}
		return least
	}
	armed, disabled := measure(4096), measure(-1)
	if armed != disabled {
		t.Fatalf("untraced Route allocates %.1f/op with the recorder armed, %.1f/op with tracing disabled — the trace lane leaked onto the untraced path", armed, disabled)
	}
}
