package cluster

// Route forward-path benchmarks and its allocation pins. The harness
// builds an unstarted node, whose forwarders run only when stepped, and
// fills the forward queues with pooled slabs, so Route runs against the
// deterministic shed path with no background goroutine allocating
// during measurement. The gated variants arm the forwarding gate and
// admit every victim during setup, so each measured record holds a
// pass — except the scan variants', whose victims never repeat within a
// slab and stay cold, so every record is suppressed. The scan and
// short-slab variants are the cases Route's per-call victim memo cannot
// pay for: a scan's victims never repeat, and a short slab skips the
// memo.

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

func newBenchNode(tb testing.TB, traceBuffer, sketchAdmit int) (*Node, *pipeline.Pipeline) {
	tb.Helper()
	p, err := pipeline.New(pipeline.Config{
		Net: topology.NewTorus2D(8), Shards: 2, QueueLen: 1 << 12,
		BlockThreshold: 1 << 30, BlockTTL: time.Hour,
		TraceBuffer: traceBuffer, TraceSampleN: 1 << 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var now atomic.Int64
	now.Store(1)
	n, err := build(p, Config{
		Self:           "10.9.0.1:1",
		Peers:          []string{"10.9.0.2:1", "10.9.0.3:1"},
		GossipInterval: time.Hour, FailAfter: time.Hour,
		SketchAdmit: sketchAdmit,
		Dial:        func(string) (net.Conn, error) { return nil, errors.New("bench: no network") },
		Now:         now.Load,
		Logf:        tb.Logf,
	})
	if err != nil {
		p.Close()
		tb.Fatal(err)
	}
	// Saturate the queues: every enqueue after this sheds.
	for _, pr := range n.members.Load().list {
		for len(pr.queue) < cap(pr.queue) {
			s := p.GetSlab()
			s.Append(wire.Record{Topo: p.TopoID()})
			pr.queue <- s
		}
	}
	tb.Cleanup(func() {
		n.Close()
		p.Close()
	})
	return n, p
}

// peerVictims lists victims this node does not own — records for them
// take Route's forward partition, never the local submit.
func peerVictims(n *Node) []topology.NodeID {
	ring := n.ring.Load()
	var vs []topology.NodeID
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) != n.self {
			vs = append(vs, v)
		}
	}
	return vs
}

// gatedAdmit is the gated benchmarks' SketchAdmit.
const gatedAdmit = 64

// gatedVictims draws 64 distinct foreign victims at random from ids up
// to 4 096, far past slot 63, so some share a slot of Route's victim
// memo; then it routes gatedAdmit records of each, so every one holds a
// forwarding pass when measurement starts.
func gatedVictims(n *Node, p *pipeline.Pipeline) []topology.NodeID {
	ring := n.ring.Load()
	seen := map[topology.NodeID]bool{}
	var vs []topology.NodeID
	for i := uint64(1); len(vs) < 64; i++ {
		v := topology.NodeID(splitmix64(i) % 4096)
		if !seen[v] && ring.Owner(v) != n.self {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	for _, v := range vs {
		s := p.GetSlab()
		for j := 0; j < gatedAdmit; j++ {
			s.Append(wire.Record{Victim: v, MF: uint16(j), Topo: p.TopoID()})
		}
		n.Route(s)
	}
	return vs
}

// sweepVictims lists the first 1<<17 ids this node does not own, in or
// out of the fabric, as a scan sweeping the id space hits them: a slab
// of 256 names 256 distinct victims, and each comes round again only
// every 512 slabs, too rarely to earn a forwarding pass.
func sweepVictims(n *Node) []topology.NodeID {
	ring := n.ring.Load()
	vs := make([]topology.NodeID, 0, 1<<17)
	for v := topology.NodeID(0); len(vs) < cap(vs); v++ {
		if ring.Owner(v) != n.self {
			vs = append(vs, v)
		}
	}
	return vs
}

// routeSlab fills one slab of per records, call i's window of vs (per
// consecutive victims, wrapping), with trace contexts numbered from i
// when traced, and routes it.
func routeSlab(n *Node, p *pipeline.Pipeline, vs []topology.NodeID, i, per int, traced bool) {
	topo := p.TopoID()
	s := p.GetSlab()
	for j := 0; j < per; j++ {
		rec := wire.Record{Victim: vs[(i*per+j)%len(vs)], MF: uint16(j), Topo: topo}
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

// benchRouteForward routes slabs of per records over the fleet's
// foreign victims, or over sweepVictims when scan is set.
func benchRouteForward(b *testing.B, traced, gated, scan bool, per int) {
	admit := 0
	if gated {
		admit = gatedAdmit
	}
	n, p := newBenchNode(b, 4096, admit)
	vs := peerVictims(n)
	if scan {
		vs = sweepVictims(n)
	} else if gated {
		vs = gatedVictims(n, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeSlab(n, p, vs, i, per, traced)
	}
}

func BenchmarkClusterRouteForwardUntraced(b *testing.B) {
	benchRouteForward(b, false, false, false, 256)
}
func BenchmarkClusterRouteForwardTraced(b *testing.B) { benchRouteForward(b, true, false, false, 256) }
func BenchmarkClusterRouteForwardGated(b *testing.B)  { benchRouteForward(b, false, true, false, 256) }
func BenchmarkClusterRouteForwardScan(b *testing.B)   { benchRouteForward(b, false, false, true, 256) }
func BenchmarkClusterRouteForwardScanGated(b *testing.B) {
	benchRouteForward(b, false, true, true, 256)
}
func BenchmarkClusterRouteForwardShort(b *testing.B) { benchRouteForward(b, false, false, false, 16) }
func BenchmarkClusterRouteForwardShortGated(b *testing.B) {
	benchRouteForward(b, false, true, false, 16)
}

// routeAllocs reports Route's allocations per 256-record slab of
// foreign records on the shed path, traced or not, gated or not.
func routeAllocs(t *testing.T, traceBuffer int, traced, gated bool) float64 {
	admit := 0
	if gated {
		admit = gatedAdmit
	}
	n, p := newBenchNode(t, traceBuffer, admit)
	vs := peerVictims(n)
	if gated {
		vs = gatedVictims(n, p)
	}
	i := 0
	return testing.AllocsPerRun(50, func() {
		i++
		routeSlab(n, p, vs, i, 256, traced)
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
	armed, disabled := routeAllocs(t, 4096, false, false), routeAllocs(t, -1, false, false)
	if armed != disabled {
		t.Fatalf("untraced Route allocates %.1f/op with the recorder armed, %.1f/op with tracing disabled — the trace lane leaked onto the untraced path", armed, disabled)
	}
}

// TestRouteShedPathZeroAlloc pins the forward partition's cost: batches
// are pooled slabs, so routing a slab of foreign records into full
// queues allocates nothing, traced or not — nor, once its victims hold
// forwarding passes, through the armed gate.
func TestRouteShedPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	for _, traced := range []bool{false, true} {
		if got := routeAllocs(t, 4096, traced, false); got != 0 {
			t.Errorf("Route (traced=%v) allocates %.1f/op on the shed path, want 0", traced, got)
		}
	}
	if got := routeAllocs(t, 4096, false, true); got != 0 {
		t.Errorf("Route (gated) allocates %.1f/op on the shed path, want 0", got)
	}
}
