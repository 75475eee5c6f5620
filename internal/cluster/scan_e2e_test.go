package cluster

// The forwarding-amplification acceptance test: a two-instance fleet
// with the forwarding gate armed takes a 2^20-id destination scan on
// one instance, and the gate must keep the forwarding tier silent —
// without it every unowned scan id turns 1:1 into a forwarded record,
// which is precisely the volumetric pattern the daemon exists to
// suppress. A genuinely hot destination then earns admission and its
// owner tallies every one of its records exactly (buffered-prefix
// replay), proving suppression costs no identification evidence.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/marking"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// scrapeMetric fetches one un-labeled series value from /metrics.
func scrapeMetric(t *testing.T, httpAddr, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		return v, true
	}
	return 0, false
}

func TestClusterScanSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet test")
	}
	const admit = 64
	const scanIDs = 1 << 20

	net8 := topology.NewTorus2D(8)
	addrs := grabAddrs(t, 2)
	nodes := make([]*Node, 2)
	daemons := make([]*pipeline.Daemon, 2)
	for i := 0; i < 2; i++ {
		i := i
		d, err := pipeline.Start(pipeline.ServerConfig{
			Pipeline: pipeline.Config{
				Net: topology.NewTorus2D(8), Shards: 4, QueueLen: 1 << 15,
				SketchAdmit:    admit,
				BlockThreshold: 1 << 30, BlockTTL: time.Hour,
			},
			TCPAddr:  addrs[i],
			HTTPAddr: "127.0.0.1:0",
			NewCluster: func(p *pipeline.Pipeline) (pipeline.ClusterNode, error) {
				n, err := New(p, Config{
					Self: addrs[i], Peers: []string{addrs[1-i]},
					SketchAdmit:    admit,
					GossipInterval: 25 * time.Millisecond,
					// Generous: a mid-scan ring flap would re-partition
					// ownership and wreck the deterministic counts below.
					FailAfter: 5 * time.Second,
					Logf:      t.Logf,
				})
				if err != nil {
					return nil, err // not a typed-nil *Node, which Start would Close
				}
				nodes[i] = n
				return n, nil
			},
		})
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		daemons[i] = d
		defer d.Shutdown(context.Background())
	}

	ring := nodes[0].ring.Load()
	// The hot destination: an in-fabric victim daemon 0 does NOT own,
	// kept out of the scan so its admission accounting stays exact.
	hot := topology.NodeID(-1)
	for v := topology.NodeID(0); v < topology.NodeID(net8.NumNodes()); v++ {
		if ring.Owner(v) == nodes[1].self {
			hot = v
			break
		}
	}
	if hot < 0 {
		t.Fatal("daemon 1 owns nothing in-fabric")
	}

	topoID := daemons[0].Pipeline().TopoID()
	newClient := func(seed uint64) *wire.Client {
		c, err := wire.NewClient(wire.ClientConfig{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addrs[0]) },
			Seed:        seed,
			MaxBatch:    512,
			MaxAttempts: 8,
			Sleep:       func(d time.Duration) { time.Sleep(min(d/10, 20*time.Millisecond)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Phase 1: the scan. 2^20 distinct destination ids — virtually all
	// outside the 64-node fabric, exactly like an id-space sweep — land
	// on daemon 0. Owner-side routing still hashes every id, so without
	// the gate the unowned half would be forwarded verbatim.
	unowned := 0
	scan := make([]wire.Record, 0, scanIDs)
	for id := 0; id < scanIDs; id++ {
		v := topology.NodeID(id)
		if v == hot {
			continue
		}
		scan = append(scan, wire.Record{Victim: v, Topo: topoID})
		if ring.Owner(v) != nodes[0].self {
			unowned++
		}
	}
	c := newClient(71)
	for i := 0; i < len(scan); i += 512 {
		end := i + 512
		if end > len(scan) {
			end = len(scan)
		}
		if err := c.Send(scan[i:end]); err != nil {
			t.Fatalf("scan send: %v", err)
		}
	}
	c.Close()
	if c.Delivered() != c.Sent() || c.Lost() != 0 {
		t.Fatalf("scan delivery: sent=%d delivered=%d lost=%d", c.Sent(), c.Delivered(), c.Lost())
	}

	// Routing is inline with the session, so after the final ack the
	// verdict is in: the scan must not have earned a single forward.
	if got := nodes[0].ring.Load().Version(); got != 1 {
		t.Fatalf("ring flapped to v%d mid-scan", got)
	}
	admitted := uint64(nodes[0].gate.admittedCount())
	if out := nodes[0].forwardedOut.Load(); out > admitted*admit {
		t.Fatalf("scan forwarded %d records, want <= admitted(%d) x admit(%d)", out, admitted, admit)
	}
	if out := nodes[0].forwardedOut.Load(); out != 0 {
		t.Fatalf("one-shot scan ids forwarded %d records, want 0", out)
	}
	if sup := nodes[0].forwardSuppress.Load(); sup != uint64(unowned) {
		t.Fatalf("suppressed %d records, want %d (every unowned scan id)", sup, unowned)
	}
	if v, ok := scrapeMetric(t, daemons[0].HTTPAddr().String(), "ddpmd_forwarded_total"); !ok || v != 0 {
		t.Fatalf("ddpmd_forwarded_total = %v (found=%v), want 0", v, ok)
	}
	if v, ok := scrapeMetric(t, daemons[0].HTTPAddr().String(), "ddpmd_forward_suppressed_total"); !ok || v != float64(unowned) {
		t.Fatalf("ddpmd_forward_suppressed_total = %v (found=%v), want %d", v, ok, unowned)
	}

	// Phase 2: a genuinely hot destination. 500 records for one unowned
	// in-fabric victim must admit at the threshold and replay the
	// buffered prefix. With the table still warm from the scan the
	// victim's first few records may land before it wins a slot — those
	// are absorbed sketch-only, the same below-threshold tradeoff the
	// pipeline gate makes — but from the slot onward nothing is lost:
	// the shortfall is bounded by the earn window, and the owner's
	// exact tallies equal the forwarded count bit-for-bit.
	scheme, err := marking.NewDDPM(net8)
	if err != nil {
		t.Fatal(err)
	}
	src := topology.NodeID(9)
	if src == hot {
		src = 10
	}
	sc, dc := net8.CoordOf(src), net8.CoordOf(hot)
	vec := make(topology.Vector, len(sc))
	for i := range vec {
		vec[i] = dc[i] - sc[i]
	}
	mf, err := scheme.Codec().Encode(vec)
	if err != nil {
		t.Fatal(err)
	}
	const hotCount = 500
	flood := make([]wire.Record, hotCount)
	for i := range flood {
		flood[i] = wire.Record{Victim: hot, MF: mf, Topo: topoID}
	}
	c = newClient(72)
	if err := c.Send(flood); err != nil {
		t.Fatalf("flood send: %v", err)
	}
	c.Close()
	if c.Delivered() != c.Sent() || c.Lost() != 0 {
		t.Fatalf("flood delivery: sent=%d delivered=%d lost=%d", c.Sent(), c.Delivered(), c.Lost())
	}

	out := nodes[0].forwardedOut.Load()
	if out > hotCount || out < hotCount-admit {
		t.Fatalf("hot victim forwarded %d records, want within the earn window of %d (>= %d)",
			out, hotCount, hotCount-admit)
	}
	if got := nodes[0].gate.admittedCount(); got != 1 {
		t.Fatalf("gate admitted %d victims, want 1", got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, ok := daemons[1].Pipeline().ExportVictim(hot)
		if ok && snap.Identified()+snap.Undecodable == int64(out) {
			if snap.Identified() != int64(out) || len(snap.Sources) != 1 || snap.Sources[0].Node != int64(src) {
				t.Fatalf("owner tallies mangled: %+v", snap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never saw all %d forwarded records (state %+v ok=%v, forward_lost=%d)",
				out, snap, ok, nodes[0].forwardLost.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, ok := scrapeMetric(t, daemons[0].HTTPAddr().String(), "ddpmd_forwarded_total"); !ok || v != float64(out) {
		t.Fatalf("ddpmd_forwarded_total = %v (found=%v), want %d", v, ok, out)
	}
	if v, ok := scrapeMetric(t, daemons[1].HTTPAddr().String(), "ddpmd_forwarded_in_total"); !ok || v != float64(out) {
		t.Fatalf("owner ddpmd_forwarded_in_total = %v (found=%v), want %d", v, ok, out)
	}
}
