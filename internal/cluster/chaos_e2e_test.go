package cluster

// The clustered chaos acceptance test: a three-instance fleet ingests
// a seeded flood sprayed round-robin across all instances, the
// instance that owns the attack victim is killed mid-campaign, and the
// survivors must take over without losing a single identification —
// the new owner's per-source tallies equal the offline identifier run
// over every delivered record, and the blocklists of both survivors
// converge to the same fleet-wide set.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/marking"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

const chaosBlockThreshold = 100

// grabAddrs reserves n distinct loopback TCP addresses by binding and
// then releasing them, so the fleet's members can be told each other's
// addresses before any daemon starts. All n stay bound until the last
// is taken: released one by one, the kernel may hand the same port out
// twice, and a member whose peer hashes to itself fails to start.
func grabAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func TestClusterChaosKillOwnerMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet test")
	}

	// Ground truth: the same seeded flood the single-instance chaos
	// test uses.
	res, err := loadgen.Generate(loadgen.Scenario{
		Topo: core.Torus2D(8), Victim: -1, Zombies: 3, Seed: 42,
		AttackGap: 2, Background: 0.002, Warmup: 3000, Attack: 6000,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Three daemons, each a cluster member knowing the other two.
	const fleet = 3
	addrs := grabAddrs(t, fleet)
	nodes := make([]*Node, fleet)
	daemons := make([]*pipeline.Daemon, fleet)
	for i := 0; i < fleet; i++ {
		i := i
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		d, err := pipeline.Start(pipeline.ServerConfig{
			Pipeline: pipeline.Config{
				Net: topology.NewTorus2D(8), Shards: 4, QueueLen: 1 << 15,
				BlockThreshold: chaosBlockThreshold, BlockTTL: time.Hour,
				TraceBuffer: 4096, TraceSampleN: 1,
			},
			TCPAddr:  addrs[i],
			HTTPAddr: "127.0.0.1:0",
			NewCluster: func(p *pipeline.Pipeline) (pipeline.ClusterNode, error) {
				n, err := New(p, Config{
					Self: addrs[i], Peers: peers,
					GossipInterval: 25 * time.Millisecond,
					FailAfter:      1500 * time.Millisecond,
					Logf:           t.Logf,
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
	pipes := make([]*pipeline.Pipeline, fleet)
	for i, d := range daemons {
		pipes[i] = d.Pipeline()
	}

	newClient := func(i int, seed uint64) *wire.Client {
		c, err := wire.NewClient(wire.ClientConfig{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addrs[i]) },
			Seed:        seed,
			MaxBatch:    200,
			MaxAttempts: 8,
			Sleep:       func(d time.Duration) { time.Sleep(min(d/10, 20*time.Millisecond)) },
		})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		return c
	}
	send := func(clients []*wire.Client, recs []wire.Record) (delivered uint64) {
		t.Helper()
		for i := 0; i < len(recs); i += 200 {
			end := i + 200
			if end > len(recs) {
				end = len(recs)
			}
			if err := clients[(i/200)%len(clients)].Send(recs[i:end]); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		for _, c := range clients {
			c.Close()
			if c.Lost() != 0 {
				t.Fatalf("client lost %d records on a healthy network", c.Lost())
			}
			if c.Delivered() != c.Sent() {
				t.Fatalf("client delivered %d of %d sent", c.Delivered(), c.Sent())
			}
			delivered += c.Delivered()
		}
		return delivered
	}
	sumProcessed := func(idx ...int) uint64 {
		var s uint64
		for _, i := range idx {
			s += pipes[i].C.Processed.Load()
		}
		return s
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: ~60% of the campaign, sprayed round-robin across all
	// three instances. Records land anywhere; each is processed exactly
	// once, at its ring owner.
	cut := len(res.Records) * 6 / 10
	phase1 := send([]*wire.Client{newClient(0, 13), newClient(1, 14), newClient(2, 15)}, res.Records[:cut])
	waitFor("phase-1 records to reach their owners", func() bool {
		return sumProcessed(0, 1, 2) == phase1
	})
	for i, n := range nodes {
		if n.forwardDropped.Load() != 0 || n.forwardLost.Load() != 0 {
			t.Fatalf("node %d shed forwards (dropped=%d lost=%d)", i, n.forwardDropped.Load(), n.forwardLost.Load())
		}
		if pipes[i].C.Dropped.Load() != 0 {
			t.Fatalf("pipeline %d dropped records", i)
		}
	}

	// The kill target is the instance that owns the attack victim —
	// the hardest member to lose.
	ring := nodes[0].ring.Load()
	owner := ring.Owner(res.Victim)
	kill, succIdx := -1, -1
	succ := ring.Successor(res.Victim)
	for i, n := range nodes {
		if n.self == owner {
			kill = i
		}
		if n.self == succ {
			succIdx = i
		}
	}
	if kill < 0 || succIdx < 0 || kill == succIdx {
		t.Fatalf("degenerate ring: owner %x successor %x", owner, succ)
	}
	ownerSnap, ok := pipes[kill].ExportVictim(res.Victim)
	if !ok {
		t.Fatal("owner has no state for the attack victim")
	}
	ownerTotal := ownerSnap.Identified() + ownerSnap.Undecodable

	// Before the kill: anti-entropy must have shipped the owner's
	// victim state to the ring successor, and every instance's
	// blocklist must agree (phase 1 crosses the block threshold).
	waitFor("successor to hold the owner's replica of the attack victim", func() bool {
		nodes[succIdx].mu.Lock()
		rep, ok := nodes[succIdx].replicas[res.Victim]
		nodes[succIdx].mu.Unlock()
		return ok && rep.Identified()+rep.Undecodable == ownerTotal
	})
	waitFor("fleet-wide blocklist convergence after phase 1", func() bool {
		a := pipes[0].Blocklist().Snapshot()
		return len(a) > 0 &&
			reflect.DeepEqual(a, pipes[1].Blocklist().Snapshot()) &&
			reflect.DeepEqual(a, pipes[2].Blocklist().Snapshot())
	})

	// Kill the owner mid-campaign.
	procAtKill := sumProcessed(0, 1, 2)
	if err := daemons[kill].Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown daemon %d: %v", kill, err)
	}
	var survivors []int
	for i := range daemons {
		if i != kill {
			survivors = append(survivors, i)
		}
	}

	// Survivors must notice the death and rebuild the ring before more
	// traffic flows, so nothing is routed at a corpse.
	waitFor("survivors to rebuild the ring without the dead member", func() bool {
		for _, i := range survivors {
			if nodes[i].ring.Load().Size() != 2 {
				return false
			}
		}
		return true
	})
	newOwner := nodes[survivors[0]].ring.Load().Owner(res.Victim)
	if newOwner != succ {
		t.Fatalf("post-death owner %x is not the old successor %x", newOwner, succ)
	}

	// Phase 2: the campaign continues on the survivors only. The final
	// tenth is held back for phase 3, after the dead owner rejoins.
	cut2 := len(res.Records) * 9 / 10
	phase2 := send([]*wire.Client{newClient(survivors[0], 23), newClient(survivors[1], 24)}, res.Records[cut:cut2])
	waitFor("phase-2 records to reach their owners", func() bool {
		return sumProcessed(survivors...) == procAtKill-pipes[kill].C.Processed.Load()+phase2
	})
	for _, i := range survivors {
		if nodes[i].forwardDropped.Load() != 0 || nodes[i].forwardLost.Load() != 0 {
			t.Fatalf("survivor %d shed forwards after the kill (dropped=%d lost=%d)",
				i, nodes[i].forwardDropped.Load(), nodes[i].forwardLost.Load())
		}
	}

	// The takeover invariant: the new owner's tallies — seeded replica
	// plus phase-2 traffic — equal the offline identifier over every
	// record the fleet accepted so far, and identification is unchanged.
	scheme, err := marking.NewDDPM(topology.NewTorus2D(8))
	if err != nil {
		t.Fatal(err)
	}
	offline := traceback.NewDDPMIdentifier(scheme, res.Victim)
	for _, rec := range res.Records[:cut2] {
		offline.ObserveMF(rec.MF)
	}
	want := offline.SourcesAbove(chaosBlockThreshold)
	got := pipes[succIdx].SourcesAbove(res.Victim, chaosBlockThreshold)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-takeover identification %v != offline-over-delivered %v", got, want)
	}
	if !reflect.DeepEqual(got, res.Zombies) {
		t.Fatalf("identified %v, ground truth %v", got, res.Zombies)
	}
	if nodes[succIdx].takeovers.Load() == 0 || nodes[succIdx].seedsApplied.Load() == 0 {
		t.Fatalf("takeover happened without seeding (takeovers=%d seeds=%d)",
			nodes[succIdx].takeovers.Load(), nodes[succIdx].seedsApplied.Load())
	}

	// Both survivors serve the same fleet-wide blocklist, containing
	// every zombie, even though the blocks were minted on the dead
	// instance.
	getBlocklist := func(i int) []struct {
		Node int64 `json:"node"`
	} {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s/blocklist", daemons[i].HTTPAddr()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []struct {
			Node int64 `json:"node"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	waitFor("survivor blocklists to converge", func() bool {
		return reflect.DeepEqual(getBlocklist(survivors[0]), getBlocklist(survivors[1]))
	})
	blocked := map[int64]bool{}
	for _, e := range getBlocklist(survivors[0]) {
		blocked[e.Node] = true
	}
	for _, z := range res.Zombies {
		if !blocked[int64(z)] {
			t.Fatalf("zombie %d missing from survivor blocklist %v", z, blocked)
		}
	}

	// Admin satellite: a block POSTed to one survivor — for a node the
	// attack never touched — propagates to the other via gossip.
	manual := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		if v != res.Victim && !blocked[int64(v)] {
			manual = v
			break
		}
	}
	body, _ := json.Marshal(map[string]any{"node": int64(manual)})
	resp, err := http.Post(fmt.Sprintf("http://%s/blocklist", daemons[survivors[0]].HTTPAddr()),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST /blocklist: %d", resp.StatusCode)
	}
	waitFor("manual block to gossip to the other survivor", func() bool {
		return pipes[survivors[1]].Blocklist().BlockedAt(manual, time.Now().UnixNano())
	})

	// Phase 3: the killed owner returns at its old address via -join —
	// it knows nothing but one survivor and learns the roster over
	// gossip. Rejoining re-routes the attack victim back to it (same
	// member id, same pure function of the alive set), so the interim
	// owner must hand back its cumulative state before releasing it.
	interim, ok := pipes[succIdx].ExportVictim(res.Victim)
	if !ok {
		t.Fatal("interim owner has no state for the attack victim before the rejoin")
	}
	interimTotal := interim.Identified() + interim.Undecodable
	var rnode *Node
	rd, err := pipeline.Start(pipeline.ServerConfig{
		Pipeline: pipeline.Config{
			Net: topology.NewTorus2D(8), Shards: 4, QueueLen: 1 << 15,
			BlockThreshold: chaosBlockThreshold, BlockTTL: time.Hour,
			TraceBuffer: 4096, TraceSampleN: 1,
		},
		TCPAddr:  addrs[kill],
		HTTPAddr: "127.0.0.1:0",
		NewCluster: func(p *pipeline.Pipeline) (pipeline.ClusterNode, error) {
			n, err := New(p, Config{
				Self: addrs[kill], Join: addrs[survivors[0]],
				GossipInterval: 25 * time.Millisecond,
				FailAfter:      1500 * time.Millisecond,
				Logf:           t.Logf,
			})
			if err != nil {
				return nil, err
			}
			rnode = n
			return n, nil
		},
	})
	if err != nil {
		t.Fatalf("rejoin daemon: %v", err)
	}
	defer rd.Shutdown(context.Background())
	rp := rd.Pipeline()

	// Everyone converges on the three-member ring again, with the
	// rejoined instance owning the attack victim as before the kill.
	waitFor("fleet to converge on the rejoined three-member ring", func() bool {
		if rnode.ring.Load().Size() != 3 {
			return false
		}
		for _, i := range survivors {
			if nodes[i].ring.Load().Size() != 3 {
				return false
			}
		}
		return true
	})
	if got := rnode.ring.Load().Owner(res.Victim); got != owner {
		t.Fatalf("rejoined ring owner %x, want the original owner %x", got, owner)
	}

	// Handback: the interim owner detaches and ships its cumulative
	// state; the rejoined owner seeds it, tallies intact to the record.
	waitFor("handback of the attack victim to the rejoined owner", func() bool {
		snap, ok := rp.ExportVictim(res.Victim)
		return ok && snap.Identified()+snap.Undecodable == interimTotal
	})
	if _, ok := pipes[succIdx].ExportVictim(res.Victim); ok {
		t.Fatal("interim owner kept exact state after the handback")
	}
	if rnode.handbacksIn.Load() == 0 {
		t.Fatal("rejoined owner recorded no inbound handbacks")
	}
	// The owner seeds while absorbing the request, so the shipper's count
	// (taken when it reads the response back) can trail the tallies. And a
	// periodic replica seeded on arrival counts as received too, so the
	// counters alone do not prove this handoff arrived: the op id both
	// members derive for it must resolve on the shipper (detach, ship)
	// and on the rejoined owner (seed).
	byOp := pipeline.TraceFilter{Victim: pipeline.MatchAny, Source: pipeline.MatchAny, ID: handoffOp(nodes[succIdx].self, &interim)}
	waitFor("the interim owner's shipment and the handoff's op id on both members", func() bool {
		return nodes[succIdx].handbacksOut.Load() > 0 &&
			len(pipes[succIdx].Recorder().Snapshot(byOp)) >= 2 && len(rp.Recorder().Snapshot(byOp)) >= 1
	})

	// The rest of the campaign, sprayed across all three instances.
	prev3 := sumProcessed(survivors...) + rp.C.Processed.Load()
	phase3 := send([]*wire.Client{
		newClient(kill, 33), newClient(survivors[0], 34), newClient(survivors[1], 35),
	}, res.Records[cut2:])
	waitFor("phase-3 records to reach their owners", func() bool {
		return sumProcessed(survivors...)+rp.C.Processed.Load() == prev3+phase3
	})
	if rnode.forwardDropped.Load() != 0 || rnode.forwardLost.Load() != 0 {
		t.Fatalf("rejoined node shed forwards (dropped=%d lost=%d)",
			rnode.forwardDropped.Load(), rnode.forwardLost.Load())
	}

	// The rejoin invariant, the point of the whole exercise: after a
	// kill AND a rejoin, the owner's tallies equal the offline
	// identifier over every record the fleet accepted across all three
	// phases — no identification was lost at either ownership handover.
	for _, rec := range res.Records[cut2:] {
		offline.ObserveMF(rec.MF)
	}
	wantAll := offline.SourcesAbove(chaosBlockThreshold)
	gotAll := rp.SourcesAbove(res.Victim, chaosBlockThreshold)
	if !reflect.DeepEqual(gotAll, wantAll) {
		t.Fatalf("post-rejoin identification %v != offline-over-delivered %v", gotAll, wantAll)
	}
	if !reflect.DeepEqual(gotAll, res.Zombies) {
		t.Fatalf("post-rejoin identified %v, ground truth %v", gotAll, res.Zombies)
	}

	// And the rejoined instance serves the fleet's blocklist — blocks
	// minted before and during its absence included.
	waitFor("blocklist convergence at the rejoined instance", func() bool {
		return reflect.DeepEqual(rp.Blocklist().Snapshot(), pipes[survivors[0]].Blocklist().Snapshot())
	})

	// Fleet observability: one traced record's cross-node story. A fresh
	// victim owned by the rejoined instance is flooded with traced
	// records through a survivor — every record crosses a forward hop —
	// and once the flood crosses the block threshold, the blocking
	// record's timeline must be whole under one id: the survivor's
	// forwarded span and the owner's block span, wire → forward → ingest
	// → identify → detect → block, each reachable from any member.
	ring3 := rnode.ring.Load()
	v2 := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		if v != res.Victim && ring3.Owner(v) == owner {
			v2 = v
			break
		}
	}
	if v2 < 0 {
		t.Fatal("rejoined owner owns no second victim")
	}
	var mini *loadgen.Result
	for seed := uint64(100); seed < 200; seed++ {
		m, err := loadgen.Generate(loadgen.Scenario{
			Topo: core.Torus2D(8), Victim: v2, Zombies: 1, Seed: seed,
			AttackGap: 2, Warmup: 0, Attack: 600,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The zombie must not already be blocked fleet-wide, or the flood
		// dies as blocked_hit before it can cross the threshold again.
		if !rp.Blocklist().BlockedAt(m.Zombies[0], time.Now().UnixNano()) {
			mini = m
			break
		}
	}
	if mini == nil {
		t.Fatal("no unblocked zombie found for the traced flood")
	}
	tcl, err := wire.NewClient(wire.ClientConfig{
		Dial:        func() (net.Conn, error) { return net.Dial("tcp", addrs[survivors[0]]) },
		Seed:        55,
		MaxBatch:    200,
		MaxAttempts: 8,
		Sleep:       func(d time.Duration) { time.Sleep(min(d/10, 20*time.Millisecond)) },
		Trace:       true,
	})
	if err != nil {
		t.Fatalf("traced client: %v", err)
	}
	send([]*wire.Client{tcl}, mini.Records)
	waitFor("the traced flood to block its zombie at the rejoined owner", func() bool {
		return rp.Blocklist().BlockedAt(mini.Zombies[0], time.Now().UnixNano())
	})

	// The owner retained the blocking record's trace — with the exporter
	// send stamp intact across the forward hop — and observed the true
	// send-to-block detection latency.
	var blockTrace pipeline.Trace
	waitFor("the blocking record's trace at the owner", func() bool {
		ts := rp.Recorder().Snapshot(pipeline.TraceFilter{
			Victim: int64(v2), Source: pipeline.MatchAny,
			Outcome: pipeline.OutcomeBlock, HasOut: true, Limit: 1,
		})
		if len(ts) == 0 || ts[0].ID == 0 || ts[0].Sent == 0 {
			return false
		}
		blockTrace = ts[0]
		return true
	})
	var metrics bytes.Buffer
	rp.WritePrometheus(&metrics, time.Second)
	if !regexp.MustCompile(`(?m)^ddpmd_detection_latency_seconds_count [1-9]`).Match(metrics.Bytes()) {
		t.Fatalf("owner did not observe a send-to-block detection latency:\n%s", metrics.String())
	}

	// Each half sits on its own member under the one id: the ingress
	// survivor holds the forwarded span, the rejoined owner the block
	// span. A member that is neither lists both admin planes in its
	// /cluster, which is all `ddpmd fleet trace` needs to stitch them.
	idHex := fmt.Sprintf("%016x", blockTrace.ID)
	spanAt := func(adminAddr string, outcome pipeline.Outcome) (pipeline.TraceJSON, bool) {
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/traces?id=%s", adminAddr, idHex))
		if err != nil {
			return pipeline.TraceJSON{}, false
		}
		defer resp.Body.Close()
		var spans []pipeline.TraceJSON
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&spans) != nil {
			return pipeline.TraceJSON{}, false
		}
		for _, s := range spans {
			if s.Outcome == outcome.String() {
				return s, true
			}
		}
		return pipeline.TraceJSON{}, false
	}
	var fwdSpan, blockSpan pipeline.TraceJSON
	waitFor("the forwarded half at the ingress survivor", func() bool {
		var ok bool
		fwdSpan, ok = spanAt(daemons[survivors[0]].HTTPAddr().String(), pipeline.OutcomeForwarded)
		return ok
	})
	waitFor("the block half at the rejoined owner", func() bool {
		var ok bool
		blockSpan, ok = spanAt(rd.HTTPAddr().String(), pipeline.OutcomeBlock)
		return ok
	})
	if fwdSpan.StartNS > blockSpan.StartNS {
		t.Fatalf("route (%d) after ingest (%d): spans out of order", fwdSpan.StartNS, blockSpan.StartNS)
	}
	if fwdSpan.WireNS < 0 {
		t.Fatalf("forwarded span lost the wire span: %+v", fwdSpan)
	}
	for what, ns := range map[string]int64{
		"wire": blockSpan.WireNS, "forward": blockSpan.ForwardNS,
		"ingest": blockSpan.IngestNS, "identify": blockSpan.IdentifyNS,
		"detect": blockSpan.DetectNS, "block": blockSpan.BlockNS,
	} {
		if ns < 0 {
			t.Fatalf("block span missing its %s stage: %+v", what, blockSpan)
		}
	}
	if blockSpan.SentNS <= 0 {
		t.Fatalf("block span lost the exporter send stamp across the hop: %+v", blockSpan)
	}
	wantAdmin := map[string]string{
		addrs[survivors[0]]: daemons[survivors[0]].HTTPAddr().String(),
		addrs[kill]:         rd.HTTPAddr().String(),
	}
	waitFor("both halves' admin addresses in a third member's /cluster", func() bool {
		resp, err := http.Get(fmt.Sprintf("http://%s/cluster", daemons[survivors[1]].HTTPAddr()))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var st Status
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
			return false
		}
		found := 0
		for _, m := range st.Members {
			if want, ok := wantAdmin[m.Addr]; ok && m.Alive && m.AdminAddr == want {
				found++
			}
		}
		return found == len(wantAdmin)
	})
}
