package cluster

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestForwardBatchFitsOneFrame: every forwarder's client batches up to
// forwardBatch records, so that many must fit one forwarded frame of
// either lane.
func TestForwardBatchFitsOneFrame(t *testing.T) {
	for _, ftype := range []uint8{wire.TypeForwarded, wire.TypeTracedForwarded} {
		if limit := wire.MaxRecords(ftype); forwardBatch > limit {
			t.Errorf("forwardBatch %d exceeds the %d records one frame of type %d carries", forwardBatch, limit, ftype)
		}
	}
}

func TestGossipCodecRoundTrip(t *testing.T) {
	m := &gossipMsg{
		Sender:     0xABCD,
		RingVer:    7,
		SenderAddr: "10.9.0.1:7420",
		Roster:     []string{"10.9.0.2:7420", "10.9.0.3:7420"},
		Digest:     []digestEntry{{Origin: 1, MaxSeq: 9}, {Origin: 2, MaxSeq: 3}},
		Ops: []originOp{
			{Origin: 1, Op: filter.Mutation{Seq: 8, Stamp: 11, Node: 3, Until: filter.Permanent, Victim: 63}},
			{Origin: 2, Op: filter.Mutation{Seq: 3, Stamp: 12, Node: 4, Until: 99, Victim: topology.None, Unblock: true}},
		},
		Replicas: []pipeline.VictimSnapshot{{
			Victim: 63, Alarmed: true, Undecodable: 5,
			Sources: []pipeline.SourceCount{{Node: 1, Count: 100}, {Node: 9, Count: 7}},
		}, {
			Victim: 17, Expired: true, Undecodable: 1,
		}},
		Handoffs: []handoff{{pipeline.VictimSnapshot{
			Victim: 12, Undecodable: 2, Sources: []pipeline.SourceCount{{Node: 4, Count: 9}},
		}, 0xF00D}},
	}
	got, err := parseGossipMsg(appendGossipMsg(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mangled:\n got %+v\nwant %+v", got, m)
	}
	for cut := 1; cut < 20; cut++ {
		b := appendGossipMsg(nil, m)
		if _, err := parseGossipMsg(b[:len(b)-cut]); err == nil {
			t.Fatalf("truncation by %d bytes parsed", cut)
		}
	}
	if _, err := parseGossipMsg(append(appendGossipMsg(nil, m), 0)); err == nil {
		t.Fatal("trailing byte parsed")
	}
}

// TestGossipBlocklistConvergence: mutations minted anywhere — including
// on an instance that owns none of the affected traffic, the admin
// /blocklist POST case — reach every instance, relayed through
// intermediate peers.
func TestGossipBlocklistConvergence(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"}
	a, pa := newTestNode(t, addrs[0], []string{addrs[1], addrs[2]}, &now)
	b, pb := newTestNode(t, addrs[1], []string{addrs[0], addrs[2]}, &now)
	c, pc := newTestNode(t, addrs[2], []string{addrs[0], addrs[1]}, &now)

	pa.Blocklist().Block(3)
	pa.Blocklist().BlockUntil(5, 1000)
	pb.Blocklist().Block(7) // minted on a different instance

	// A↔B exchange: B pushes its op, A's response carries A's ops.
	exchange(t, a, b)
	// B↔C: C learns both A's and B's mutations purely by relay — it
	// never talks to A.
	exchange(t, b, c)

	sa, sb, sc := pa.Blocklist().Snapshot(), pb.Blocklist().Snapshot(), pc.Blocklist().Snapshot()
	if !reflect.DeepEqual(sa, sb) || !reflect.DeepEqual(sb, sc) {
		t.Fatalf("blocklists diverge:\nA %+v\nB %+v\nC %+v", sa, sb, sc)
	}
	if !pc.Blocklist().BlockedAt(3, 0) || !pc.Blocklist().BlockedAt(7, 0) || !pc.Blocklist().BlockedAt(5, 500) {
		t.Fatalf("relayed mutations missing on C: %+v", sc)
	}

	// A second exchange is a no-op: digests are equal, nothing re-sent.
	pr := b.members.Load().byID[a.self]
	req := b.buildMsg(pr, nil)
	if len(req.Ops) != 0 {
		t.Fatalf("converged peer still pushes %d ops", len(req.Ops))
	}

	// An unblock minted later on C (the POST-to-any-instance fix) wins
	// fleet-wide over the original block.
	pc.Blocklist().Unblock(3)
	exchange(t, c, b)
	exchange(t, b, a)
	if pa.Blocklist().BlockedAt(3, 0) {
		t.Fatal("unblock minted on C did not reach A")
	}
	if !reflect.DeepEqual(pa.Blocklist().Snapshot(), pc.Blocklist().Snapshot()) {
		t.Fatal("post-unblock divergence")
	}
}

// TestGossipAnswersFitAFrame: roster entries are addresses senders
// advertised, so no sender can grow a member's gossip past one frame —
// neither one whose address nearly fills a request by itself, nor three
// hundred with 250-byte addresses. After each request the answer and a
// request built for the sender both fit, the address too long to
// advertise leaves the ordinary one on the roster alone, and the crowd
// does not push it off.
func TestGossipAnswersFitAFrame(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	const self, plain = "10.9.1.1:1", "10.9.1.2:1"
	n, _ := newTestNode(t, self, nil, &now)
	ask := func(addr string) *gossipMsg {
		t.Helper()
		resp, err := n.HandleGossip(appendGossipMsg(nil, &gossipMsg{Sender: MemberID(addr), SenderAddr: addr}))
		if err != nil {
			t.Fatal(err)
		}
		req := appendGossipMsg(nil, n.buildMsg(n.members.Load().byID[MemberID(addr)], nil))
		if len(resp) > wire.MaxGossipBody || len(req) > wire.MaxGossipBody {
			t.Fatalf("after a %d-byte address: answer %d bytes, request %d, over the %d a frame carries",
				len(addr), len(resp), len(req), wire.MaxGossipBody)
		}
		m, err := parseGossipMsg(resp)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ask(plain)
	if m := ask(strings.Repeat("a", 65490)); !slices.Equal(m.Roster, []string{plain}) {
		t.Fatalf("roster %q, want the ordinary address %s alone", m.Roster, plain)
	}
	var m *gossipMsg
	for i := 0; i < 300; i++ {
		m = ask(fmt.Sprintf("%03d", i) + strings.Repeat("b", 247))
	}
	if !slices.Contains(m.Roster, plain) {
		t.Fatalf("after 300 senders with 250-byte addresses the roster (%d entries) no longer lists %s", len(m.Roster), plain)
	}
}

// TestRouteSplitsByOwnership: Route keeps owned records (processing
// them locally) and queues the rest for their owners, consuming the
// slab either way.
func TestRouteSplitsByOwnership(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.1.0.1:1", "10.1.0.2:1", "10.1.0.3:1"}
	n, p := newTestNode(t, addrs[0], []string{addrs[1], addrs[2]}, &now)

	ring := n.ring.Load()
	if ring.Size() != 3 {
		t.Fatalf("ring size %d", ring.Size())
	}
	s := p.GetSlab()
	wantLocal := 0
	const total = 256
	for i := 0; i < total; i++ {
		v := topology.NodeID(i % 64)
		s.Append(wire.Record{Victim: v, MF: uint16(i), Topo: p.TopoID()})
		if ring.Owner(v) == n.self {
			wantLocal++
		}
	}
	if wantLocal == 0 || wantLocal == total {
		t.Fatalf("degenerate split: %d/%d local", wantLocal, total)
	}
	accepted := n.Route(s)
	if accepted != total {
		t.Fatalf("Route accepted %d of %d (dropped %d)", accepted, total, n.forwardDropped.Load())
	}
	if got := n.forwardedOut.Load(); got != uint64(total-wantLocal) {
		t.Fatalf("forwarded %d records, want %d", got, total-wantLocal)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.C.Processed.Load() < uint64(wantLocal) {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d locally, want %d", p.C.Processed.Load(), wantLocal)
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.C.Processed.Load(); got != uint64(wantLocal) {
		t.Fatalf("processed %d locally, want exactly %d", got, wantLocal)
	}
}

// TestReplicaSeedOnTakeover: a stored replica for a victim owned by a
// peer is seeded into the local pipeline the moment the peer's death
// rebuilds the ring with this instance as the owner.
func TestReplicaSeedOnTakeover(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.2.0.1:1", "10.2.0.2:1"}
	n, p := newTestNode(t, addrs[0], []string{addrs[1]}, &now)

	peerID := MemberID(addrs[1])
	ring := n.ring.Load()
	victim := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) == peerID {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Fatal("peer owns nothing")
	}
	snap := pipeline.VictimSnapshot{
		Victim: victim, Alarmed: true, Undecodable: 2,
		Sources: []pipeline.SourceCount{{Node: 4, Count: 50}, {Node: 11, Count: 9}},
	}
	n.mu.Lock()
	n.storeReplicaLocked(ring, snap, 0)
	stored := len(n.replicas)
	n.mu.Unlock()
	if stored != 1 {
		t.Fatalf("replica not stored (stored=%d)", stored)
	}
	if _, ok := p.ExportVictim(victim); ok {
		t.Fatal("replica seeded while the peer still owns the victim")
	}

	// Silence past FailAfter: the peer dies, the ring rebuilds, and the
	// stored replica seeds.
	now.Store(int64(2 * time.Second))
	n.recomputeMembership()
	if got := n.ring.Load().Size(); got != 1 {
		t.Fatalf("ring still has %d members after death", got)
	}
	if got := n.ring.Load().Version(); got != 2 {
		t.Fatalf("ring version %d, want 2", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, ok := p.ExportVictim(victim)
		if ok && got.Identified() == 59 {
			if got.Undecodable != 2 || !got.Alarmed {
				t.Fatalf("seeded state mangled: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed never applied: %+v ok=%v", got, ok)
		}
		time.Sleep(time.Millisecond)
	}
	n.mu.Lock()
	left := len(n.replicas)
	n.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d replicas still stored after takeover", left)
	}
	if n.seedsApplied.Load() != 1 || n.takeovers.Load() != 1 {
		t.Fatalf("seed counters: seeds=%d takeovers=%d", n.seedsApplied.Load(), n.takeovers.Load())
	}
}

// TestTombstoneStopsResurrection: a victim retired by the owner's TTL
// sweep must not come back to life on its backup. The owner's expiry
// hook files a tombstone, client-side gossip ships it to the victim's
// ring successor, the tombstone replaces the stored replica there, and
// a takeover after the owner dies drops it instead of seeding. A later
// fresh replica replaces a tombstone and seeds normally.
func TestTombstoneStopsResurrection(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.5.0.1:1", "10.5.0.2:1"}
	a, _ := newTestNode(t, addrs[0], []string{addrs[1]}, &now)
	b, pb := newTestNode(t, addrs[1], []string{addrs[0]}, &now)

	// Pick a victim a owns; on a two-node ring b is its successor.
	ring := a.ring.Load()
	victim := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) == a.self {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Fatal("a owns nothing")
	}

	// b holds a backup replica, as if gossiped while the victim lived.
	snap := pipeline.VictimSnapshot{
		Victim: victim, Alarmed: true,
		Sources: []pipeline.SourceCount{{Node: 4, Count: 500}},
	}
	b.mu.Lock()
	b.storeReplicaLocked(b.ring.Load(), snap, 0)
	b.mu.Unlock()

	// a's TTL sweep retires the victim (the pipeline hook is wired to
	// noteRetired; call it directly to keep the test synchronous), then
	// one client-side gossip round ships the tombstone to b.
	tomb := snap
	tomb.Expired = true
	a.noteRetired(tomb)
	if got := a.outboxLen(); got != 1 {
		t.Fatalf("expiry hook filed %d outbox entries, want 1 tombstone", got)
	}
	exchange(t, b, a) // a is the client: tombstones ship client-side only
	if got := a.outboxLen(); got != 0 {
		t.Fatalf("%d outbox entries after the exchange completed", got)
	}

	b.mu.Lock()
	got, ok := b.replicas[victim]
	b.mu.Unlock()
	if !ok || !got.Expired {
		t.Fatalf("stored replica not replaced by tombstone: %+v ok=%v", got, ok)
	}
	if len(got.Sources) != 0 || got.Undecodable != 0 {
		t.Fatalf("tombstone shipped with tallies: %+v", got)
	}

	// a dies; b's takeover must drop the tombstone, not seed it.
	now.Store(int64(2 * time.Second))
	b.recomputeMembership()
	if got := b.ring.Load().Size(); got != 1 {
		t.Fatalf("ring still has %d members after death", got)
	}
	time.Sleep(10 * time.Millisecond) // let any (wrong) async seed surface
	if _, ok := pb.ExportVictim(victim); ok {
		t.Fatal("tombstoned victim resurrected on takeover")
	}
	if got := b.seedsApplied.Load(); got != 0 {
		t.Fatalf("seedsApplied = %d, want 0", got)
	}
	b.mu.Lock()
	left := len(b.replicas)
	b.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d replicas still stored after takeover", left)
	}

	// Retirement is not a curse: a fresh replica for the same victim —
	// b now owns it — seeds immediately.
	b.mu.Lock()
	b.storeReplicaLocked(b.ring.Load(), snap, 0)
	b.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, ok := pb.ExportVictim(victim)
		if ok && got.Identified() == 500 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fresh replica never seeded after retirement: %+v ok=%v", got, ok)
		}
		time.Sleep(time.Millisecond)
	}

	// Retired while alone: c expires the victim while its successor d is
	// declared dead. On a one-member ring c is its own successor, so the
	// tombstone must wait — however many rounds settle — and reach d once
	// d is back, or d keeps its stale replica for a later takeover.
	c, _ := newTestNode(t, "10.5.0.3:1", []string{"10.5.0.4:1"}, &now)
	d, _ := newTestNode(t, "10.5.0.4:1", []string{"10.5.0.3:1"}, &now)
	ring = c.ring.Load()
	victim = victimWhere(t, func(v topology.NodeID) bool { return ring.Owner(v) == c.self })
	snap.Victim = victim
	d.mu.Lock()
	d.storeReplicaLocked(d.ring.Load(), snap, 0)
	d.mu.Unlock()
	now.Add(int64(2 * time.Second))
	c.recomputeMembership()
	if got := c.ring.Load().Size(); got != 1 {
		t.Fatalf("c's ring has %d members, want c alone", got)
	}
	c.noteRetired(pipeline.VictimSnapshot{Victim: victim, Expired: true})
	c.recomputeMembership()
	c.recomputeMembership()
	if got := c.outboxLen(); got != 1 {
		t.Fatalf("tombstone filed while alone settled: outbox %d, want 1", got)
	}
	exchange(t, c, d) // d is heard again (c answers it as the server)
	c.recomputeMembership()
	if !c.ring.Load().Has(d.self) || c.ring.Load().Successor(victim) != d.self {
		t.Fatalf("c's ring %v does not make d the victim's successor", c.ring.Load().Members())
	}
	exchange(t, d, c)
	d.mu.Lock()
	got, ok = d.replicas[victim]
	d.mu.Unlock()
	if !ok || !got.Expired {
		t.Fatalf("returning successor holds %+v (ok %v), want the tombstone", got, ok)
	}
	if got := c.outboxLen(); got != 0 {
		t.Fatalf("%d outbox entries after the tombstone reached d", got)
	}
}

// TestGossipBuildRacesVictimExpiry pins the lock order the cluster
// relies on, Node.mu → shard lock and never the reverse: answering
// gossip reads the pipeline (Victims, ExportVictim) while holding
// Node.mu, and the TTL sweep's victim-expired hook files a tombstone on
// the shard worker (under Node.outMu only). A worker still inside its
// shard lock when the hook fires, or a hook that waited on Node.mu,
// would deadlock the pair. a's client-side exchanges run alongside, so
// the outbox is attached and cleared while the workers file into it.
func TestGossipBuildRacesVictimExpiry(t *testing.T) {
	var now, pipeNow atomic.Int64
	addrs := []string{"10.6.0.1:1", "10.6.0.2:1"}
	p, err := pipeline.New(pipeline.Config{
		Net: topology.NewTorus2D(8), Shards: 2, QueueLen: 1 << 12,
		VictimTTL: time.Minute, Now: pipeNow.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := build(p, Config{
		Self: addrs[0], Peers: addrs[1:], FailAfter: time.Second,
		Dial: netFor(t).dial, Now: now.Load,
	})
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	netFor(t).up(addrs[0], &fwdPeer{node: a, trace: true})
	b, _ := newTestNode(t, addrs[1], addrs[:1], &now)
	toA, toB := peerOf(t, b, a), peerOf(t, a, b)

	// Few victims, few rounds: the race is in the lock order, which one
	// sweep concurrent with one gossip answer already exercises.
	const rounds, victims = 100, 16
	swept, done := make(chan struct{}), make(chan struct{})
	go func() { // every victim materializes, idles past the TTL, is swept
		defer close(swept)
		for i := 0; i < rounds; i++ {
			// Alternate two victim sets: the in-band sweep after a
			// slab retires the set the slab before it touched.
			s := p.GetSlab()
			for v := topology.NodeID(i%2) * victims; v < topology.NodeID(i%2+1)*victims; v++ {
				s.Append(wire.Record{Victim: v, Topo: p.TopoID()})
			}
			p.SubmitSlab(s)
			for p.SlabsOutstanding() > 0 { // tallied
				runtime.Gosched()
			}
			pipeNow.Add(2 * time.Minute.Nanoseconds())
		}
	}()
	go func() { // gossip both ways under a.mu, for as long as the sweeps last
		defer close(done)
		for {
			select {
			case <-swept:
				return
			default:
			}
			if err := b.gossipWith(toA); err != nil {
				t.Errorf("b's exchange with a: %v", err)
				return
			}
			if err := a.gossipWith(toB); err != nil {
				t.Errorf("a's exchange with b: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// No Close on this path: it would wait on the stuck worker.
		t.Fatal("deadlock between gossip message building and victim expiry")
	}
	exchange(t, b, a) // whatever the last sweep filed
	a.Close()
	p.Close()
	if got := p.C.VictimsExpired.Load(); got == 0 {
		t.Fatal("no victim ever expired; the hook never ran")
	}
	for v := topology.NodeID(0); v < victims; v++ {
		if a.ring.Load().Owner(v) != a.self {
			continue
		}
		b.mu.Lock()
		tomb := b.replicas[v]
		b.mu.Unlock()
		if !tomb.Expired {
			t.Fatalf("victim %d: b holds %+v, want a's tombstone", v, tomb)
		}
	}
}

// TestReplicaShippedToSuccessor: buildMsg includes replicas only for
// victims this instance owns whose ring successor is the receiving
// peer — after feeding the pipeline some records for an owned victim.
func TestReplicaShippedToSuccessor(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.3.0.1:1", "10.3.0.2:1", "10.3.0.3:1"}
	n, p := newTestNode(t, addrs[0], []string{addrs[1], addrs[2]}, &now)

	ring := n.ring.Load()
	victim := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) == n.self {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Fatal("self owns nothing")
	}
	s := p.GetSlab()
	for i := 0; i < 10; i++ {
		s.Append(wire.Record{Victim: victim, MF: uint16(i), Topo: p.TopoID()})
	}
	p.SubmitSlab(s)
	waitTallied(t, p, victim, 10)

	succ := ring.Successor(victim)
	for _, pr := range n.members.Load().list {
		m := n.buildMsg(pr, nil)
		var found bool
		for _, rep := range m.Replicas {
			if rep.Victim == victim {
				found = true
			}
		}
		if pr.id == succ && !found {
			t.Fatalf("successor %x got no replica of victim %d", pr.id, victim)
		}
		if pr.id != succ && found {
			t.Fatalf("non-successor %x got a replica of victim %d", pr.id, victim)
		}
	}
}

// ownedBy lists the victims of the test fabric ring gives id.
func ownedBy(ring *Ring, id uint64) (vs []topology.NodeID) {
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) == id {
			vs = append(vs, v)
		}
	}
	return vs
}

// slabFor is a pooled slab of k records cycling over vs, traced or not.
func slabFor(p *pipeline.Pipeline, vs []topology.NodeID, k int, traced bool) *wire.Slab {
	s := p.GetSlab()
	for i := 0; i < k; i++ {
		rec := wire.Record{Victim: vs[i%len(vs)], MF: uint16(i), Topo: p.TopoID()}
		if traced {
			s.AppendTraced(wire.TracedRecord{Record: rec, Ctx: wire.TraceContext{ID: uint64(i + 1)}})
		} else {
			s.Append(rec)
		}
	}
	return s
}

// TestForwardSlabsReturnToPool: forward batches are pooled slabs, so
// the pipeline's outstanding-slab count covers the forward hop. Drive
// every way a batch can end — forwarded and acked, shed at a full
// queue, dropped for a nil peer, abandoned by a down session, drained
// at stop — and require every slab back in the pool once the node and
// the pipeline are closed.
func TestForwardSlabsReturnToPool(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	const live, dead = "10.6.0.2:1", "10.6.0.3:1"
	fwd := &fwdPeer{} // a pre-trace build: traced batches cross it downgraded
	netFor(t).up(live, fwd)
	n, p := newTestNode(t, "10.6.0.1:1", []string{live, dead}, &now)
	liveID, deadID := MemberID(live), MemberID(dead)
	ring := n.ring.Load()
	liveVs, deadVs := ownedBy(ring, liveID), ownedBy(ring, deadID)
	if len(liveVs) == 0 || len(deadVs) == 0 {
		t.Fatal("ring left a peer without victims")
	}
	// The live peer must receive exactly what its queue accepted, once
	// its forwarder has stepped.
	livePeer := n.members.Load().byID[liveID]
	deliver := func() {
		t.Helper()
		if err := n.forwardStep(livePeer, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := fwd.received(), livePeer.queued.Load(); got != want {
			t.Fatalf("live peer received %d of %d records", got, want)
		}
	}

	// Forwarded and acked, untraced and traced.
	n.Route(slabFor(p, liveVs, 64, false))
	deliver()
	n.Route(slabFor(p, liveVs, 64, true))
	deliver()

	// Shed at a full queue: nothing steps the dead peer's forwarder, so
	// its queue holds forwardQueue batches and the rest shed.
	for i := 0; i < forwardQueue+2; i++ {
		n.Route(slabFor(p, deadVs, 64, false))
	}
	if got := n.forwardDropped.Load(); got != 2*64 {
		t.Fatalf("%d records shed at the dead peer's full queue, want 128", got)
	}

	// Dropped for a nil peer.
	s := p.GetSlab()
	s.Append(wire.Record{Victim: deadVs[0], Topo: p.TopoID()})
	n.enqueue(nil, s)

	// Abandoned by a down session: a step toward the dead peer copies a
	// few batches into its client and releases their slabs before the
	// session is found down; the client abandons those records at close.
	deadPeer := n.members.Load().byID[deadID]
	if err := n.forwardStep(deadPeer, nil); err == nil {
		t.Fatal("a step toward the dead peer reported success")
	}

	// Drained at stop: the rest of the dead peer's queue.
	if got := len(deadPeer.queue); got == 0 || got == forwardQueue {
		t.Fatalf("dead peer's queue holds %d batches at close, want some but not all %d", got, forwardQueue)
	}
	n.Close()
	p.Close()
	if got := p.SlabsOutstanding(); got != 0 {
		t.Fatalf("%d slabs outstanding after Close", got)
	}
}

// TestForwardLedgerBalances: every record Route hands a peer ends one
// way — delivered, shed at the peer's full queue, or abandoned by its
// session — counted once on the node and once on that peer. A live
// peer, a peer whose queue sheds, and a down peer whose session
// abandons what it buffered and what stayed queued at close: at
// quiescence each peer's queued equals delivered plus lost,
// forwarded_out plus forward_dropped is every record routed to a peer,
// and forward_lost is what the down session abandoned.
func TestForwardLedgerBalances(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	const live, full, down = "10.6.2.2:1", "10.6.2.3:1", "10.6.2.4:1"
	m := netFor(t)
	liveSrv := &fwdPeer{trace: true}
	m.up(live, liveSrv)
	m.up(full, &fwdPeer{trace: true})
	n, p := newTestNode(t, "10.6.2.1:1", []string{live, full, down}, &now)
	ring := n.ring.Load()
	var routed uint64
	route := func(addr string, slabs, k int) *peer {
		t.Helper()
		vs := ownedBy(ring, MemberID(addr))
		if len(vs) == 0 {
			t.Fatalf("ring gives %s no victims", addr)
		}
		for i := 0; i < slabs; i++ {
			n.Route(slabFor(p, vs, k, i%2 == 1))
			routed += uint64(k)
		}
		return n.members.Load().byID[MemberID(addr)]
	}

	// A full queue in one step: the client ships many frames before it
	// reads an ack.
	if err := n.forwardStep(route(live, forwardQueue, 64), nil); err != nil {
		t.Fatal(err)
	}
	if got := liveSrv.received(); got != forwardQueue*64 {
		t.Fatalf("the live peer received %d records, want %d", got, forwardQueue*64)
	}
	// Nothing steps the full peer until its queue has shed two batches.
	if err := n.forwardStep(route(full, forwardQueue+2, 1), nil); err != nil {
		t.Fatal(err)
	}
	// The down peer's step buffers a few batches before it finds the
	// session down; the rest stay queued until close.
	const toDown = 20 * 64
	if err := n.forwardStep(route(down, 20, 64), nil); err == nil {
		t.Fatal("a step toward a down peer reported success")
	}
	n.Close()

	st := n.StatusJSON().(Status)
	for _, ms := range st.Members {
		if !ms.Self && ms.Queued != ms.Delivered+ms.Lost {
			t.Errorf("peer %s: queued %d != delivered %d + lost %d", ms.Addr, ms.Queued, ms.Delivered, ms.Lost)
		}
	}
	if got := st.ForwardedOut + st.ForwardDropped; got != routed {
		t.Errorf("forwarded_out %d + forward_dropped %d = %d, want the %d records routed to peers",
			st.ForwardedOut, st.ForwardDropped, got, routed)
	}
	if st.ForwardDropped != 2 {
		t.Errorf("forward_dropped = %d, want the full queue's 2", st.ForwardDropped)
	}
	if st.ForwardLost != toDown {
		t.Errorf("forward_lost = %d, want the %d records the down session abandoned", st.ForwardLost, toDown)
	}
}

// TestForwardStepStopsAtADownPeer: a step toward a peer that answers no
// dial stops taking batches once a send finds the session down, and the
// next step retries the session before it takes any — a few dials a
// step rather than three per batch across the queue — so Route sheds at
// the full queue while the peer is down.
func TestForwardStepStopsAtADownPeer(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	const dead = "10.6.1.2:1"
	m := netFor(t)
	var dials atomic.Int64
	n, p := newTestNodeWith(t, testPipelineConfig(), Config{
		Self: "10.6.1.1:1", Peers: []string{dead}, FailAfter: time.Second, Now: now.Load,
		Dial: func(addr string) (net.Conn, error) { dials.Add(1); return m.dial(addr) },
	})
	victim := victimWhere(t, func(v topology.NodeID) bool { return n.ring.Load().Owner(v) == MemberID(dead) })
	pr := n.members.Load().byID[MemberID(dead)]
	const perSlab = 64
	route := func() {
		s := p.GetSlab()
		for i := 0; i < perSlab; i++ {
			s.Append(wire.Record{Victim: victim, MF: uint16(i), Topo: p.TopoID()})
		}
		n.Route(s)
	}
	for len(pr.queue) < forwardQueue {
		route()
	}

	// The client flushes once it buffers forwardBatch records, and a
	// failed flush makes three attempts; the step stops there.
	maxTaken := forwardBatch/perSlab + 1
	const maxDials = 3
	if err := n.forwardStep(pr, nil); err == nil {
		t.Fatal("a step toward a down peer reported success")
	}
	if taken := forwardQueue - len(pr.queue); taken > maxTaken {
		t.Fatalf("the step took %d batches toward a down peer, want at most %d", taken, maxTaken)
	}
	if got := dials.Load(); got > maxDials {
		t.Fatalf("the step dialed %d times, want at most %d", got, maxDials)
	}

	queued, before := len(pr.queue), dials.Load()
	if err := n.forwardStep(pr, nil); err == nil {
		t.Fatal("a retry toward a down peer reported success")
	}
	if got := len(pr.queue); got != queued {
		t.Fatalf("a step on a down session took %d batches, want none", queued-got)
	}
	if got := dials.Load() - before; got != 3 {
		t.Fatalf("a retry dialed %d times, want the client's 3 attempts", got)
	}

	for len(pr.queue) < forwardQueue {
		route()
	}
	shed := n.forwardDropped.Load()
	route()
	if got := n.forwardDropped.Load() - shed; got != perSlab {
		t.Fatalf("Route shed %d records at the down peer's full queue, want %d", got, perSlab)
	}
}
