package cluster

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestRecomputeMembershipEqualSizeSwap is the regression test for the
// sweep comparing alive sets only by example when sizes matched: one
// member dying in the same window another joins keeps the count
// constant while changing the membership, and the ring must rebuild.
func TestRecomputeMembershipEqualSizeSwap(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.6.0.1:1", "10.6.0.2:1", "10.6.0.3:1"}
	n, _ := newTestNode(t, addrs[0], []string{addrs[1]}, &now)

	if got := n.ring.Load().Size(); got != 2 {
		t.Fatalf("initial ring size %d, want 2", got)
	}
	// A third member joins and is heard from at t=0.9s, while the
	// configured peer stays silent past FailAfter (1s): at the next
	// sweep the alive count is still 2 but the set has swapped.
	now.Store(int64(900 * time.Millisecond))
	pr := n.addPeer(addrs[2])
	if pr == nil {
		t.Fatal("addPeer rejected the joiner")
	}
	pr.lastHeard.Store(now.Load())
	now.Store(int64(1500 * time.Millisecond))
	n.recomputeMembership()

	ring := n.ring.Load()
	if ring.Version() != 2 {
		t.Fatalf("ring version %d, want 2 (equal-size membership swap must rebuild)", ring.Version())
	}
	want := []uint64{n.self, MemberID(addrs[2])}
	if want[0] > want[1] {
		want[0], want[1] = want[1], want[0]
	}
	if got := ring.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring members %v, want %v", got, want)
	}
	if got := n.joins.Load(); got != 1 {
		t.Fatalf("joins counter %d, want 1", got)
	}
}

// TestRuntimeJoinLearnsRoster: a joiner configured with nothing but a
// -join address learns the rest of the fleet from its first gossip
// exchange, and the fleet learns the joiner from its authenticated
// sender address — every node converges on the same three-member ring
// once the joiner has exchanged with each member it learned of.
func TestRuntimeJoinLearnsRoster(t *testing.T) {
	var now atomic.Int64
	now.Store(1) // nonzero so lastHeard stamps are meaningful
	addrs := []string{"10.7.0.1:1", "10.7.0.2:1", "10.7.0.3:1"}
	a, _ := newTestNode(t, addrs[0], []string{addrs[1]}, &now)

	b, _ := newTestNode(t, addrs[1], []string{addrs[0]}, &now)
	j, _ := newTestNodeWith(t, testPipelineConfig(), Config{Self: addrs[2], Join: addrs[0], FailAfter: time.Second, Now: now.Load})
	if got := len(j.members.Load().list); got != 1 {
		t.Fatalf("joiner starts knowing %d members, want 1 (the join target)", got)
	}

	// One exchange with the join target: the response roster names the
	// rest of the fleet, and the request's sender address registers the
	// joiner at the target.
	exchange(t, a, j)

	if pr := j.members.Load().byID[MemberID(addrs[1])]; pr == nil {
		t.Fatal("joiner did not learn the third member from the roster")
	}
	if pr := a.members.Load().byID[j.self]; pr == nil {
		t.Fatal("join target did not learn the joiner from its sender address")
	}
	if got := j.joins.Load(); got == 0 {
		t.Fatal("joiner's members_learned counter still zero")
	}

	// A roster names members; it does not vouch for them. The joiner's
	// ring takes the third member only once the joiner has heard from
	// it directly, and then both converge on the same three-member ring
	// at their next sweep.
	j.recomputeMembership()
	if got := j.ring.Load().Size(); got != 2 {
		t.Fatalf("joiner's ring holds %d members on the roster's word alone, want 2", got)
	}
	exchange(t, b, j)
	a.recomputeMembership()
	j.recomputeMembership()
	if got, want := a.ring.Load().Members(), j.ring.Load().Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rings diverge after join: a=%v j=%v", got, want)
	}
	if got := j.ring.Load().Size(); got != 3 {
		t.Fatalf("joined ring size %d, want 3", got)
	}

	// Determinism: the joined ring partitions victims identically on
	// both instances (same pure function of the alive set).
	for v := topology.NodeID(0); v < 64; v++ {
		if a.ring.Load().Owner(v) != j.ring.Load().Owner(v) {
			t.Fatalf("victim %d owner differs: a=%x j=%x", v, a.ring.Load().Owner(v), j.ring.Load().Owner(v))
		}
	}
}

// TestGossipRejectsForgedSender: a gossip message claiming a member id
// its advertised address does not hash to has no effect at all — the id
// check is the membership authentication. It registers neither its
// address nor its roster, refreshes nothing on the member it names,
// applies none of its ops, and is answered with no state.
func TestGossipRejectsForgedSender(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	addrs := []string{"10.8.0.1:1", "10.8.0.2:1"}
	n, p := newTestNode(t, addrs[0], []string{addrs[1]}, &now)
	p.Blocklist().Block(3) // something a member would be sent
	named := n.members.Load().byID[MemberID(addrs[1])]
	heard := named.lastHeard.Load()
	now.Add(int64(100 * time.Millisecond))

	forged := &gossipMsg{
		Sender:     MemberID(addrs[1]), // a legitimate member's id...
		SenderAddr: "10.66.6.6:1",      // ...claimed from the wrong address
		RingVer:    9,
		Roster:     []string{"10.66.6.7:1"},
		Digest:     []digestEntry{{Origin: 666, MaxSeq: 1}},
		Ops:        []originOp{{Origin: 666, Op: filter.Mutation{Seq: 1, Stamp: 1 << 40, Node: 5, Until: filter.Permanent}}},
	}
	body, err := n.HandleGossip(appendGossipMsg(nil, forged))
	if err != nil {
		t.Fatalf("HandleGossip: %v", err)
	}
	for _, addr := range []string{"10.66.6.6:1", "10.66.6.7:1"} {
		if pr := n.members.Load().byID[MemberID(addr)]; pr != nil {
			t.Fatalf("forged message registered %s as a member", addr)
		}
	}
	if got := len(n.members.Load().list); got != 1 {
		t.Fatalf("known fleet grew to %d on a forged sender", got)
	}
	if named.lastHeard.Load() != heard || named.ringVer.Load() != 0 {
		t.Fatalf("forged message refreshed the member it names: lastHeard %d -> %d, ring v%d",
			heard, named.lastHeard.Load(), named.ringVer.Load())
	}
	if p.Blocklist().BlockedAt(5, 0) {
		t.Fatal("forged op applied to the blocklist")
	}
	resp, err := parseGossipMsg(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ops) != 0 || len(resp.Replicas) != 0 {
		t.Fatalf("forged sender answered with %d ops and %d replicas", len(resp.Ops), len(resp.Replicas))
	}
}

// TestRosterDoesNotVouch: a roster names members, it does not vouch
// for them. An authenticated member whose roster names three addresses
// this node never heard from leaves the ring as it was after the
// sweep; one completed exchange with one of them adds exactly that
// one.
func TestRosterDoesNotVouch(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	addrs := []string{"10.8.1.1:1", "10.8.1.2:1"}
	unknown := []string{"10.8.1.3:1", "10.8.1.4:1", "10.8.1.5:1"}
	n, _ := newTestNode(t, addrs[0], addrs[1:], &now)
	body := appendGossipMsg(nil, &gossipMsg{Sender: MemberID(addrs[1]), SenderAddr: addrs[1], Roster: unknown})
	if _, err := n.HandleGossip(body); err != nil {
		t.Fatal(err)
	}
	for _, addr := range unknown {
		if n.members.Load().byID[MemberID(addr)] == nil {
			t.Fatalf("roster entry %s not learned", addr)
		}
	}
	before := n.ring.Load().Members()
	n.recomputeMembership()
	if got := n.ring.Load().Members(); !reflect.DeepEqual(got, before) {
		t.Fatalf("a roster alone moved the ring from %x to %x", before, got)
	}

	c, _ := newTestNode(t, unknown[0], addrs, &now)
	exchange(t, c, n)
	n.recomputeMembership()
	if got, want := n.ring.Load().Members(), sortedIDs(n.self, MemberID(addrs[1]), c.self); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring %x after one exchange with %s, want %x", got, unknown[0], want)
	}
}

// victimWhere returns the first victim of the 8×8 test fabric that
// satisfies ok, skipping the test when the member ids give none.
func victimWhere(t *testing.T, ok func(topology.NodeID) bool) topology.NodeID {
	t.Helper()
	for v := topology.NodeID(0); v < 64; v++ {
		if ok(v) {
			return v
		}
	}
	t.Skip("no victim fits under these member ids")
	return -1
}

// waitOutbox waits until n's outbox holds want entries (the detach
// callback files them from a shard worker).
func waitOutbox(t *testing.T, n *Node, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); n.outboxLen() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("outbox holds %d entries, want %d", n.outboxLen(), want)
		}
	}
}

// TestHandbackOnOwnershipLoss: when a ring change moves a victim away,
// its exact state is detached through the shard queue into the outbox
// as a handoff to the new owner. With that owner unreachable the
// handoff stays pending; once it is declared dead the ring hands the
// victim back here and the pending state is seeded again — delayed,
// never lost.
func TestHandbackOnOwnershipLoss(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.1.1:1", "10.9.1.2:1", "10.9.1.3:1"}
	n, p := newTestNode(t, addrs[0], []string{addrs[1]}, &now)
	ring := n.ring.Load()
	joined := NewRing(2, sortedIDs(n.self, MemberID(addrs[1]), MemberID(addrs[2])), n.cfg.VNodes)
	victim := victimWhere(t, func(v topology.NodeID) bool {
		return ring.Owner(v) == n.self && joined.Owner(v) == MemberID(addrs[2])
	})

	s := p.GetSlab()
	for i := 0; i < 10; i++ {
		s.Append(wire.Record{Victim: victim, MF: uint16(i), Topo: p.TopoID()})
	}
	p.SubmitSlab(s)
	waitTallied(t, p, victim, 10)
	want, ok := p.ExportVictim(victim)
	if !ok {
		t.Fatal("no exact state before the ring change")
	}

	// The joiner appears and is heard from; the sweep rebuilds the ring
	// and detaches the departing victim. The joiner's address answers
	// no dial, so no exchange can deliver it: later rounds leave it
	// pending.
	joiner := n.addPeer(addrs[2])
	if joiner == nil {
		t.Fatal("addPeer rejected the joiner")
	}
	joiner.lastHeard.Store(now.Load())
	n.recomputeMembership()
	if got := n.ring.Load().Version(); got != 2 {
		t.Fatalf("ring version %d, want 2", got)
	}
	waitOutbox(t, n, 1)
	n.recomputeMembership()
	if got := n.outboxLen(); got != 1 {
		t.Fatalf("pending handoff settled while its owner lives: outbox %d", got)
	}
	if _, ok := p.ExportVictim(victim); ok {
		t.Fatal("detached victim still has exact state")
	}
	if got := p.C.VictimsDetached.Load(); got != 1 {
		t.Fatalf("VictimsDetached = %d, want 1", got)
	}

	// The joiner goes silent past FailAfter while the original peer stays
	// heard: the ring returns to two members and the victim to us.
	now.Add(int64(2 * time.Second))
	n.members.Load().byID[MemberID(addrs[1])].lastHeard.Store(now.Load())
	n.recomputeMembership()
	if n.ring.Load().Has(MemberID(addrs[2])) || n.ring.Load().Owner(victim) != n.self {
		t.Fatalf("ring %v still gives the victim away", n.ring.Load().Members())
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got, ok := p.ExportVictim(victim)
		if ok && reflect.DeepEqual(got.Sources, want.Sources) && got.Undecodable == want.Undecodable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handoff never seeded back:\n got %+v ok=%v\nwant %+v", got, ok, want)
		}
	}
	if got := n.outboxLen(); got != 0 {
		t.Fatalf("outbox holds %d entries after the seed-back", got)
	}
	if out, failed := n.handbacksOut.Load(), n.handbackFailures.Load(); out != 0 || failed != 0 {
		t.Fatalf("sent/failed = %d/%d, want 0/0 (never shipped, never oversize)", out, failed)
	}
}

// handoffPair is a shipper and the receiver that owns victim on their
// two-member ring, with the victim's detached state filed at the
// shipper.
func handoffPair(t *testing.T, pcfg pipeline.Config) (shipper, recv *Node, precv *pipeline.Pipeline, snap pipeline.VictimSnapshot) {
	t.Helper()
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.2.1:1", "10.9.2.2:1"}
	shipper, _ = newTestNodeOn(t, pcfg, addrs[0], []string{addrs[1]}, &now)
	recv, precv = newTestNodeOn(t, pcfg, addrs[1], []string{addrs[0]}, &now)
	victim := victimWhere(t, func(v topology.NodeID) bool { return recv.ring.Load().Owner(v) == recv.self })
	snap = pipeline.VictimSnapshot{
		Victim: victim, Alarmed: true, Undecodable: 4,
		Sources: []pipeline.SourceCount{{Node: 3, Count: 120}},
	}
	shipper.noteDetached(snap, true)
	return shipper, recv, precv, snap
}

// waitSeeded waits for snap's tallies and latch at the owner.
func waitSeeded(t *testing.T, p *pipeline.Pipeline, snap pipeline.VictimSnapshot) {
	t.Helper()
	waitTallied(t, p, snap.Victim, snap.Identified()+snap.Undecodable)
	got, _ := p.ExportVictim(snap.Victim)
	if !reflect.DeepEqual(got.Sources, snap.Sources) || got.Undecodable != snap.Undecodable || !got.Alarmed {
		t.Fatalf("seeded %+v, want %+v", got, snap)
	}
}

// TestHandbackDelivery: a handoff rides the shipper's next client-side
// exchange with the owner, which seeds it under the epoch latch; the
// completed exchange clears it, and the next exchange sends nothing.
func TestHandbackDelivery(t *testing.T) {
	shipper, recv, precv, snap := handoffPair(t, testPipelineConfig())
	exchange(t, recv, shipper)
	waitSeeded(t, precv, snap)
	if out, in := shipper.handbacksOut.Load(), recv.handbacksIn.Load(); out != 1 || in != 1 {
		t.Fatalf("sent/received = %d/%d, want 1/1", out, in)
	}
	if got := recv.seedsApplied.Load(); got != 1 {
		t.Fatalf("receiver seedsApplied = %d, want 1", got)
	}
	if got := shipper.outboxLen(); got != 0 {
		t.Fatalf("outbox holds %d entries after a completed exchange", got)
	}
	pr := shipper.members.Load().byID[recv.self]
	if m := shipper.buildMsg(pr, nil); len(m.Replicas)+len(m.Handoffs) != 0 {
		t.Fatalf("second exchange still carries %d snapshots", len(m.Replicas)+len(m.Handoffs))
	}
	exchange(t, recv, shipper)
	if out, in := shipper.handbacksOut.Load(), recv.handbacksIn.Load(); out != 1 || in != 1 {
		t.Fatalf("after a second exchange sent/received = %d/%d, want 1/1", out, in)
	}
}

// TestHandoffResentAfterLostResponse: the owner absorbed the request
// but the shipper never read the response, so the entry stays and the
// next round sends it again — and the owner's latch tallies it once.
func TestHandoffResentAfterLostResponse(t *testing.T) {
	shipper, recv, precv, snap := handoffPair(t, testPipelineConfig())
	exchangeLost(t, recv, shipper)
	if got := shipper.outboxLen(); got != 1 {
		t.Fatalf("outbox holds %d entries after an incomplete exchange, want 1", got)
	}
	pr := shipper.members.Load().byID[recv.self]
	if m := shipper.buildMsg(pr, nil); len(m.Handoffs) != 1 || m.Handoffs[0].Victim != snap.Victim {
		t.Fatalf("next round carries %+v, want the pending handoff", m.Handoffs)
	}
	exchange(t, recv, shipper)
	waitSeeded(t, precv, snap)
	if got := recv.seedsApplied.Load(); got != 1 {
		t.Fatalf("receiver seeded %d times, want once", got)
	}
	if out, in := shipper.handbacksOut.Load(), recv.handbacksIn.Load(); out != 1 || in != 1 {
		t.Fatalf("sent/received = %d/%d, want 1/1", out, in)
	}
	if got := shipper.outboxLen(); got != 0 {
		t.Fatalf("outbox holds %d entries after the re-send completed", got)
	}
}

// TestHandoffAfterHandoffAdds: state that reaches a member after it
// handed a victim off — records forwarded in by a member on an older
// ring — is handed off too, and the owner adds each handoff once: a
// second handoff of the same victim in one ownership epoch seeds, a
// re-send after a lost response does not, and a victim whose handoff is
// still pending is not detached again until that one is delivered.
func TestHandoffAfterHandoffAdds(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.3.1:1", "10.9.3.2:1"}
	a, pa := newTestNode(t, addrs[0], addrs[1:], &now)
	b, pb := newTestNode(t, addrs[1], addrs[:1], &now)
	victim := victimWhere(t, func(v topology.NodeID) bool { return b.ring.Load().Owner(v) == b.self })
	forwardedIn := func(k int) {
		s := pa.GetSlab()
		for i := 0; i < k; i++ {
			s.Append(wire.Record{Victim: victim, MF: uint16(i), Topo: pa.TopoID()})
		}
		pa.SubmitSlab(s)
	}
	handOff := func() {
		t.Helper()
		a.recomputeMembership()
		waitOutbox(t, a, 1)
		if _, ok := pa.ExportVictim(victim); ok {
			t.Fatal("a still holds exact state for b's victim after its sweep")
		}
	}

	forwardedIn(10)
	waitTallied(t, pa, victim, 10)
	handOff()
	exchange(t, b, a)
	waitTallied(t, pb, victim, 10)

	forwardedIn(1)
	waitTallied(t, pa, victim, 1)
	handOff()
	exchangeLost(t, b, a)
	waitTallied(t, pb, victim, 11)

	forwardedIn(2)
	waitTallied(t, pa, victim, 2)
	a.recomputeMembership()
	if got := a.outboxLen(); got != 1 {
		t.Fatalf("outbox holds %d entries, want the one pending handoff", got)
	}
	exchange(t, b, a) // the re-send
	handOff()
	exchange(t, b, a)
	waitTallied(t, pb, victim, 13)
	if got := a.outboxLen(); got != 0 {
		t.Fatalf("outbox holds %d entries after the last exchange", got)
	}
	if got := b.seedsApplied.Load(); got != 3 {
		t.Fatalf("b seeded %d handoffs, want 3", got)
	}
}

// TestTakeoverAfterPassingAHandoffOn: a handoff that reached a member
// before its ring gave it the victim is seeded there and handed on;
// when the owner then dies, the member's takeover still seeds the
// owner's replica, and the handoff, still pending toward the dead owner,
// is seeded back — neither is refused for the handoff seeded earlier.
func TestTakeoverAfterPassingAHandoffOn(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.6.1:1", "10.9.6.2:1", "10.9.6.3:1"}
	b, pb := newTestNode(t, addrs[1], []string{addrs[0], addrs[2]}, &now)
	owner := MemberID(addrs[2])
	ring := b.ring.Load()
	victim := victimWhere(t, func(v topology.NodeID) bool {
		return ring.Owner(v) == owner && ring.Successor(v) == b.self
	})
	passed := pipeline.VictimSnapshot{Victim: victim, Sources: []pipeline.SourceCount{{Node: 3, Count: 5}}}
	replica := pipeline.VictimSnapshot{Victim: victim, Sources: []pipeline.SourceCount{{Node: 4, Count: 40}}}

	b.mu.Lock()
	seeded := b.storeReplicaLocked(ring, passed, 42)
	b.mu.Unlock()
	if !seeded {
		t.Fatal("a handoff reaching a member whose ring disagrees was not seeded there")
	}
	waitTallied(t, pb, victim, 5)
	b.recomputeMembership()
	waitOutbox(t, b, 1)
	b.mu.Lock()
	b.storeReplicaLocked(ring, replica, 0)
	b.mu.Unlock()

	now.Add(int64(2 * time.Second))
	b.members.Load().byID[MemberID(addrs[0])].lastHeard.Store(now.Load())
	b.recomputeMembership()
	if got := b.ring.Load().Owner(victim); got != b.self {
		t.Fatalf("owner %x after the owner's death, want the successor", got)
	}
	waitTallied(t, pb, victim, 45)
	if got := b.outboxLen(); got != 0 {
		t.Fatalf("outbox holds %d entries after the takeover", got)
	}
}

// TestHandoffOpIDStitchesDetachShipSeed: detach, ship and seed commit
// under one op id that both members derive, so either recorder resolves
// the whole handoff from one id.
func TestHandoffOpIDStitchesDetachShipSeed(t *testing.T) {
	pcfg := testPipelineConfig()
	pcfg.TraceBuffer = 256
	shipper, recv, precv, snap := handoffPair(t, pcfg)
	exchange(t, recv, shipper)
	waitSeeded(t, precv, snap)

	handoffs := pipeline.AllTraces()
	handoffs.Outcome, handoffs.HasOut = pipeline.OutcomeHandback, true
	events := append(shipper.p.Recorder().Snapshot(handoffs), precv.Recorder().Snapshot(handoffs)...)
	if len(events) != 3 {
		t.Fatalf("%d handoff events across both recorders, want detach + ship + seed", len(events))
	}
	op := events[0].ID
	for _, ev := range events {
		if ev.ID != op || ev.Victim != int64(snap.Victim) {
			t.Fatalf("handoff events do not share one op id: %+v", events)
		}
	}
	if op != handoffOp(shipper.self, &snap) || op&(1<<63) == 0 {
		t.Fatalf("op id %x is not the derived synthetic id", op)
	}
	byID := pipeline.TraceFilter{Victim: pipeline.MatchAny, Source: pipeline.MatchAny, ID: op}
	if len(shipper.p.Recorder().Snapshot(byID)) != 2 || len(precv.Recorder().Snapshot(byID)) != 1 {
		t.Fatal("the op id does not resolve on both members")
	}
}

// TestTombstoneAndHandoffBothDelivered: a tombstone (for the successor)
// and a handoff (for the owner) for one victim are two entries, and each
// reaches its own member.
func TestTombstoneAndHandoffBothDelivered(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.4.1:1", "10.9.4.2:1", "10.9.4.3:1"}
	a, _ := newTestNode(t, addrs[0], []string{addrs[1], addrs[2]}, &now)
	b, pb := newTestNode(t, addrs[1], []string{addrs[0], addrs[2]}, &now)
	c, _ := newTestNode(t, addrs[2], []string{addrs[0], addrs[1]}, &now)
	ring := a.ring.Load()
	victim := victimWhere(t, func(v topology.NodeID) bool {
		return ring.Owner(v) == b.self && ring.Successor(v) == c.self
	})
	snap := pipeline.VictimSnapshot{Victim: victim, Sources: []pipeline.SourceCount{{Node: 9, Count: 33}}}
	a.noteDetached(snap, true)
	a.noteRetired(pipeline.VictimSnapshot{Victim: victim, Expired: true, Sources: snap.Sources})
	if got := a.outboxLen(); got != 2 {
		t.Fatalf("outbox holds %d entries, want a tombstone and a handoff", got)
	}
	exchange(t, b, a)
	exchange(t, c, a)
	waitTallied(t, pb, victim, 33)
	c.mu.Lock()
	tomb, ok := c.replicas[victim]
	c.mu.Unlock()
	if !ok || !tomb.Expired {
		t.Fatalf("successor holds %+v (ok %v), want the tombstone", tomb, ok)
	}
	if got := a.outboxLen(); got != 0 {
		t.Fatalf("outbox holds %d entries after both exchanges", got)
	}
}

// TestHandoffOversizeFiledLocally: a victim on the paper's 16-cube that
// heard 5 000 sources has a snapshot no gossip frame can carry. The
// handoff a join owes must not panic the daemon (the parent's handback
// frame did): it is never attached, and the next round files it as a
// local stored replica, tallies intact, counted failed. Periodic
// replication skips it rather than ending its pass there.
func TestHandoffOversizeFiledLocally(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.5.1:1", "10.9.5.2:1", "10.9.5.3:1"}
	cube := topology.NewHypercube(16)
	n, p := newTestNodeOn(t, pipeline.Config{Net: cube, Shards: 2, QueueLen: 1 << 12}, addrs[0], []string{addrs[1]}, &now)
	ring := n.ring.Load()
	joiner := MemberID(addrs[2])
	joined := NewRing(2, sortedIDs(n.self, MemberID(addrs[1]), joiner), n.cfg.VNodes)
	big, small := topology.NodeID(-1), topology.NodeID(-1)
	for v := topology.NodeID(0); v < topology.NodeID(cube.NumNodes()) && small < 0; v++ {
		switch {
		case big < 0 && ring.Owner(v) == n.self && joined.Owner(v) == joiner:
			big = v
		case big >= 0 && ring.Owner(v) == n.self && joined.Owner(v) == n.self:
			small = v
		}
	}
	if small < 0 {
		t.Fatal("no victim pair under these member ids")
	}
	want := pipeline.VictimSnapshot{Victim: big, Alarmed: true}
	for src := 0; src < 5000; src++ {
		want.Sources = append(want.Sources, pipeline.SourceCount{Node: int64(src), Count: int64(src%7 + 1)})
	}
	p.SeedVictim(want)
	p.SeedVictim(pipeline.VictimSnapshot{Victim: small, Sources: []pipeline.SourceCount{{Node: 1, Count: 2}}})
	waitTallied(t, p, big, want.Identified())
	waitTallied(t, p, small, 2)

	pr1 := n.members.Load().byID[MemberID(addrs[1])]
	m := n.buildMsg(pr1, nil)
	if len(m.Replicas) != 1 || m.Replicas[0].Victim != small {
		t.Fatalf("replica pass carried %d snapshots, want only the small victim's", len(m.Replicas))
	}

	// The join detaches the victim; the detach callback files it from the
	// shard worker, before or after that round's settle, so the test runs
	// one more round either way.
	n.addPeer(addrs[2]).lastHeard.Store(now.Load())
	n.recomputeMembership()
	for deadline := time.Now().Add(5 * time.Second); n.outboxLen() == 0 && n.handbackFailures.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the join never detached the oversize victim")
		}
	}
	n.recomputeMembership()
	if _, ok := p.ExportVictim(big); ok {
		t.Fatal("the oversize victim was not detached")
	}
	if got := n.handbackFailures.Load(); got != 1 {
		t.Fatalf("handback failures = %d, want 1", got)
	}
	n.mu.Lock()
	stored, ok := n.replicas[big]
	n.mu.Unlock()
	if !ok || !reflect.DeepEqual(stored.Sources, want.Sources) || !stored.Alarmed {
		t.Fatalf("stored replica ok=%v, %d sources; want the 5 000-source snapshot", ok, len(stored.Sources))
	}
	if got := n.outboxLen(); got != 0 {
		t.Fatalf("outbox holds %d entries after settling", got)
	}

	// Pending before its round settles it, the entry is never attached.
	n.noteDetached(want, true)
	m = n.buildMsg(n.members.Load().byID[joiner], nil)
	if len(m.Replicas)+len(m.Handoffs) != 0 {
		t.Fatalf("oversize handoff attached: %d snapshots", len(m.Replicas)+len(m.Handoffs))
	}
	wire.AppendGossip(nil, appendGossipMsg(nil, m)) // fits one frame
}

// sortedIDs is a tiny helper for building expectation rings.
func sortedIDs(ids ...uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestRouteSketchGate: with the forwarding gate armed, unowned
// destinations are suppressed until they reach the guaranteed count,
// the buffered prefix replays on admission (the owner loses nothing),
// and a wide one-record-per-destination scan forwards nothing at all.
func TestRouteSketchGate(t *testing.T) {
	const admit = 8
	var now atomic.Int64
	now.Store(1)
	addrs := []string{"10.9.3.1:1", "10.9.3.2:1"}
	n, p := newTestNodeWith(t, testPipelineConfig(), Config{
		Self: addrs[0], Peers: []string{addrs[1]},
		SketchAdmit: admit, FailAfter: time.Second, Now: now.Load,
	})

	ring := n.ring.Load()
	peerID := MemberID(addrs[1])
	hot := topology.NodeID(-1)
	for v := topology.NodeID(0); v < 64; v++ {
		if ring.Owner(v) == peerID {
			hot = v
			break
		}
	}
	if hot < 0 {
		t.Fatal("peer owns nothing")
	}

	send := func(v topology.NodeID, mf uint16) {
		s := p.GetSlab()
		s.Append(wire.Record{Victim: v, MF: mf, Topo: p.TopoID()})
		n.Route(s)
	}

	// Below threshold: every record absorbed, nothing forwarded.
	for i := 0; i < admit-1; i++ {
		send(hot, uint16(i))
	}
	if out, sup := n.forwardedOut.Load(), n.forwardSuppress.Load(); out != 0 || sup != admit-1 {
		t.Fatalf("below threshold: forwarded=%d suppressed=%d, want 0/%d", out, sup, admit-1)
	}

	// The crossing record admits the victim and replays the buffered
	// prefix: the owner-bound queue sees all admit records, exactly.
	send(hot, admit-1)
	if out := n.forwardedOut.Load(); out != admit {
		t.Fatalf("admission forwarded %d records, want %d (buffered prefix must replay)", out, admit)
	}
	if got := n.gate.admittedCount(); got != 1 {
		t.Fatalf("admitted count %d, want 1", got)
	}

	// Post-admission records forward 1:1 on the fast path.
	send(hot, admit)
	if out := n.forwardedOut.Load(); out != admit+1 {
		t.Fatalf("post-admission forwarded %d, want %d", out, admit+1)
	}

	// A scan — one record per unowned destination — forwards nothing.
	base := n.forwardedOut.Load()
	scanned := 0
	for v := topology.NodeID(0); v < 64; v++ {
		if v == hot || ring.Owner(v) != peerID {
			continue
		}
		send(v, 0)
		scanned++
	}
	if scanned == 0 {
		t.Fatal("degenerate ring: peer owns only one victim")
	}
	if out := n.forwardedOut.Load(); out != base {
		t.Fatalf("scan leaked %d forwards", out-base)
	}

	// A ring change resets the gate: earned admissions do not survive a
	// re-partition they were earned under.
	now.Store(int64(2 * time.Second))
	n.recomputeMembership() // peer silent past FailAfter: ring shrinks to self
	if got := n.ring.Load().Size(); got != 1 {
		t.Fatalf("ring size %d, want 1", got)
	}
	// Single-member rings bypass the gate entirely (everything local);
	// verify directly that a fresh ring version clears admissions.
	if pass, _, _, _ := n.gate.filter(n.ring.Load().Version(), wire.Record{Victim: hot}); pass {
		t.Fatal("admission survived a ring-version change")
	}
	if got := n.gate.admittedCount(); got != 0 {
		t.Fatalf("admitted count %d after reset, want 0", got)
	}
}

// TestRouteReplayLongerThanSlab: a gate admit above the slab capacity
// replays a prefix longer than a pooled slab holds; the owner's batch
// grows past SlabCap and still carries every record.
func TestRouteReplayLongerThanSlab(t *testing.T) {
	const admit = wire.SlabCap + 100
	var now atomic.Int64
	now.Store(1)
	peerAddr := "10.9.4.2:1"
	n, p := newTestNodeWith(t, testPipelineConfig(), Config{
		Self: "10.9.4.1:1", Peers: []string{peerAddr},
		SketchAdmit: admit, FailAfter: time.Hour, Now: now.Load,
	})
	hot := victimWhere(t, func(v topology.NodeID) bool { return n.ring.Load().Owner(v) == MemberID(peerAddr) })
	routed := 0
	for sent := 0; sent < admit; {
		s := p.GetSlab()
		for ; sent < admit && s.Free() > 0; sent++ {
			s.Append(wire.Record{Victim: hot, MF: uint16(sent), Topo: p.TopoID()})
		}
		routed += n.Route(s)
	}
	if routed != admit || n.forwardedOut.Load() != admit {
		t.Fatalf("Route accepted %d, forwarded %d; want %d each", routed, n.forwardedOut.Load(), admit)
	}
}
