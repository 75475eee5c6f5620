package cluster

// The outbox: victim state this member owes another one, carried by
// the client side of the gossip exchange with that member (DESIGN
// §12.3). A tombstone — {Victim, Expired}, no tallies — is owed to the
// victim's ring successor, so its backup drops the stored replica of a
// victim the TTL sweep retired here; a handoff — a victim's detached
// exact state — is owed to its ring owner after a membership change
// moved it away. An entry is dropped only when an exchange that carried
// it completes, and only if it is still the entry that was attached;
// the receiver's absorb → storeReplicaLocked seeds a handoff under the
// once-per-epoch latch, so a re-send after a lost response counts once.
//
// The filing paths run on shard workers and take only outMu, a leaf
// under Node.mu never held across a pipeline call: Node.mu is held
// across SeedVictim, a blocking enqueue onto a shard queue, so a worker
// waiting on Node.mu could deadlock. What a worker must not decide — a
// handoff owed to this member again after the ring flapped back, or one
// too large for any gossip message — is settled on the gossip goroutine.

import (
	"fmt"
	"sort"

	"repro/internal/pipeline"
	"repro/internal/topology"
)

// outKey names one outbox entry. A tombstone and a handoff for the same
// victim go to different members, so neither overwrites the other. Each
// filing stores a fresh snapshot pointer, so a completed exchange clears
// only the entry it carried.
type outKey struct {
	victim topology.NodeID
	tomb   bool
}

// dest is the member the entry is owed to under ring.
func (k outKey) dest(ring *Ring) uint64 {
	if k.tomb {
		return ring.Successor(k.victim)
	}
	return ring.Owner(k.victim)
}

// noteRetired is the pipeline's victim-expired hook: it files a
// tombstone for a TTL-swept victim. Runs on a shard worker.
func (n *Node) noteRetired(snap pipeline.VictimSnapshot) {
	if !snap.Expired || len(n.members.Load().list) == 0 {
		return
	}
	n.outMu.Lock()
	defer n.outMu.Unlock()
	// Expiry ends this victim's ownership epoch: a future takeover (or
	// a fresh replica while we still own it) may seed it again.
	delete(n.seeded, snap.Victim)
	n.outbox[outKey{snap.Victim, true}] = &pipeline.VictimSnapshot{Victim: snap.Victim, Expired: true}
}

// noteDetached is the DetachVictim callback: it files a departing
// victim's final state as a handoff to its new owner. Runs on a shard
// worker. The latch needs no clearing here: recomputeMembership cleared
// it for every victim the new ring moved away before detaching any.
func (n *Node) noteDetached(snap pipeline.VictimSnapshot, ok bool) {
	if !ok {
		return // no state existed; nothing to hand over
	}
	n.noteHandoff(pipeline.EventVictimDetached, n.self, &snap, fmt.Sprintf("ring=v%d", n.ring.Load().Version()))
	n.outMu.Lock()
	n.outbox[outKey{snap.Victim, false}] = &snap
	n.outMu.Unlock()
}

// handoffOp is one handoff's flight-recorder id, derived from what the
// shipper and the receiver both hold — the shipper's member id, the
// victim and the snapshot's record total — so detach, ship and seed
// commit under one id with nothing extra on the wire. The top bit marks
// it synthetic, like every minted event id.
func handoffOp(shipper uint64, snap *pipeline.VictimSnapshot) uint64 {
	total := uint64(snap.Identified() + snap.Undecodable)
	return splitmix64(shipper^splitmix64(uint64(snap.Victim)^splitmix64(total))) | 1<<63
}

// noteHandoff records one step of a handoff — detach, ship or seed —
// under the op id both members derive for it.
func (n *Node) noteHandoff(typ string, shipper uint64, snap *pipeline.VictimSnapshot, detail string) {
	op := handoffOp(shipper, snap)
	n.note(pipeline.Event{
		T: n.cfg.Now(), Type: typ, Victim: int64(snap.Victim), Source: -1, Count: snap.Identified(),
		Detail: fmt.Sprintf("%s op=%x", detail, op),
	}, pipeline.OutcomeHandback, op)
}

// attachOutboxLocked adds the entries owed to pr under ring to m in
// ascending victim order and remembers them on pr for completeExchange.
// An entry the budget cannot take waits for a later round. Caller holds
// n.mu.
func (n *Node) attachOutboxLocked(pr *peer, ring *Ring, m *gossipMsg, budget *gossipBudget) {
	n.outMu.Lock()
	defer n.outMu.Unlock()
	pr.attached = pr.attached[:0]
	for k, snap := range n.outbox {
		if k.dest(ring) == pr.id {
			pr.attached = append(pr.attached, snap)
		}
	}
	// One victim's two kinds never share a destination, so victims are
	// distinct here and the order is total.
	sort.Slice(pr.attached, func(i, j int) bool { return pr.attached[i].Victim < pr.attached[j].Victim })
	k := 0
	for _, snap := range pr.attached {
		if budget.fitsReplica(snap) {
			m.Replicas = append(m.Replicas, *snap)
			pr.attached[k] = snap
			k++
		}
	}
	pr.attached = pr.attached[:k]
}

// completeExchange finishes a client-side exchange with pr once its
// response is in: absorb the response, then clear the outbox entries
// the request carried — the read-back proves pr absorbed them — unless
// a newer snapshot for the same key was filed meanwhile.
func (n *Node) completeExchange(pr *peer, resp *gossipMsg) {
	n.absorb(resp)
	pr.lastGossip.Store(n.cfg.Now())
	var shipped []*pipeline.VictimSnapshot
	n.outMu.Lock()
	for _, snap := range pr.attached {
		if k := (outKey{snap.Victim, snap.Expired}); n.outbox[k] == snap {
			delete(n.outbox, k)
			if !k.tomb {
				shipped = append(shipped, snap)
			}
		}
	}
	pr.attached = pr.attached[:0]
	n.outMu.Unlock()
	ver := n.ring.Load().Version()
	for _, snap := range shipped {
		n.handbacksOut.Add(1)
		n.noteHandoff(pipeline.EventHandbackShip, n.self, snap, fmt.Sprintf("to=%x ring=v%d", pr.id, ver))
	}
}

// settleOutbox files locally what no exchange can deliver: entries owed
// to this member itself (a handoff whose ring flapped back is seeded
// through the epoch latch; a tombstone whose victim's backup is now
// here is stored) and handoffs larger than an otherwise empty gossip
// message, which wait as a stored replica — counted failed — until
// replication or a takeover moves them. A member alone on the ring is
// its own successor, so its tombstones wait for a successor to come
// back: settled here they would only drop a local replica, and a
// returning backup would keep the retired victim's stale one. Runs on
// the gossip goroutine; never drops state.
func (n *Node) settleOutbox() {
	n.mu.Lock()
	defer n.mu.Unlock()
	ring := n.ring.Load()
	_, room := n.headLocked()
	var local []*pipeline.VictimSnapshot
	n.outMu.Lock()
	for k, snap := range n.outbox {
		switch {
		case k.dest(ring) == n.self && (!k.tomb || ring.Size() > 1):
		case room.oversize(snap): // tombstones carry no tallies: never
			n.handbackFailures.Add(1)
		default:
			continue
		}
		delete(n.outbox, k)
		local = append(local, snap)
	}
	n.outMu.Unlock()
	for _, snap := range local {
		n.storeReplicaLocked(ring, *snap)
	}
}
