package cluster

// The outbox: victim state this member owes another one, carried by
// the client side of the gossip exchange with that member (DESIGN
// §12.3). A tombstone — {Victim, Expired}, no tallies — is owed to the
// victim's ring successor, so its backup drops the stored replica of a
// victim the TTL sweep retired here; a handoff — a victim's detached
// exact state — is owed to its ring owner after a membership change
// moved it away, or after state reached this member when the victim
// was no longer its own. An entry is dropped only when an exchange that
// carried it completes, and only if it is still the entry that was
// attached. Each handoff carries an id minted at detach, and the
// receiver's absorb → storeReplicaLocked seeds each id once per
// ownership epoch: a re-send after a lost response counts once, and
// the next handoff of the same victim counts too. A victim is not
// detached again while its handoff is pending (claimHandoff), so one
// handoff never overwrites another.
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
// filing stores a fresh pointer, so a completed exchange clears only the
// entry it carried.
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
	n.outbox[outKey{snap.Victim, true}] = &handoff{VictimSnapshot: pipeline.VictimSnapshot{Victim: snap.Victim, Expired: true}}
}

// detaching holds a victim's handoff slot from claimHandoff until its
// detach lands; no exchange or settle ever sees it.
var detaching = new(handoff)

// claimHandoff reserves v's handoff slot for one detach, unless a
// handoff of v is pending or being detached: that one is delivered
// first, and state that reached v since waits for a later sweep.
func (n *Node) claimHandoff(v topology.NodeID) bool {
	n.outMu.Lock()
	defer n.outMu.Unlock()
	k := outKey{v, false}
	if n.outbox[k] != nil {
		return false
	}
	n.outbox[k] = detaching
	return true
}

// noteDetached is the DetachVictim callback: it files a victim's
// detached state as a handoff to its owner, under a fresh id, in the
// slot claimHandoff reserved. Runs on a shard worker. The latch needs
// no clearing here: installRing cleared it for every victim the ring
// moved away.
func (n *Node) noteDetached(snap pipeline.VictimSnapshot, ok bool) {
	k := outKey{snap.Victim, false}
	if !ok { // no state existed; nothing to hand over
		n.outMu.Lock()
		delete(n.outbox, k)
		n.outMu.Unlock()
		return
	}
	h := &handoff{snap, splitmix64(n.incarnation^n.handoffSeq.Add(1)) | 1}
	n.noteHandoff(pipeline.EventVictimDetached, n.self, &snap, fmt.Sprintf("ring=v%d", n.ring.Load().Version()))
	n.outMu.Lock()
	n.outbox[k] = h
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
	for k, h := range n.outbox {
		if h != detaching && k.dest(ring) == pr.id {
			pr.attached = append(pr.attached, h)
		}
	}
	// One victim's two kinds never share a destination, so victims are
	// distinct here and the order is total.
	sort.Slice(pr.attached, func(i, j int) bool { return pr.attached[i].Victim < pr.attached[j].Victim })
	k := 0
	for _, h := range pr.attached {
		switch {
		case !budget.fitsReplica(&h.VictimSnapshot, h.ID):
			continue
		case h.ID == 0: // a tombstone
			m.Replicas = append(m.Replicas, h.VictimSnapshot)
		default:
			m.Handoffs = append(m.Handoffs, *h)
		}
		pr.attached[k] = h
		k++
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
	var shipped []*handoff
	n.outMu.Lock()
	for _, h := range pr.attached {
		if k := (outKey{h.Victim, h.Expired}); n.outbox[k] == h {
			delete(n.outbox, k)
			if !k.tomb {
				shipped = append(shipped, h)
			}
		}
	}
	pr.attached = pr.attached[:0]
	n.outMu.Unlock()
	ver := n.ring.Load().Version()
	for _, h := range shipped {
		n.handbacksOut.Add(1)
		n.noteHandoff(pipeline.EventHandbackShip, n.self, &h.VictimSnapshot, fmt.Sprintf("to=%x ring=v%d", pr.id, ver))
	}
}

// settleOutbox files locally what no exchange can deliver: entries owed
// to this member itself (a handoff whose ring flapped back is seeded
// under its id; a tombstone whose victim's backup is now here is
// stored) and handoffs larger than an otherwise empty gossip
// message, which wait as a stored replica — counted failed — until
// replication or a takeover moves them. That message is judged without
// the admin address, which is no part of membership: an admin address
// long enough to crowd out a handoff delays it rather than turning
// exact state into a replica. A member alone on the ring is
// its own successor, so its tombstones wait for a successor to come
// back: settled here they would only drop a local replica, and a
// returning backup would keep the retired victim's stale one. Runs on
// the gossip goroutine; never drops state.
func (n *Node) settleOutbox() {
	n.mu.Lock()
	defer n.mu.Unlock()
	ring := n.ring.Load()
	head, _ := n.headLocked()
	room := newGossipBudget(maxDigest, rosterBytes(head.SenderAddr, "", head.Roster))
	var local []*handoff
	n.outMu.Lock()
	for k, h := range n.outbox {
		switch {
		case h == detaching:
			continue
		case k.dest(ring) == n.self && (!k.tomb || ring.Size() > 1):
		case room.oversize(&h.VictimSnapshot, h.ID): // tombstones carry no tallies: never
			n.handbackFailures.Add(1)
		default:
			continue
		}
		delete(n.outbox, k)
		local = append(local, h)
	}
	n.outMu.Unlock()
	for _, h := range local {
		id := h.ID
		if ring.Owner(h.Victim) != n.self {
			id = 0 // oversize: it waits as a stored replica
		}
		n.storeReplicaLocked(ring, h.VictimSnapshot, id)
	}
}
