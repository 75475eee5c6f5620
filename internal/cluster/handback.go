package cluster

// Victim-state handback: the inverse of takeover. When a membership
// change (a rejoin, a runtime join) moves a victim's ownership away
// from this instance, its exact state — tallies, alarm latch — must
// follow, or the invariant that the owner's identifier equals the
// offline identifier over delivered records breaks at the handover.
//
// The sequence: recomputeMembership detaches each outgoing victim
// through its shard queue (pipeline.DetachVictim — so every record
// submitted before the detach is tallied into the snapshot), the
// detach callback queues the snapshot here, and the handback loop
// ships each one to its new owner over a dedicated acked TypeHandback
// exchange. Only after the owner acks is the state released; a failed
// shipment falls back to the stored-replica path, where normal gossip
// replication and the takeover machinery deliver it eventually —
// state is delayed by a failure, never lost by one.
//
// On the receiving side HandleHandback reuses storeReplicaLocked, so
// the snapshot seeds the pipeline under the same once-per-ownership-
// epoch latch that guards gossip replicas: if the receiver's ring
// already assigns it the victim it seeds immediately, otherwise the
// snapshot waits as a stored replica for the ring to catch up.

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/pipeline"
	"repro/internal/wire"
)

const (
	// handbackVersion 2 inserts an operation id and the shipper's ring
	// version between the sequence number and the snapshot. The op id is
	// the flight-recorder event id minted by the shipper: both sides
	// commit their half of the handback under it, so the fleet trace
	// fan-out stitches ship and seed into one timeline. v1 bodies (no
	// op section) still parse, for rolling upgrades.
	handbackVersion   = 2
	handbackVersionV1 = 1
	// handbackFixedV1 is the fixed prefix of a v1 handback body:
	// version(1) + sender(8) + seq(8). v2 adds opID(8) + ringVer(8).
	handbackFixedV1 = 1 + 8 + 8
	handbackFixed   = handbackFixedV1 + 8 + 8

	handbackAttempts = 3
	handbackBackoff  = 25 * time.Millisecond
)

// handbackMsg is the body of one TypeHandback frame: who is shipping,
// a per-shipper sequence number (acked back as seq+1), the shared
// flight-recorder op id and shipper's ring version (zero on v1), and
// the victim's cumulative snapshot.
type handbackMsg struct {
	Sender  uint64
	Seq     uint64
	OpID    uint64
	RingVer uint64
	Snap    pipeline.VictimSnapshot
}

func appendHandbackMsg(b []byte, m *handbackMsg) []byte {
	b = append(b, handbackVersion)
	b = binary.BigEndian.AppendUint64(b, m.Sender)
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	b = binary.BigEndian.AppendUint64(b, m.OpID)
	b = binary.BigEndian.AppendUint64(b, m.RingVer)
	return appendSnapshot(b, &m.Snap)
}

func parseHandbackMsg(b []byte) (*handbackMsg, error) {
	if len(b) < handbackFixedV1 {
		return nil, errGossipTrunc
	}
	ver := b[0]
	if ver != handbackVersion && ver != handbackVersionV1 {
		return nil, fmt.Errorf("cluster: handback version %d, want %d or %d", ver, handbackVersionV1, handbackVersion)
	}
	m := &handbackMsg{
		Sender: binary.BigEndian.Uint64(b[1:9]),
		Seq:    binary.BigEndian.Uint64(b[9:17]),
	}
	body := b[handbackFixedV1:]
	if ver >= handbackVersion {
		if len(b) < handbackFixed {
			return nil, errGossipTrunc
		}
		m.OpID = binary.BigEndian.Uint64(b[17:25])
		m.RingVer = binary.BigEndian.Uint64(b[25:33])
		body = b[handbackFixed:]
	}
	snap, rest, err := parseSnapshot(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: handback has %d trailing bytes", len(rest))
	}
	m.Snap = snap
	return m, nil
}

// queueHandback is the DetachVictim callback: it runs on a pipeline
// shard worker, so it must not block — a full handback queue falls
// back to the stored-replica path immediately.
func (n *Node) queueHandback(snap pipeline.VictimSnapshot, ok bool) {
	if !ok {
		return // no state existed; nothing to hand over
	}
	now := n.cfg.Now()
	if fr := n.p.Recorder(); fr != nil {
		fr.CommitEventWithID(fr.MintEventID(uint64(snap.Victim)), pipeline.OutcomeHandback, now, int64(snap.Victim))
	}
	if j := n.p.Journal(); j != nil {
		j.Emit(pipeline.Event{
			T: now, Type: pipeline.EventVictimDetached,
			Victim: int64(snap.Victim), Source: -1, Count: snap.Identified(),
			Detail: fmt.Sprintf("ring=v%d", n.ring.Load().Version()),
		})
	}
	select {
	case n.handbackQ <- snap:
	default:
		n.failHandback(snap)
	}
}

// handbackLoop drains queued snapshots, shipping each to its current
// owner. On close the queue is drained into stored replicas so a
// concurrent detach cannot strand state in the channel.
func (n *Node) handbackLoop() {
	defer n.wg.Done()
	for {
		select {
		case snap := <-n.handbackQ:
			n.ship(snap)
		case <-n.stop:
			for {
				select {
				case snap := <-n.handbackQ:
					n.storeFallback(snap)
					continue
				default:
				}
				return
			}
		}
	}
}

// ship delivers one detached snapshot to the victim's current owner.
// Ownership is re-read here: if the ring moved again and the victim is
// ours after all, re-seed it locally; if the owner is unknown or
// unreachable after a few tries, fall back to the replica store.
func (n *Node) ship(snap pipeline.VictimSnapshot) {
	ring := n.ring.Load()
	owner := ring.Owner(snap.Victim)
	if owner == n.self {
		// The ring flapped back before we shipped: the state is still
		// ours. storeFallback re-seeds it through the epoch latch.
		n.storeFallback(snap)
		return
	}
	pr := n.members.Load().byID[owner]
	if pr == nil {
		n.failHandback(snap)
		return
	}
	n.handbackSeq++
	msg := handbackMsg{Sender: n.self, Seq: n.handbackSeq, RingVer: ring.Version(), Snap: snap}
	fr := n.p.Recorder()
	if fr != nil {
		// Mint the op id before shipping: the receiver commits its seed
		// under the same id, so the fleet fan-out stitches both halves.
		msg.OpID = fr.MintEventID(uint64(snap.Victim))
	}
	frame := wire.AppendHandback(nil, appendHandbackMsg(nil, &msg))
	for attempt := 0; attempt < handbackAttempts; attempt++ {
		if attempt > 0 {
			n.handbackRetries.Add(1)
			select {
			case <-time.After(handbackBackoff << (attempt - 1)):
			case <-n.stop:
				n.failHandback(snap)
				return
			}
		}
		if err := n.shipOnce(pr, frame, msg.Seq); err == nil {
			n.handbacksOut.Add(1)
			now := n.cfg.Now()
			pr.lastHeard.Store(now)
			if fr != nil {
				fr.CommitEventWithID(msg.OpID, pipeline.OutcomeHandback, now, int64(snap.Victim))
			}
			if j := n.p.Journal(); j != nil {
				j.Emit(pipeline.Event{
					T: now, Type: pipeline.EventHandbackShip,
					Victim: int64(snap.Victim), Source: -1, Count: snap.Identified(),
					Detail: fmt.Sprintf("to=%x ring=v%d op=%x", owner, msg.RingVer, msg.OpID),
				})
			}
			return
		}
	}
	n.failHandback(snap)
}

// shipOnce performs one acked handback exchange on a fresh connection
// (handbacks are rare — membership-change events — so no connection is
// kept warm for them).
func (n *Node) shipOnce(pr *peer, frame []byte, seq uint64) error {
	conn, err := n.cfg.Dial(pr.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Unix(0, n.cfg.Now()).Add(n.cfg.FailAfter))
	if _, err := conn.Write(frame); err != nil {
		return err
	}
	ftype, payload, err := wire.NewReader(conn).ReadFrame()
	if err != nil {
		return err
	}
	if ftype != wire.TypeAck {
		return fmt.Errorf("cluster: handback got frame type %d", ftype)
	}
	ack, _, err := wire.ParseAck(payload)
	if err != nil {
		return err
	}
	if ack != seq+1 {
		return fmt.Errorf("cluster: handback ack %d, want %d", ack, seq+1)
	}
	return nil
}

// failHandback counts a shipment that could not be made and stores it.
func (n *Node) failHandback(snap pipeline.VictimSnapshot) {
	n.handbackFailures.Add(1)
	n.storeFallback(snap)
}

// storeFallback files a snapshot we could not (or need not) ship
// through the replica path: seeded immediately if the ring says the
// victim is ours, stored otherwise until gossip or a takeover moves
// it. Never drops state.
func (n *Node) storeFallback(snap pipeline.VictimSnapshot) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// A victim that was just detached must be seedable again if it comes
	// back: detaching ended its local ownership epoch.
	delete(n.seeded, snap.Victim)
	n.storeReplicaLocked(n.ring.Load(), snap)
}

// HandleHandback implements pipeline.ClusterNode: absorb one inbound
// handback body (the server side, called from a daemon connection
// goroutine) and return the ack value. The snapshot lands through
// storeReplicaLocked — seeded under the once-per-epoch latch when the
// local ring agrees we own the victim, stored as a replica until it
// does otherwise.
func (n *Node) HandleHandback(body []byte) (uint64, error) {
	m, err := parseHandbackMsg(body)
	if err != nil {
		return 0, err
	}
	now := n.cfg.Now()
	if pr := n.members.Load().byID[m.Sender]; pr != nil {
		pr.lastHeard.Store(now)
	}
	n.mu.Lock()
	n.storeReplicaLocked(n.ring.Load(), m.Snap)
	n.mu.Unlock()
	n.handbacksIn.Add(1)
	// Commit the receive under the shipper's op id (v2 bodies carry
	// one), stitching ship and seed into a single fleet-wide timeline.
	if fr := n.p.Recorder(); fr != nil && m.OpID != 0 {
		fr.CommitEventWithID(m.OpID, pipeline.OutcomeHandback, now, int64(m.Snap.Victim))
	}
	if j := n.p.Journal(); j != nil {
		j.Emit(pipeline.Event{
			T: now, Type: pipeline.EventHandbackRecv,
			Victim: int64(m.Snap.Victim), Source: -1, Count: m.Snap.Identified(),
			Detail: fmt.Sprintf("from=%x ring=v%d op=%x", m.Sender, m.RingVer, m.OpID),
		})
	}
	n.cfg.Logf("cluster: handback received victim=%d from=%x", m.Snap.Victim, m.Sender)
	return m.Seq + 1, nil
}
