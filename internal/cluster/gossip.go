package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Gossip message: the body carried inside a wire TypeGossip frame.
// Requests and responses share the layout — anti-entropy is symmetric,
// each side tells the other how far it holds the other's blocklist rows
// and how far this message brings the other through its own (digest),
// pushes the rows the other lacks (ops), and ships victim-state
// replicas for victims the receiver backs up.
//
// Layout (big-endian):
//
//	[0]    version  uint8   = gossipVersion
//	[1:9)  sender   uint64  member id of the sending instance
//	[9:17) ringVer  uint64  sender's local ring version (observability)
//	nDigest uint16 (≤ 2), then per entry: origin(8) maxSeq(8)
//	nOps    uint16, then per op:    origin(8) seq(8) stamp(8) node(8) until(8) victim(8) flags(1)
//	        (seq is the sender's row version; origin minted the write)
//	nReps   uint16, then per replica:
//	        victim(8) flags(1: bit0 alarmed, bit1 expired, bit2 handoff)
//	        undecodable(8) nSources(4), then per source: node(8) count(8),
//	        then, with the handoff flag (v4+ only), the handoff's id(8)
//	senderAddr: len uint16 + bytes (the sender's advertised ingest address)
//	nRoster uint16, then per entry: len uint16 + bytes
//	senderAdmin: len uint16 + bytes (v3+ only: the sender's admin-plane
//	            HTTP address, empty until its listener is bound)
//
// Replicas with the expired flag are tombstones: a victim whose owner's
// TTL sweep retired it, shipped (without tallies) so the backup drops
// its stored replica instead of re-seeding a detector the owner
// deliberately let go. A handoff — exact state detached here and owed
// to the victim's ring owner — is an entry of the same section with the
// handoff flag and the id its shipper minted for it, so the receiver
// seeds each handoff once however often a lost response makes the
// shipper re-send it (see outbox.go). Handoffs are encoded after the
// replicas and decoded into Handoffs.
//
// SenderAddr and Roster are what make runtime join work: a joiner that
// knows one live member learns every other alive member's address from
// the roster, and the member learns the joiner from SenderAddr. Member
// ids are the FNV hash of the address, so a receiver authenticates a
// previously unknown sender by checking MemberID(SenderAddr) == Sender
// before admitting it to the roster.
type gossipMsg struct {
	Sender      uint64
	RingVer     uint64
	SenderAddr  string
	SenderAdmin string // admin-plane HTTP address; "" on v2 messages
	Digest      []digestEntry
	Ops         []originOp
	Replicas    []pipeline.VictimSnapshot
	Handoffs    []handoff
	Roster      []string
}

// handoff is one victim's detached exact state and the id its shipper
// minted for it: unique per handoff, never 0.
type handoff struct {
	pipeline.VictimSnapshot
	ID uint64
}

// digestEntry names one member incarnation and a version of its
// blocklist rows: the sender's own, through which this message brings
// the receiver, or the receiver's, through which the sender holds them.
type digestEntry struct {
	Origin uint64
	MaxSeq uint64
}

// originOp is one blocklist row tagged with the instance that minted
// its write.
type originOp struct {
	Origin uint64
	Op     filter.Mutation
}

const (
	// gossipVersion 3 appended the sender's admin-plane address after the
	// roster, and 4 the handoff ids; v2 and v3 messages (no admin
	// section, no handoffs) still parse, so a mixed fleet keeps
	// gossiping through a rolling upgrade.
	gossipVersion   = 4
	gossipVersionV3 = 3
	gossipVersionV2 = 2
	gossipFixedSize = 1 + 8 + 8
	digestEntrySize = 16
	opSize          = 49
	replicaFixed    = 8 + 1 + 8 + 4
	sourceSize      = 16
	handoffIDSize   = 8
	flagHandoff     = 4
)

var errGossipTrunc = errors.New("cluster: truncated gossip message")

// appendGossipMsg encodes m. The caller budgets ops and replicas so
// the body fits one wire frame (see gossipBudget).
func appendGossipMsg(b []byte, m *gossipMsg) []byte {
	b = append(b, gossipVersion)
	b = binary.BigEndian.AppendUint64(b, m.Sender)
	b = binary.BigEndian.AppendUint64(b, m.RingVer)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Digest)))
	for _, d := range m.Digest {
		b = binary.BigEndian.AppendUint64(b, d.Origin)
		b = binary.BigEndian.AppendUint64(b, d.MaxSeq)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Ops)))
	for _, o := range m.Ops {
		b = binary.BigEndian.AppendUint64(b, o.Origin)
		b = binary.BigEndian.AppendUint64(b, o.Op.Seq)
		b = binary.BigEndian.AppendUint64(b, o.Op.Stamp)
		b = binary.BigEndian.AppendUint64(b, uint64(int64(o.Op.Node)))
		b = binary.BigEndian.AppendUint64(b, uint64(o.Op.Until))
		b = binary.BigEndian.AppendUint64(b, uint64(int64(o.Op.Victim)))
		var flags byte
		if o.Op.Unblock {
			flags = 1
		}
		b = append(b, flags)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Replicas)+len(m.Handoffs)))
	for i := range m.Replicas {
		b = appendSnapshot(b, &m.Replicas[i], 0)
	}
	for i := range m.Handoffs {
		b = appendSnapshot(b, &m.Handoffs[i].VictimSnapshot, m.Handoffs[i].ID)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.SenderAddr)))
	b = append(b, m.SenderAddr...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Roster)))
	for _, addr := range m.Roster {
		b = binary.BigEndian.AppendUint16(b, uint16(len(addr)))
		b = append(b, addr...)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.SenderAdmin)))
	b = append(b, m.SenderAdmin...)
	return b
}

// appendSnapshot encodes one victim snapshot: a replica or a tombstone,
// or with a non-zero id a handoff.
func appendSnapshot(b []byte, r *pipeline.VictimSnapshot, id uint64) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(int64(r.Victim)))
	var fl byte
	if r.Alarmed {
		fl = 1
	}
	if r.Expired {
		fl |= 2
	}
	if id != 0 {
		fl |= flagHandoff
	}
	b = append(b, fl)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Undecodable))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Sources)))
	for _, sc := range r.Sources {
		b = binary.BigEndian.AppendUint64(b, uint64(sc.Node))
		b = binary.BigEndian.AppendUint64(b, uint64(sc.Count))
	}
	if id != 0 {
		b = binary.BigEndian.AppendUint64(b, id)
	}
	return b
}

// gossipReader reads a gossip body front to back. The first read past
// the end sets err to errGossipTrunc, and every read after a failure
// returns zero, so a parser reads field after field and checks err once.
type gossipReader struct {
	p   []byte
	err error
}

func (r *gossipReader) take(n int) []byte {
	if r.err == nil && len(r.p) < n {
		r.err = errGossipTrunc
	}
	if r.err != nil {
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

// uint reads an n-byte big-endian unsigned integer, n ≤ 8.
func (r *gossipReader) uint(n int) uint64 {
	var v uint64
	for _, c := range r.take(n) {
		v = v<<8 | uint64(c)
	}
	return v
}

// str reads a uint16 length and that many bytes, copied.
func (r *gossipReader) str() string { return string(r.take(int(r.uint(2)))) }

// parseGossipMsg decodes a message body in the order appendGossipMsg
// writes it. Every section loop stops at the first failed read, and
// nothing is sized from a count off the wire: a slice grows only by
// entries the body holds. Nothing aliases b.
func parseGossipMsg(b []byte) (*gossipMsg, error) {
	r := &gossipReader{p: b}
	ver := byte(r.uint(1))
	if ver < gossipVersionV2 || ver > gossipVersion {
		return nil, fmt.Errorf("cluster: gossip version %d (want %d to %d)", ver, gossipVersionV2, gossipVersion)
	}
	m := &gossipMsg{Sender: r.uint(8), RingVer: r.uint(8)}
	for i := r.uint(2); i > 0 && r.err == nil; i-- {
		m.Digest = append(m.Digest, digestEntry{Origin: r.uint(8), MaxSeq: r.uint(8)})
	}
	for i := r.uint(2); i > 0 && r.err == nil; i-- {
		m.Ops = append(m.Ops, originOp{Origin: r.uint(8), Op: filter.Mutation{
			Seq: r.uint(8), Stamp: r.uint(8), Node: topology.NodeID(int64(r.uint(8))),
			Until: int64(r.uint(8)), Victim: topology.NodeID(int64(r.uint(8))), Unblock: r.uint(1)&1 != 0,
		}})
	}
	for i := r.uint(2); i > 0 && r.err == nil; i-- {
		victim, fl := topology.NodeID(int64(r.uint(8))), r.uint(1)
		snap := pipeline.VictimSnapshot{Victim: victim, Alarmed: fl&1 != 0, Expired: fl&2 != 0, Undecodable: int64(r.uint(8))}
		for j := r.uint(4); j > 0 && r.err == nil; j-- {
			snap.Sources = append(snap.Sources, pipeline.SourceCount{Node: int64(r.uint(8)), Count: int64(r.uint(8))})
		}
		// Only v4+ carries handoff ids; an older sender's bit 2 means nothing.
		if ver < gossipVersion || fl&flagHandoff == 0 {
			m.Replicas = append(m.Replicas, snap)
			continue
		}
		h := handoff{snap, r.uint(8)}
		if h.ID == 0 && r.err == nil {
			r.err = errors.New("cluster: gossip handoff without an id")
		}
		m.Handoffs = append(m.Handoffs, h)
	}
	m.SenderAddr = r.str()
	for i := r.uint(2); i > 0 && r.err == nil; i-- {
		m.Roster = append(m.Roster, r.str())
	}
	if ver >= gossipVersionV3 {
		m.SenderAdmin = r.str()
	}
	if r.err == nil && len(r.p) != 0 {
		r.err = fmt.Errorf("cluster: %d trailing gossip bytes", len(r.p))
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// gossipBudget tracks how many encoded bytes a message may still grow
// by before it would no longer fit a wire frame (left), and how many an
// otherwise empty message has (room). addrBytes is the pre-computed
// size of the sender-addr and roster sections, which are mandatory and
// therefore reserved up front.
type gossipBudget struct{ left, room int }

func newGossipBudget(digestEntries, addrBytes int) gossipBudget {
	room := wire.MaxGossipBody - gossipFixedSize - 6 - digestEntries*digestEntrySize - addrBytes
	return gossipBudget{left: room, room: room}
}

// rosterBytes is the encoded size of the sender-addr, roster and
// sender-admin sections of a message.
func rosterBytes(senderAddr, senderAdmin string, roster []string) int {
	n := 2 + len(senderAddr) + 2 + 2 + len(senderAdmin)
	for _, a := range roster {
		n += 2 + len(a)
	}
	return n
}

func (g *gossipBudget) fitsOp() bool {
	if g.left < opSize {
		return false
	}
	g.left -= opSize
	return true
}

// fitsReplica takes one snapshot's room from the budget if it fits; a
// non-zero id makes it a handoff, which carries the id too.
func (g *gossipBudget) fitsReplica(snap *pipeline.VictimSnapshot, id uint64) bool {
	n := replicaFixed + len(snap.Sources)*sourceSize
	if id != 0 {
		n += handoffIDSize
	}
	if g.left < n {
		return false
	}
	g.left -= n
	return true
}

// oversize reports whether snap is too large for any message: a
// snapshot past one frame is a known limit (no chunking yet).
func (g *gossipBudget) oversize(snap *pipeline.VictimSnapshot, id uint64) bool {
	empty := gossipBudget{left: g.room}
	return !empty.fitsReplica(snap, id)
}
