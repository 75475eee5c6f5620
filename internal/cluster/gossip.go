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
//	        victim(8) flags(1: bit0 alarmed, bit1 expired) undecodable(8) nSources(4),
//	        then per source: node(8) count(8)
//	senderAddr: len uint16 + bytes (the sender's advertised ingest address)
//	nRoster uint16, then per entry: len uint16 + bytes
//	senderAdmin: len uint16 + bytes (v3+ only: the sender's admin-plane
//	            HTTP address, empty until its listener is bound)
//
// Replicas with the expired flag are tombstones: a victim whose owner's
// TTL sweep retired it, shipped (without tallies) so the backup drops
// its stored replica instead of re-seeding a detector the owner
// deliberately let go. A handoff — the detached state a membership
// change owes the victim's new owner — is an ordinary entry of the same
// section (see outbox.go).
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
	Roster      []string
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
	// gossipVersion 3 appends the sender's admin-plane address after the
	// roster; a v2 message (no admin section) still parses, so a mixed
	// fleet keeps gossiping through a rolling upgrade.
	gossipVersion   = 3
	gossipVersionV2 = 2
	gossipFixedSize = 1 + 8 + 8
	digestEntrySize = 16
	opSize          = 49
	replicaFixed    = 8 + 1 + 8 + 4
	sourceSize      = 16
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
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Replicas)))
	for i := range m.Replicas {
		b = appendSnapshot(b, &m.Replicas[i])
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

// appendSnapshot encodes one victim snapshot: a replica, a tombstone or
// a handoff.
func appendSnapshot(b []byte, r *pipeline.VictimSnapshot) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(int64(r.Victim)))
	var fl byte
	if r.Alarmed {
		fl = 1
	}
	if r.Expired {
		fl |= 2
	}
	b = append(b, fl)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Undecodable))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Sources)))
	for _, sc := range r.Sources {
		b = binary.BigEndian.AppendUint64(b, uint64(sc.Node))
		b = binary.BigEndian.AppendUint64(b, uint64(sc.Count))
	}
	return b
}

// parseSnapshot decodes one victim snapshot off the front of p and
// returns the remainder. Nothing aliases p.
func parseSnapshot(p []byte) (pipeline.VictimSnapshot, []byte, error) {
	if len(p) < replicaFixed {
		return pipeline.VictimSnapshot{}, nil, errGossipTrunc
	}
	snap := pipeline.VictimSnapshot{
		Victim:      topology.NodeID(int64(binary.BigEndian.Uint64(p[0:8]))),
		Alarmed:     p[8]&1 != 0,
		Expired:     p[8]&2 != 0,
		Undecodable: int64(binary.BigEndian.Uint64(p[9:17])),
	}
	ns := int(binary.BigEndian.Uint32(p[17:21]))
	p = p[replicaFixed:]
	for j := 0; j < ns; j++ {
		if len(p) < sourceSize {
			return pipeline.VictimSnapshot{}, nil, errGossipTrunc
		}
		snap.Sources = append(snap.Sources, pipeline.SourceCount{
			Node:  int64(binary.BigEndian.Uint64(p[0:8])),
			Count: int64(binary.BigEndian.Uint64(p[8:16])),
		})
		p = p[sourceSize:]
	}
	return snap, p, nil
}

// parseGossipMsg decodes a message body. Nothing aliases b.
func parseGossipMsg(b []byte) (*gossipMsg, error) {
	if len(b) < gossipFixedSize+6 {
		return nil, errGossipTrunc
	}
	ver := b[0]
	if ver != gossipVersion && ver != gossipVersionV2 {
		return nil, fmt.Errorf("cluster: gossip version %d (want %d or %d)", ver, gossipVersionV2, gossipVersion)
	}
	m := &gossipMsg{
		Sender:  binary.BigEndian.Uint64(b[1:9]),
		RingVer: binary.BigEndian.Uint64(b[9:17]),
	}
	p := b[17:]
	take := func(n int) ([]byte, error) {
		if len(p) < n {
			return nil, errGossipTrunc
		}
		out := p[:n]
		p = p[n:]
		return out, nil
	}
	hdr, err := take(2)
	if err != nil {
		return nil, err
	}
	nd := int(binary.BigEndian.Uint16(hdr))
	for i := 0; i < nd; i++ {
		e, err := take(digestEntrySize)
		if err != nil {
			return nil, err
		}
		m.Digest = append(m.Digest, digestEntry{
			Origin: binary.BigEndian.Uint64(e[0:8]),
			MaxSeq: binary.BigEndian.Uint64(e[8:16]),
		})
	}
	if hdr, err = take(2); err != nil {
		return nil, err
	}
	no := int(binary.BigEndian.Uint16(hdr))
	for i := 0; i < no; i++ {
		e, err := take(opSize)
		if err != nil {
			return nil, err
		}
		m.Ops = append(m.Ops, originOp{
			Origin: binary.BigEndian.Uint64(e[0:8]),
			Op: filter.Mutation{
				Seq:     binary.BigEndian.Uint64(e[8:16]),
				Stamp:   binary.BigEndian.Uint64(e[16:24]),
				Node:    topology.NodeID(int64(binary.BigEndian.Uint64(e[24:32]))),
				Until:   int64(binary.BigEndian.Uint64(e[32:40])),
				Victim:  topology.NodeID(int64(binary.BigEndian.Uint64(e[40:48]))),
				Unblock: e[48]&1 != 0,
			},
		})
	}
	if hdr, err = take(2); err != nil {
		return nil, err
	}
	nr := int(binary.BigEndian.Uint16(hdr))
	for i := 0; i < nr; i++ {
		snap, rest, err := parseSnapshot(p)
		if err != nil {
			return nil, err
		}
		p = rest
		m.Replicas = append(m.Replicas, snap)
	}
	takeStr := func() (string, error) {
		h, err := take(2)
		if err != nil {
			return "", err
		}
		s, err := take(int(binary.BigEndian.Uint16(h)))
		if err != nil {
			return "", err
		}
		return string(s), nil
	}
	if m.SenderAddr, err = takeStr(); err != nil {
		return nil, err
	}
	if hdr, err = take(2); err != nil {
		return nil, err
	}
	nm := int(binary.BigEndian.Uint16(hdr))
	for i := 0; i < nm; i++ {
		addr, err := takeStr()
		if err != nil {
			return nil, err
		}
		m.Roster = append(m.Roster, addr)
	}
	if ver >= gossipVersion {
		if m.SenderAdmin, err = takeStr(); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing gossip bytes", len(p))
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

func (g *gossipBudget) fitsReplica(snap *pipeline.VictimSnapshot) bool {
	n := replicaFixed + len(snap.Sources)*sourceSize
	if g.left < n {
		return false
	}
	g.left -= n
	return true
}

// oversize reports whether snap is too large for any message: a
// snapshot past one frame is a known limit (no chunking yet).
func (g *gossipBudget) oversize(snap *pipeline.VictimSnapshot) bool {
	empty := gossipBudget{left: g.room}
	return !empty.fitsReplica(snap)
}
