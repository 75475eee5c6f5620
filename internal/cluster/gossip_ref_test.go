package cluster

// The gossip decoder as it stood before it read through gossipReader,
// kept verbatim as the reference FuzzGossipMsg holds parseGossipMsg to:
// every body decodes to deep-equal messages under both, or fails under
// both.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/topology"
)

// refParseSnapshot decodes one victim snapshot off the front of p and
// returns it, its handoff id (0 for a replica or a tombstone; only ver
// 4+ carries one) and the remainder. Nothing aliases p.
func refParseSnapshot(p []byte, ver byte) (pipeline.VictimSnapshot, uint64, []byte, error) {
	if len(p) < replicaFixed {
		return pipeline.VictimSnapshot{}, 0, nil, errGossipTrunc
	}
	isHandoff := ver >= gossipVersion && p[8]&flagHandoff != 0
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
			return pipeline.VictimSnapshot{}, 0, nil, errGossipTrunc
		}
		snap.Sources = append(snap.Sources, pipeline.SourceCount{
			Node:  int64(binary.BigEndian.Uint64(p[0:8])),
			Count: int64(binary.BigEndian.Uint64(p[8:16])),
		})
		p = p[sourceSize:]
	}
	var id uint64
	if isHandoff {
		if len(p) < handoffIDSize {
			return pipeline.VictimSnapshot{}, 0, nil, errGossipTrunc
		}
		if id = binary.BigEndian.Uint64(p); id == 0 {
			return pipeline.VictimSnapshot{}, 0, nil, errors.New("cluster: gossip handoff without an id")
		}
		p = p[handoffIDSize:]
	}
	return snap, id, p, nil
}

// refParseGossipMsg decodes a message body. Nothing aliases b.
func refParseGossipMsg(b []byte) (*gossipMsg, error) {
	if len(b) < gossipFixedSize+6 {
		return nil, errGossipTrunc
	}
	ver := b[0]
	if ver < gossipVersionV2 || ver > gossipVersion {
		return nil, fmt.Errorf("cluster: gossip version %d (want %d to %d)", ver, gossipVersionV2, gossipVersion)
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
		snap, id, rest, err := refParseSnapshot(p, ver)
		if err != nil {
			return nil, err
		}
		p = rest
		if id != 0 {
			m.Handoffs = append(m.Handoffs, handoff{snap, id})
		} else {
			m.Replicas = append(m.Replicas, snap)
		}
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
	if ver >= gossipVersionV3 {
		if m.SenderAdmin, err = takeStr(); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing gossip bytes", len(p))
	}
	return m, nil
}
