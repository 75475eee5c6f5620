package cluster

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The snapshot codec carries tallies between members — replicas,
// tombstones and handoffs all ride gossip — so its decoder faces the
// network. The target holds one line: a body decodes under
// parseGossipMsg exactly as under the reference parser it replaced
// (gossip_ref_test.go) — deep-equal messages, or a rejection from both —
// and either fails to parse or yields a message that owns its memory,
// survives encode → parse unchanged, and whose every victim snapshot —
// duplicate sources, nodes outside the fabric or negative, counts up to
// 2⁶³ — can be seeded into a pipeline, which keeps exactly the in-fabric
// sources with a positive count, in ascending order. testdata/fuzz
// holds, besides the encoders' ordinary v2 and v3 output, the bodies
// where the two parsers' version rules and end checks could part: a v3
// replica with the handoff bit set (no id follows), a v4 handoff whose
// id is zero and one trailing byte; and a request whose sender address
// nearly fills a frame.

// hostileSnapshot is a replica no honest member would send, for the
// in-code seeds; testdata/fuzz holds the encoders' ordinary output.
var hostileSnapshot = pipeline.VictimSnapshot{
	Victim: 5, Alarmed: true, Undecodable: -3,
	Sources: []pipeline.SourceCount{
		{Node: 9, Count: 1 << 62}, {Node: 9, Count: 1 << 62}, {Node: 2, Count: 7},
		{Node: -1, Count: 5}, {Node: 16, Count: 5}, {Node: 1 << 40, Count: 1}, {Node: 3, Count: -8}, {Node: 4},
	},
}

// checkOwnsInput scribbles over the parsed body and requires the
// message to encode to the same bytes as before, then to parse back to
// itself.
func checkOwnsInput(t *testing.T, in []byte, m *gossipMsg) {
	t.Helper()
	before := appendGossipMsg(nil, m)
	for i := range in {
		in[i] = ^in[i]
	}
	if !bytes.Equal(before, appendGossipMsg(nil, m)) {
		t.Fatal("parsed message aliases its input")
	}
	again, err := parseGossipMsg(before)
	if err != nil || !reflect.DeepEqual(m, again) {
		t.Fatalf("parse(append(m)) = %+v, %v; want %+v", again, err, m)
	}
}

// checkSeedable feeds snapshots off the wire to a 4×4-torus pipeline
// and compares what it then exports with a plain per-node sum.
func checkSeedable(t *testing.T, snaps ...pipeline.VictimSnapshot) {
	t.Helper()
	net := topology.NewTorus2D(4)
	p, err := pipeline.New(pipeline.Config{Net: net, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[topology.NodeID][]int64{}
	for _, snap := range snaps {
		inFabric := snap.Victim >= 0 && int(snap.Victim) < net.NumNodes()
		if p.SeedVictim(snap) != inFabric {
			t.Fatalf("SeedVictim(victim %d) = %v", snap.Victim, !inFabric)
		}
		if !inFabric {
			continue
		}
		sum := want[snap.Victim]
		if sum == nil {
			sum = make([]int64, net.NumNodes())
			want[snap.Victim] = sum
		}
		for _, sc := range snap.Sources {
			if sc.Count > 0 && sc.Node >= 0 && sc.Node < int64(len(sum)) {
				sum[sc.Node] += sc.Count
			}
		}
	}
	p.Close() // drains the seeds
	for v, sum := range want {
		var wantSrcs []pipeline.SourceCount
		for node, c := range sum {
			if c != 0 {
				wantSrcs = append(wantSrcs, pipeline.SourceCount{Node: int64(node), Count: c})
			}
		}
		got, ok := p.ExportVictim(v)
		if !ok || !slices.Equal(got.Sources, wantSrcs) {
			t.Fatalf("victim %d exports %+v (ok %v), want sources %+v", v, got, ok, wantSrcs)
		}
	}
}

func FuzzGossipMsg(f *testing.F) {
	hostile := appendGossipMsg(nil, &gossipMsg{
		Sender: MemberID("10.0.0.1:7420"), SenderAddr: "10.0.0.1:7420",
		Ops:      []originOp{{Origin: 1, Op: filter.Mutation{Seq: 1, Node: -4, Victim: 1 << 33, Unblock: true}}},
		Replicas: []pipeline.VictimSnapshot{hostileSnapshot, hostileSnapshot, {Victim: -2}, {Victim: 16, Expired: true}},
	})
	f.Add(hostile)
	v2 := bytes.Clone(hostile[:len(hostile)-2]) // a v2 body ends at the roster
	v2[0] = gossipVersionV2
	f.Add(v2)
	f.Add(appendGossipMsg(nil, &gossipMsg{Handoffs: []handoff{{hostileSnapshot, 1}, {pipeline.VictimSnapshot{Victim: 7}, 1 << 63}}}))
	f.Fuzz(func(t *testing.T, body []byte) {
		in := bytes.Clone(body)
		m, err := parseGossipMsg(in)
		want, wantErr := refParseGossipMsg(bytes.Clone(body))
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(m, want) {
			t.Fatalf("parse = %+v, %v; the reference parser gives %+v, %v", m, err, want, wantErr)
		}
		if err != nil {
			return
		}
		checkOwnsInput(t, in, m)
		checkSeedable(t, m.Replicas...)
		for _, h := range m.Handoffs {
			checkSeedable(t, h.VictimSnapshot)
		}
	})
}

// gossipState is what an inbound gossip message can change on a node:
// its members, its blocklist rows and its stored replicas.
type gossipState struct {
	members  []string
	rows     []filter.Mutation
	replicas map[topology.NodeID]pipeline.VictimSnapshot
}

func gossipStateOf(n *Node) gossipState {
	st := gossipState{rows: n.bl.Changes(0, nil), replicas: map[topology.NodeID]pipeline.VictimSnapshot{}}
	for _, pr := range n.members.Load().list {
		st.members = append(st.members, pr.addr)
	}
	n.mu.Lock()
	maps.Copy(st.replicas, n.replicas)
	n.mu.Unlock()
	return st
}

// FuzzHandleGossip drives the gossip server side of a live node, one
// fresh node per body. Every body either fails with an error or gets an
// answer from the node that fits one frame; a message whose SenderAddr
// does not hash to its Sender changes no member, blocklist row or
// stored replica; and no body makes the node learn itself or the empty
// address as a member.
func FuzzHandleGossip(f *testing.F) {
	const self, sender = "10.9.0.1:1", "10.9.0.2:1"
	msg := &gossipMsg{
		Sender: MemberID(sender), SenderAddr: sender, RingVer: 1,
		Digest:   []digestEntry{{Origin: 7, MaxSeq: 1}},
		Ops:      []originOp{{Origin: 7, Op: filter.Mutation{Seq: 1, Origin: 7, Node: 3, Until: 1 << 40, Victim: 5}}},
		Replicas: []pipeline.VictimSnapshot{hostileSnapshot, {Victim: 9, Expired: true}},
		Roster:   []string{"10.9.0.3:1", self, ""},
	}
	f.Add(appendGossipMsg(nil, msg))
	forged := *msg
	forged.Sender = MemberID("10.9.0.4:1")
	f.Add(appendGossipMsg(nil, &forged))
	long := strings.Repeat("a", 65490) // its answer once outgrew a frame
	f.Add(appendGossipMsg(nil, &gossipMsg{Sender: MemberID(long), SenderAddr: long}))
	f.Fuzz(func(t *testing.T, body []byte) {
		var now atomic.Int64
		n, _ := newTestNode(t, self, nil, &now)
		req, parseErr := parseGossipMsg(bytes.Clone(body))
		before := gossipStateOf(n)
		resp, err := n.HandleGossip(body)
		if (err == nil) != (parseErr == nil) {
			t.Fatalf("HandleGossip error %v, parse error %v", err, parseErr)
		}
		if err != nil {
			return
		}
		if len(resp) > wire.MaxGossipBody {
			t.Fatalf("a %d-byte answer does not fit the %d bytes of one frame", len(resp), wire.MaxGossipBody)
		}
		if m, err := parseGossipMsg(resp); err != nil || m.Sender != n.self {
			t.Fatalf("answer does not parse as the node's own message: %+v, %v", m, err)
		}
		if MemberID(req.SenderAddr) != req.Sender {
			if after := gossipStateOf(n); !reflect.DeepEqual(before, after) {
				t.Fatalf("unauthenticated sender %x changed the node:\nbefore %+v\nafter  %+v", req.Sender, before, after)
			}
		}
		for _, pr := range n.members.Load().list {
			if pr.addr == "" || pr.addr == self || pr.id == n.self {
				t.Fatalf("learned member %q (id %x) is the node itself or empty", pr.addr, pr.id)
			}
		}
	})
}
