package cluster

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/topology"
)

// The snapshot codec carries tallies between members — replicas,
// tombstones and handoffs all ride gossip — so its decoder faces the
// network. The target holds one line: a body either fails to parse or
// yields a message that owns its memory, survives encode → parse
// unchanged, and whose every victim snapshot — duplicate sources, nodes
// outside the fabric or negative, counts up to 2⁶³ — can be seeded into
// a pipeline, which keeps exactly the in-fabric sources with a positive
// count, in ascending order.

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
	f.Fuzz(func(t *testing.T, body []byte) {
		in := bytes.Clone(body)
		m, err := parseGossipMsg(in)
		if err != nil {
			return
		}
		checkOwnsInput(t, in, m)
		checkSeedable(t, m.Replicas...)
	})
}
