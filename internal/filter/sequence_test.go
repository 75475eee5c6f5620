package filter

import (
	"reflect"
	"testing"

	"repro/internal/topology"
)

func TestBlocklistMutationLog(t *testing.T) {
	b := NewTTLBlocklist()
	b.SetOrigin(1)

	b.Block(3)
	b.BlockUntil(4, 100)
	b.BlockUntil(4, 50) // earlier expiry: no state change, no log entry
	b.Unblock(3)
	b.Unblock(9) // absent: no state change, no log entry

	if got := b.Seq(); got != 3 {
		t.Fatalf("Seq = %d, want 3", got)
	}
	log := b.MutationsAfter(0, nil)
	want := []Mutation{
		{Seq: 1, Stamp: 1, Node: 3, Until: Permanent, Victim: topology.None},
		{Seq: 2, Stamp: 2, Node: 4, Until: 100, Victim: topology.None},
		{Seq: 3, Stamp: 3, Node: 3, Until: Permanent, Victim: topology.None, Unblock: true},
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %+v, want %+v", log, want)
	}
	if got := b.MutationsAfter(2, nil); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("MutationsAfter(2) = %+v", got)
	}
	if got := b.MutationsAfter(3, nil); len(got) != 0 {
		t.Fatalf("MutationsAfter(3) = %+v, want empty", got)
	}
}

func TestBlocklistExpiryNotSequenced(t *testing.T) {
	b := NewTTLBlocklist()
	b.BlockUntil(7, 10)
	seq := b.Seq()
	if n := len(b.ExpireEntries(11)); n != 1 {
		t.Fatalf("Expire = %d, want 1", n)
	}
	if got := b.Seq(); got != seq {
		t.Fatalf("expiry bumped seq %d -> %d", seq, got)
	}
}

// TestApplyRemoteLWWConvergence replays the same pair of conflicting
// mutations in both orders and demands identical final snapshots —
// the order-independence that lets anti-entropy gossip converge.
func TestApplyRemoteLWWConvergence(t *testing.T) {
	block := Mutation{Seq: 1, Stamp: 5, Node: 3, Until: Permanent}
	unblock := Mutation{Seq: 1, Stamp: 6, Node: 3, Until: Permanent, Unblock: true}

	ab := NewTTLBlocklist()
	ab.ApplyRemote(block, 10)
	ab.ApplyRemote(unblock, 20)

	ba := NewTTLBlocklist()
	ba.ApplyRemote(unblock, 20)
	if ba.ApplyRemote(block, 10) {
		t.Fatal("stale block applied over a newer unblock")
	}

	if !reflect.DeepEqual(ab.Snapshot(), ba.Snapshot()) {
		t.Fatalf("order-dependent outcome: %+v vs %+v", ab.Snapshot(), ba.Snapshot())
	}
	if ab.Len() != 0 {
		t.Fatalf("node still blocked after newer unblock: %+v", ab.Snapshot())
	}
}

func TestApplyRemoteTieBreaksOnOrigin(t *testing.T) {
	a := Mutation{Seq: 1, Stamp: 5, Node: 3, Until: 100}
	b := Mutation{Seq: 1, Stamp: 5, Node: 3, Until: 200}

	x := NewTTLBlocklist()
	x.ApplyRemote(a, 1)
	x.ApplyRemote(b, 2)
	y := NewTTLBlocklist()
	y.ApplyRemote(b, 2)
	y.ApplyRemote(a, 1)
	if !reflect.DeepEqual(x.Snapshot(), y.Snapshot()) {
		t.Fatalf("tie broke differently: %+v vs %+v", x.Snapshot(), y.Snapshot())
	}
	if !x.BlockedAt(3, 150) {
		t.Fatal("higher-origin write (until 200) should own the entry")
	}
}

// TestApplyRemoteLamportMerge: a local mutation minted after seeing a
// remote stamp must order after it, so the local write wins fleet-wide.
func TestApplyRemoteLamportMerge(t *testing.T) {
	b := NewTTLBlocklist()
	b.SetOrigin(1)
	b.ApplyRemote(Mutation{Seq: 1, Stamp: 41, Node: 3, Until: Permanent}, 9)
	b.Unblock(3)
	log := b.MutationsAfter(0, nil)
	if len(log) != 1 || log[0].Stamp <= 41 {
		t.Fatalf("local mutation stamp %d not past remote stamp 41: %+v", log[0].Stamp, log)
	}
	// The remote origin re-applying its old block must now lose.
	if b.ApplyRemote(Mutation{Seq: 2, Stamp: 41, Node: 3, Until: Permanent}, 9) {
		t.Fatal("stale remote re-block won over the newer local unblock")
	}
	if b.Len() != 0 {
		t.Fatalf("blocklist = %+v, want empty", b.Snapshot())
	}
}

func TestApplyRemoteSizeAccounting(t *testing.T) {
	b := NewTTLBlocklist()
	b.ApplyRemote(Mutation{Seq: 1, Stamp: 1, Node: 5, Until: Permanent}, 2)
	if b.Empty() || !b.BlockedAt(5, 0) {
		t.Fatal("remote block not visible")
	}
	b.ApplyRemote(Mutation{Seq: 2, Stamp: 2, Node: 5, Until: 99}, 2)
	if got := b.Len(); got != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", got)
	}
	b.ApplyRemote(Mutation{Seq: 3, Stamp: 3, Node: 5, Unblock: true}, 2)
	if !b.Empty() {
		t.Fatal("remote unblock not visible")
	}
	var nodes []topology.NodeID
	for _, e := range b.Snapshot() {
		nodes = append(nodes, e.Node)
	}
	if len(nodes) != 0 {
		t.Fatalf("snapshot = %v, want empty", nodes)
	}
}
