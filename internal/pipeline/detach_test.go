package pipeline

import (
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

// TestDetachVictim: detaching rides the shard queue, so every record
// submitted before the detach is tallied into the snapshot, the exact
// state is gone afterwards, and the counters account the transfer.
func TestDetachVictim(t *testing.T) {
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const victim, src = topology.NodeID(5), topology.NodeID(9)
	mf := mkMF(t, net, src, victim)
	const n = 25
	for i := 0; i < n; i++ {
		if !submit(p, wire.Record{Topo: p.TopoID(), Victim: victim, MF: mf}) {
			t.Fatal("submit rejected")
		}
	}

	// Detach immediately after the submits, without waiting for the
	// worker: queue ordering must deliver all n records to the snapshot.
	got := make(chan VictimSnapshot, 1)
	if !p.DetachVictim(victim, func(snap VictimSnapshot, ok bool) {
		if !ok {
			t.Error("detach reported no state for a victim with queued records")
		}
		got <- snap
	}) {
		t.Fatal("DetachVictim rejected a valid victim")
	}

	var snap VictimSnapshot
	select {
	case snap = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("detach callback never ran")
	}
	if snap.Victim != victim {
		t.Fatalf("snapshot victim %d, want %d", snap.Victim, victim)
	}
	if id := snap.Identified(); id != n {
		t.Fatalf("snapshot identified %d, want %d (queued records must be tallied first)", id, n)
	}
	if len(snap.Sources) != 1 || snap.Sources[0].Node != int64(src) {
		t.Fatalf("snapshot sources %+v, want all from %d", snap.Sources, src)
	}
	if _, ok := p.ExportVictim(victim); ok {
		t.Fatal("exact state survived the detach")
	}
	if got := p.C.VictimsDetached.Load(); got != 1 {
		t.Fatalf("VictimsDetached = %d, want 1", got)
	}

	// Detaching a victim with no state still runs the callback (ok
	// false) so callers can sequence on the queue.
	okCh := make(chan bool, 1)
	if !p.DetachVictim(victim, func(_ VictimSnapshot, ok bool) { okCh <- ok }) {
		t.Fatal("second DetachVictim rejected")
	}
	select {
	case ok := <-okCh:
		if ok {
			t.Fatal("detach of an absent victim reported state")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no-state detach callback never ran")
	}
	if got := p.C.VictimsDetached.Load(); got != 1 {
		t.Fatalf("VictimsDetached = %d after no-op detach, want 1", got)
	}

	// Validation: out-of-range victims and nil callbacks are rejected.
	if p.DetachVictim(topology.NodeID(net.NumNodes()), func(VictimSnapshot, bool) {}) {
		t.Fatal("out-of-range victim accepted")
	}
	if p.DetachVictim(victim, nil) {
		t.Fatal("nil callback accepted")
	}

	// A detached victim re-materializes from scratch on later records.
	if !submit(p, wire.Record{Topo: p.TopoID(), Victim: victim, MF: mf}) {
		t.Fatal("post-detach submit rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap, ok := p.ExportVictim(victim); ok && snap.Identified() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never re-materialized after detach")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSeedVictimOrdersBeforeLaterBatches: a seed rides the shard queue
// as a control batch, so a record batch submitted right after it is
// processed against the seeded tallies and the inherited alarm latch —
// here that makes the very next record cross the block threshold —
// without counting a fresh alarm.
func TestSeedVictimOrdersBeforeLaterBatches(t *testing.T) {
	net := topology.NewMesh2D(4)
	p, err := New(Config{Net: net, Shards: 2, BlockThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	const victim, src = topology.NodeID(5), topology.NodeID(9)
	seed := VictimSnapshot{
		Victim: victim, Alarmed: true, Undecodable: 2,
		Sources: []SourceCount{{Node: int64(src), Count: 50}},
	}
	if !p.SeedVictim(seed) {
		t.Fatal("SeedVictim rejected a valid snapshot")
	}
	if !submit(p, wire.Record{Topo: p.TopoID(), Victim: victim, MF: mkMF(t, net, src, victim)}) {
		t.Fatal("submit rejected")
	}
	if p.SeedVictim(VictimSnapshot{Victim: topology.NodeID(net.NumNodes())}) {
		t.Fatal("out-of-range victim accepted")
	}
	p.Close()

	snap, ok := p.ExportVictim(victim)
	if !ok || snap.Identified() != 51 || snap.Undecodable != 2 || !snap.Alarmed {
		t.Fatalf("state after seed+record = %+v (ok %v), want 51 identified, 2 undecodable, alarmed", snap, ok)
	}
	if got := p.C.Blocks.Load(); got != 1 || !p.Blocklist().BlockedAt(src, 0) {
		t.Fatalf("blocks = %d, want the seeded tally + one record to block source %d", got, src)
	}
	if got := p.C.Alarms.Load(); got != 0 {
		t.Fatalf("alarms = %d, want 0: the dead owner already counted this attack", got)
	}
	if p.SeedVictim(seed) {
		t.Fatal("SeedVictim accepted on a closed pipeline")
	}
	if got := p.SlabsOutstanding(); got != 0 {
		t.Fatalf("slabs outstanding = %d, want 0", got)
	}
}
