package filter

import (
	"testing"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traceback"
)

func markedPacket(t *testing.T, m topology.Network, d *marking.DDPM, plan *packet.AddrPlan,
	src, dst topology.NodeID) *packet.Packet {
	t.Helper()
	r := routing.NewRouter(m, routing.NewMinimalAdaptive(m))
	r.Sel = routing.RandomSelector{R: rng.NewStream(17)}
	path, err := r.Walk(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	pk := packet.NewPacket(plan, src, dst, packet.ProtoTCPSYN, 0)
	d.OnInject(pk)
	for i := 0; i+1 < len(path); i++ {
		d.OnForward(path[i], path[i+1], pk)
	}
	return pk
}

func TestBlocklistDropsIdentifiedSource(t *testing.T) {
	m := topology.NewMesh2D(8)
	d, _ := marking.NewDDPM(m)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	victim := m.IndexOf(topology.Coord{7, 7})
	attacker := m.IndexOf(topology.Coord{0, 2})
	innocent := m.IndexOf(topology.Coord{3, 3})

	b := NewBlocklist(d, victim)
	b.Block(attacker)
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}

	atk := markedPacket(t, m, d, plan, attacker, victim)
	atk.Spoof(plan.AddrOf(innocent)) // spoofing does not help
	if b.Check(atk) != Drop {
		t.Error("attack packet accepted despite blocklist")
	}
	good := markedPacket(t, m, d, plan, innocent, victim)
	if b.Check(good) != Accept {
		t.Error("innocent packet dropped")
	}
	acc, drop := b.Counts()
	if acc != 1 || drop != 1 {
		t.Errorf("counts = %d/%d", acc, drop)
	}

	b.Unblock(attacker)
	if b.Check(markedPacket(t, m, d, plan, attacker, victim)) != Accept {
		t.Error("unblocked source still dropped")
	}
}

func TestBlocklistFailOpenOnGarbage(t *testing.T) {
	m := topology.NewMesh2D(4)
	d, _ := marking.NewDDPM(m)
	b := NewBlocklist(d, m.IndexOf(topology.Coord{0, 0}))
	b.Block(5)
	pk := &packet.Packet{}
	codec := d.Codec().(*marking.SignedFieldCodec)
	pk.Hdr.ID, _ = codec.Encode(topology.Vector{100, 100})
	if b.Check(pk) != Accept {
		t.Error("unattributable packet dropped (should fail open)")
	}
	// A list built without a scheme attributes nothing, not "node 0".
	ttl := NewTTLBlocklist()
	ttl.Block(0)
	if ttl.Check(&packet.Packet{}) != Accept {
		t.Error("scheme-less list dropped a packet")
	}
}

// A scheme-backed list runs Check once per delivered packet in the
// simulator: identification must not allocate on any fabric.
func TestBlocklistCheckDoesNotAllocate(t *testing.T) {
	for _, net := range []topology.Network{topology.NewMesh2D(8), topology.NewTorus(3, 5), topology.NewHypercube(16)} {
		d, err := marking.NewDDPM(net)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBlocklist(d, topology.NodeID(net.NumNodes()-1))
		b.Block(3)
		pk := &packet.Packet{}
		if a := testing.AllocsPerRun(200, func() { pk.Hdr.ID += 257; b.Check(pk) }); a != 0 {
			t.Errorf("%s: Check allocates %v/op, want 0", net.Name(), a)
		}
	}
}

func TestBlocklistBlockAllFromIdentifier(t *testing.T) {
	m := topology.NewMesh2D(8)
	d, _ := marking.NewDDPM(m)
	plan := packet.NewAddrPlan(packet.DefaultBase, m.NumNodes())
	victim := m.IndexOf(topology.Coord{7, 0})
	z1 := m.IndexOf(topology.Coord{0, 0})
	z2 := m.IndexOf(topology.Coord{0, 7})

	ident := traceback.NewDDPMIdentifier(d, victim)
	for i := 0; i < 20; i++ {
		ident.Observe(markedPacket(t, m, d, plan, z1, victim))
		ident.Observe(markedPacket(t, m, d, plan, z2, victim))
	}
	b := NewBlocklist(d, victim)
	b.BlockAll(ident.SourcesAbove(10))
	if b.Len() != 2 {
		t.Fatalf("blocked %d nodes, want 2", b.Len())
	}
	if b.Check(markedPacket(t, m, d, plan, z1, victim)) != Drop ||
		b.Check(markedPacket(t, m, d, plan, z2, victim)) != Drop {
		t.Error("zombies not blocked")
	}
}

func TestIngressFilterBlocksSpoofing(t *testing.T) {
	plan := packet.NewAddrPlan(packet.DefaultBase, 16)
	f := NewIngressFilter(plan)

	honest := packet.NewPacket(plan, 3, 7, packet.ProtoTCPSYN, 0)
	if f.CheckInjection(3, honest) != Accept {
		t.Error("honest packet dropped at ingress")
	}
	spoofed := packet.NewPacket(plan, 3, 7, packet.ProtoTCPSYN, 0)
	spoofed.Spoof(plan.AddrOf(9))
	if f.CheckInjection(3, spoofed) != Drop {
		t.Error("spoofed packet passed ingress")
	}
	external := packet.NewPacket(plan, 3, 7, packet.ProtoTCPSYN, 0)
	external.Spoof(packet.AddrFrom4(192, 0, 2, 1))
	if f.CheckInjection(3, external) != Drop {
		t.Error("bogon source passed ingress")
	}
	acc, drop := f.Counts()
	if acc != 1 || drop != 2 {
		t.Errorf("counts = %d/%d", acc, drop)
	}
}

func TestVerdictString(t *testing.T) {
	if Accept.String() != "accept" || Drop.String() != "drop" {
		t.Error("bad verdict strings")
	}
}

func TestBlocklistTTLExpiry(t *testing.T) {
	b := NewTTLBlocklist()
	b.BlockUntil(3, 100)
	b.BlockUntil(4, 200)
	b.Block(5) // permanent

	if !b.BlockedAt(3, 50) || !b.BlockedAt(4, 50) || !b.BlockedAt(5, 50) {
		t.Fatal("fresh blocks not in effect")
	}
	// Lapsed entries answer false before any Expire call.
	if b.BlockedAt(3, 100) {
		t.Error("node 3 still blocked at its expiry instant")
	}
	if !b.BlockedAt(4, 150) {
		t.Error("node 4 lapsed early")
	}
	if b.Len() != 3 {
		t.Fatalf("Len before Expire = %d, want 3", b.Len())
	}
	if lapsed := len(b.ExpireEntries(150)); lapsed != 1 {
		t.Fatalf("Expire(150) pruned %d, want 1", lapsed)
	}
	if b.Len() != 2 {
		t.Fatalf("Len after first Expire = %d, want 2", b.Len())
	}
	if lapsed := len(b.ExpireEntries(1 << 40)); lapsed != 1 {
		t.Fatalf("Expire(max) pruned %d, want 1 (permanent must survive)", lapsed)
	}
	if !b.BlockedAt(5, 1<<40) || b.Len() != 1 {
		t.Fatal("permanent block did not survive Expire")
	}
}

func TestBlocklistTTLUpgradeRules(t *testing.T) {
	b := NewTTLBlocklist()
	b.BlockUntil(1, 100)
	b.BlockUntil(1, 50) // shorter TTL must not shorten the block
	if !b.BlockedAt(1, 75) {
		t.Error("re-block with shorter TTL shortened the block")
	}
	b.BlockUntil(1, 200) // longer TTL extends
	if !b.BlockedAt(1, 150) {
		t.Error("re-block with longer TTL did not extend")
	}
	b.Block(1) // permanent wins
	b.BlockUntil(1, 300)
	if !b.BlockedAt(1, 1<<40) {
		t.Error("TTL re-block demoted a permanent block")
	}
	b.Unblock(1)
	if b.BlockedAt(1, 0) || b.Len() != 0 {
		t.Error("unblock did not remove the entry")
	}
}

func TestBlocklistSnapshotSorted(t *testing.T) {
	b := NewTTLBlocklist()
	b.BlockUntil(9, 10)
	b.Block(2)
	b.BlockUntil(5, 7)
	snap := b.Snapshot()
	if len(snap) != 3 || snap[0].Node != 2 || snap[1].Node != 5 || snap[2].Node != 9 {
		t.Fatalf("bad snapshot %+v", snap)
	}
	if snap[0].Until != Permanent || snap[1].Until != 7 {
		t.Fatalf("snapshot lost expiries: %+v", snap)
	}
}

func TestBlocklistConcurrentUse(t *testing.T) {
	b := NewTTLBlocklist()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			b.BlockUntil(topology.NodeID(i%17), int64(i))
			b.ExpireEntries(int64(i - 8))
		}
	}()
	for i := 0; i < 2000; i++ {
		b.BlockedAt(topology.NodeID(i%17), int64(i))
		b.Len()
		b.Snapshot()
	}
	<-done
}

func TestBlocklistExpireEntriesSortedAudit(t *testing.T) {
	b := NewTTLBlocklist()
	b.BlockUntil(9, 100)
	b.BlockUntil(2, 80)
	b.BlockUntil(5, 300)
	b.Block(7) // permanent never lapses

	lapsed := b.ExpireEntries(100)
	if len(lapsed) != 2 || lapsed[0].Node != 2 || lapsed[1].Node != 9 {
		t.Fatalf("ExpireEntries(100) = %+v, want nodes [2 9]", lapsed)
	}
	if lapsed[0].Until != 80 || lapsed[1].Until != 100 {
		t.Fatalf("lapsed entries lost expiries: %+v", lapsed)
	}
	if b.Len() != 2 {
		t.Fatalf("Len after expiry = %d, want 2", b.Len())
	}
	if got := b.ExpireEntries(100); got != nil {
		t.Fatalf("second ExpireEntries(100) = %+v, want nil", got)
	}
	if got := b.ExpireEntries(1 << 40); len(got) != 1 || got[0].Node != 5 {
		t.Fatalf("ExpireEntries(max) = %+v, want node 5 only", got)
	}
	if !b.BlockedAt(7, 1<<40) {
		t.Fatal("permanent block lapsed")
	}
}
