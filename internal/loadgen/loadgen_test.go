package loadgen

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/topology"
)

func TestGenerateDeterministicAndGrounded(t *testing.T) {
	s := Scenario{Topo: core.Torus2D(4), Victim: -1, Zombies: 2, Seed: 7, Warmup: 500, Attack: 1000}
	a, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records, b.Records) || !reflect.DeepEqual(a.Zombies, b.Zombies) {
		t.Fatal("same seed produced different scenarios")
	}

	if a.Victim != topology.NodeID(15) {
		t.Errorf("default victim = %d, want 15", a.Victim)
	}
	if len(a.Zombies) != 2 {
		t.Fatalf("zombies = %v, want 2 distinct", a.Zombies)
	}
	for i, z := range a.Zombies {
		if z == a.Victim {
			t.Errorf("zombie %d is the victim", z)
		}
		if i > 0 && a.Zombies[i-1] >= z {
			t.Errorf("zombies not sorted/unique: %v", a.Zombies)
		}
	}
	if a.AttackRecords == 0 {
		t.Error("no records delivered during the attack window")
	}
	// Every record belongs to the victim's stream; SYN traffic exists.
	syn := 0
	for _, r := range a.Records {
		if r.Victim != a.Victim || r.Topo != a.TopoID {
			t.Fatalf("record addressed elsewhere: %+v", r)
		}
		if r.Proto == packet.ProtoTCPSYN {
			syn++
		}
	}
	if syn == 0 {
		t.Error("flood produced no SYN records")
	}
}

func TestGenerateRejectsBadVictim(t *testing.T) {
	_, err := Generate(Scenario{Topo: core.Torus2D(4), Victim: 99, Warmup: 10, Attack: 10})
	if err == nil {
		t.Fatal("victim outside the fabric accepted")
	}
}

// TestGenerateVictimSelection pins the victim sentinel: only a negative
// Victim means "unset" (the highest-numbered node); node 0 is a real
// node and must be floodable like any other.
func TestGenerateVictimSelection(t *testing.T) {
	for _, c := range []struct {
		victim, want topology.NodeID
	}{
		{victim: 0, want: 0},
		{victim: -1, want: 15},
		{victim: 6, want: 6},
	} {
		res, err := Generate(Scenario{Topo: core.Torus2D(4), Victim: c.victim, Zombies: 2, Seed: 7, Warmup: 200, Attack: 600})
		if err != nil {
			t.Fatalf("Victim %d: %v", c.victim, err)
		}
		if res.Victim != c.want {
			t.Errorf("Victim %d: flooded node %d, want %d", c.victim, res.Victim, c.want)
		}
		if res.AttackRecords == 0 {
			t.Errorf("Victim %d: no records delivered during the attack window", c.victim)
		}
		for _, r := range res.Records {
			if r.Victim != c.want {
				t.Fatalf("Victim %d: record addressed to node %d", c.victim, r.Victim)
			}
		}
		for _, z := range res.Zombies {
			if z == c.want {
				t.Errorf("Victim %d: zombie %d is the victim", c.victim, z)
			}
		}
	}
}
