package core

import (
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// TestDrawZombiesRefusesMoreThanTheFabricHolds: a 2x2 fabric has three
// nodes besides the victim; asking for a fourth zombie used to spin the
// distinct-draw loop forever. The draw comes back sorted.
func TestDrawZombiesRefusesMoreThanTheFabricHolds(t *testing.T) {
	intn := rng.NewStream(1).Intn
	if _, err := DrawZombies(intn, 4, 3, 4); err == nil {
		t.Fatal("4 zombies on a 4-node fabric accepted")
	}
	zs, err := DrawZombies(intn, 4, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(zs, []topology.NodeID{0, 1, 2}) {
		t.Fatalf("drew %v, want every node but the victim, sorted", zs)
	}
}

// TestRunE5AndE7RefuseMoreZombiesThanTheFabricHolds: both experiments
// draw through DrawZombies, so an impossible zombie count is an error,
// not a draw loop that never ends.
func TestRunE5AndE7RefuseMoreZombiesThanTheFabricHolds(t *testing.T) {
	if _, err := RunE5(E5Config{Topo: Mesh2D(2), Zombies: 4, AttackGap: 4}); err == nil {
		t.Error("RunE5 accepted 4 zombies on a 2x2 mesh")
	}
	if _, err := RunE7(E7Config{Topo: Mesh2D(2), Zombies: 4}); err == nil {
		t.Error("RunE7 accepted 4 zombies on a 2x2 mesh")
	}
}
