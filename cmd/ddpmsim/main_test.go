package main

import (
	"testing"

	"repro/internal/rng"
)

// TestDrawZombiesRefusesMoreThanTheFabricHolds: a 2x2 fabric has three
// nodes besides the victim; asking for a fourth zombie used to spin the
// distinct-draw loop forever.
func TestDrawZombiesRefusesMoreThanTheFabricHolds(t *testing.T) {
	intn := rng.NewStream(1).Intn
	if _, err := drawZombies(intn, 4, 3, 4); err == nil {
		t.Fatal("4 zombies on a 4-node fabric accepted")
	}
	zset, err := drawZombies(intn, 4, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(zset) != 3 || zset[3] {
		t.Fatalf("drew %v, want every node but the victim", zset)
	}
}
