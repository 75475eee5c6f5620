package fattree

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/rng"
)

func TestTreeShape(t *testing.T) {
	tr, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 64 {
		t.Errorf("leaves = %d, want 64", tr.NumLeaves())
	}
	if tr.NumSwitches() != 3*16 {
		t.Errorf("switches = %d, want 48", tr.NumSwitches())
	}
	if tr.Name() == "" {
		t.Error("empty name")
	}
	for _, bad := range [][2]int{{1, 3}, {2, 0}, {2, 21}} {
		if _, err := New(bad[0], bad[1]); err == nil {
			t.Errorf("New(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestDigitsRoundTrip(t *testing.T) {
	tr, _ := New(3, 4)
	for l := 0; l < tr.NumLeaves(); l++ {
		d := tr.Digits(LeafID(l))
		if got := tr.LeafOf(d); got != LeafID(l) {
			t.Fatalf("digit round trip failed for %d", l)
		}
	}
}

func TestLeafSwitchAttachment(t *testing.T) {
	tr, _ := New(2, 3) // 8 leaves, 4 switches per level
	for l := 0; l < tr.NumLeaves(); l++ {
		sw, _ := tr.LeafSwitch(LeafID(l))
		if sw.Level != 0 {
			t.Fatalf("leaf attached to level %d", sw.Level)
		}
	}
	// Exactly K leaves per level-0 switch.
	counts := map[int]int{}
	for l := 0; l < tr.NumLeaves(); l++ {
		sw, _ := tr.LeafSwitch(LeafID(l))
		counts[sw.Index]++
	}
	for idx, c := range counts {
		if c != tr.K {
			t.Errorf("switch %d attaches %d leaves, want %d", idx, c, tr.K)
		}
	}
}

func TestUpDownInverse(t *testing.T) {
	tr, _ := New(3, 3)
	for idx := 0; idx < tr.NumLeaves()/tr.K; idx++ {
		for lvl := 0; lvl < tr.N-1; lvl++ {
			sw := SwitchID{Level: lvl, Index: idx}
			for u := 0; u < tr.K; u++ {
				upper, inPort := tr.Up(sw, u)
				if upper.Level != lvl+1 {
					t.Fatalf("Up level = %d", upper.Level)
				}
				// Descending through the recorded down-port returns to sw.
				back := tr.Down(upper, inPortToDigit(tr, sw, lvl))
				_ = inPort
				if back != sw {
					t.Fatalf("Down(Up(%v,%d)) = %v", sw, u, back)
				}
			}
		}
	}
}

// inPortToDigit extracts the digit the upper switch's down-port must
// take to reach sw — sw's digit at the freed position.
func inPortToDigit(tr *Tree, sw SwitchID, lvl int) int {
	return tr.switchDigits(sw.Index)[tr.N-2-lvl]
}

func TestNCALevel(t *testing.T) {
	tr, _ := New(2, 3) // leaves 0..7, digits (a2,a1,a0)
	cases := []struct {
		s, d LeafID
		want int
	}{
		{0b000, 0b001, 0}, // differ in a0 only: same level-0 switch
		{0b000, 0b010, 1}, // differ in a1: level 1
		{0b000, 0b100, 2}, // differ in a2: level 2 (root)
		{0b011, 0b111, 2},
		{0b101, 0b100, 0},
		{0b010, 0b010, 0}, // same leaf
	}
	for _, tc := range cases {
		if got := tr.NCALevel(tc.s, tc.d); got != tc.want {
			t.Errorf("NCALevel(%03b,%03b) = %d, want %d", tc.s, tc.d, got, tc.want)
		}
	}
}

func TestRouteReachesDestination(t *testing.T) {
	tr, _ := New(4, 3)
	r := rng.NewStream(1)
	choose := RandomUp(rng.NewStream(2))
	for trial := 0; trial < 500; trial++ {
		src := LeafID(r.Intn(tr.NumLeaves()))
		dst := LeafID(r.Intn(tr.NumLeaves()))
		nca := tr.NCALevel(src, dst)
		hops, err := tr.Route(src, dst, nca, choose)
		if err != nil {
			t.Fatal(err)
		}
		// Path shape: ascend nca levels, descend nca levels — 2·nca+1
		// switches.
		if len(hops) != 2*nca+1 {
			t.Fatalf("route %d->%d: %d hops, want %d", src, dst, len(hops), 2*nca+1)
		}
		last := hops[len(hops)-1].Switch
		wantSw, _ := tr.LeafSwitch(dst)
		if last != wantSw {
			t.Fatalf("route %d->%d ends at %v, want %v", src, dst, last, wantSw)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	tr, _ := New(2, 3)
	if _, err := tr.Route(0, 7, 0, nil); err == nil {
		t.Error("ascent below NCA accepted")
	}
	if _, err := tr.Route(0, 1, 5, nil); err == nil {
		t.Error("ascent above roots accepted")
	}
	bad := func(SwitchID, int) int { return 99 }
	if _, err := tr.Route(0, 7, 2, bad); err == nil {
		t.Error("bad chooser accepted")
	}
}

func TestStamperIdentifiesSource(t *testing.T) {
	// The headline extension result: single-packet identification on an
	// indirect network, robust to adaptive up-routing, spoofing and MF
	// preloads.
	for _, cfg := range [][2]int{{2, 3}, {2, 12}, {4, 3}, {4, 6}, {3, 4}} {
		tr, err := New(cfg[0], cfg[1])
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStamper(tr)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		r := rng.NewStream(uint64(cfg[0]*100 + cfg[1]))
		choose := RandomUp(rng.NewStream(99))
		for trial := 0; trial < 400; trial++ {
			src := LeafID(r.Intn(tr.NumLeaves()))
			dst := LeafID(r.Intn(tr.NumLeaves()))
			hops, err := tr.Route(src, dst, tr.NCALevel(src, dst), choose)
			if err != nil {
				t.Fatal(err)
			}
			pk := &packet.Packet{}
			pk.Hdr.ID = uint16(r.Intn(1 << 16)) // hostile preload
			st.Apply(pk, hops)
			got, ok := st.Identify(dst, pk.Hdr.ID)
			if !ok || got != src {
				t.Fatalf("%s: identified %d, want %d (mf %016b)", tr.Name(), got, src, pk.Hdr.ID)
			}
		}
	}
}

func TestStamperRobustToNonMinimalAscent(t *testing.T) {
	// Ascending above the NCA (adaptive routers may, for load balance)
	// records MORE source digits — identification still exact.
	tr, _ := New(2, 4)
	st, _ := NewStamper(tr)
	r := rng.NewStream(5)
	choose := RandomUp(rng.NewStream(6))
	for trial := 0; trial < 300; trial++ {
		src := LeafID(r.Intn(tr.NumLeaves()))
		dst := LeafID(r.Intn(tr.NumLeaves()))
		ascend := tr.NCALevel(src, dst) + r.Intn(tr.N-tr.NCALevel(src, dst))
		hops, err := tr.Route(src, dst, ascend, choose)
		if err != nil {
			t.Fatal(err)
		}
		pk := &packet.Packet{}
		st.Apply(pk, hops)
		if got, ok := st.Identify(dst, pk.Hdr.ID); !ok || got != src {
			t.Fatalf("ascend=%d: identified %d, want %d", ascend, got, src)
		}
	}
}

func TestStamperRejectsMalformedCount(t *testing.T) {
	tr, _ := New(2, 4) // count field has 3 bits, valid counts 1..4
	st, _ := NewStamper(tr)
	// count = 0 and count > n are invalid.
	if _, ok := st.Identify(0, 0); ok {
		t.Error("count 0 accepted")
	}
	bad := uint16(7) << (tr.N * 1) // count 7 > n=4 with 1-bit digits
	if _, ok := st.Identify(0, bad); ok {
		t.Error("oversized count accepted")
	}
	// Out-of-base digits are invalid for non-power-of-two arity.
	tr3, _ := New(3, 3) // 2-bit digits, digit 3 invalid
	st3, _ := NewStamper(tr3)
	badDigit := uint16(3) | uint16(1)<<(tr3.N*2) // digit_0 = 3, count 1
	if _, ok := st3.Identify(0, badDigit); ok {
		t.Error("out-of-base digit accepted")
	}
}

func TestStamperScalability(t *testing.T) {
	// The fat-tree analog of Table 3.
	n, leaves := MaxLeavesIn16Bits(2)
	if n != 12 || leaves != 4096 {
		t.Errorf("binary fat tree max = %d-tree (%d leaves), want 12 (4096)", n, leaves)
	}
	n, leaves = MaxLeavesIn16Bits(4)
	if n != 6 || leaves != 4096 {
		t.Errorf("4-ary fat tree max = %d-tree (%d leaves), want 6 (4096)", n, leaves)
	}
	if _, err := NewStamper(mustTree(t, 2, 13)); err == nil {
		t.Error("13-level binary stamper fit 16 bits")
	}
}

func mustTree(t *testing.T, k, n int) *Tree {
	t.Helper()
	tr, err := New(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStamperErasesPreload(t *testing.T) {
	tr, _ := New(2, 3)
	st, _ := NewStamper(tr)
	pk := &packet.Packet{}
	pk.Hdr.ID = 0xFFFF
	st.StampLeafInjection(pk, 1)
	// Only digit 0 and count survive.
	got, ok := st.Identify(tr.LeafOf([]int{1, 1, 0}), pk.Hdr.ID)
	if !ok || got != tr.LeafOf([]int{1, 1, 1}) {
		t.Errorf("identified %d after preload erase", got)
	}
}
