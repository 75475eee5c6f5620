// Package fattree implements the paper's §6.3 future-work direction:
// source identification in *indirect* networks. It models the k-ary
// n-tree fat tree (Petrini–Vanneschi) that commodity clusters use, with
// fully adaptive up-phase routing, and a DDPM-analog marking scheme —
// port stamping — that identifies the source leaf from a single packet.
//
// Why DDPM itself does not carry over: in a direct network every
// switch pairs with a compute node and coordinates form a module over
// per-hop displacements, so the MF can accumulate D − S. In a fat tree
// compute nodes exist only at the leaves and switches have no leaf
// coordinate, so there is no displacement to accumulate. The structural
// fact that replaces it: on the ascending phase, the DOWN-port through
// which a packet enters each switch equals one digit of the source
// leaf's k-ary address, regardless of which up-port the adaptive router
// chose. Stamping those input ports into the MF therefore records the
// source address digits; the victim completes the high digits from its
// own address (source and destination agree above the ascent level).
//
// Field cost: n·⌈log₂k⌉ digit bits + ⌈log₂(n+1)⌉ ascent bits — within
// the 16-bit MF up to 4096-leaf trees (e.g. 4-ary 6-tree, 2-ary
// 12-tree), the same order as DDPM's Table 3.
package fattree

import (
	"fmt"
)

// LeafID identifies a compute node, 0 .. k^n − 1. The k-ary address
// digits are (a_{n−1}, …, a_0) with a_{n−1} most significant.
type LeafID int

// SwitchID identifies a switch by level and index. Level 0 switches
// attach the leaves; level n−1 switches are the roots. Each level has
// k^{n−1} switches, identified by n−1 digits (w_{n−2}, …, w_0).
type SwitchID struct {
	Level int
	Index int
}

// Tree is a k-ary n-tree: k^n leaves, n levels of k^{n−1} switches with
// k down-ports and (except the roots) k up-ports each.
type Tree struct {
	K, N     int
	leaves   int
	perLevel int
}

// New constructs a k-ary n-tree. k ≥ 2, n ≥ 1, and the leaf count is
// capped at 2^20 for simulation sanity.
func New(k, n int) (*Tree, error) {
	if k < 2 || n < 1 {
		return nil, fmt.Errorf("fattree: need k >= 2 and n >= 1, got k=%d n=%d", k, n)
	}
	leaves := 1
	for i := 0; i < n; i++ {
		leaves *= k
		if leaves > 1<<20 {
			return nil, fmt.Errorf("fattree: %d-ary %d-tree exceeds the 1M-leaf limit", k, n)
		}
	}
	perLevel := leaves / k
	return &Tree{K: k, N: n, leaves: leaves, perLevel: perLevel}, nil
}

// Name returns e.g. "fattree-4ary-3tree".
func (t *Tree) Name() string { return fmt.Sprintf("fattree-%dary-%dtree", t.K, t.N) }

// NumLeaves returns k^n; NumSwitches n·k^{n−1}.
func (t *Tree) NumLeaves() int   { return t.leaves }
func (t *Tree) NumSwitches() int { return t.N * t.perLevel }

// Digits decomposes a leaf address into its n base-k digits, most
// significant first: index 0 holds a_{n−1}.
func (t *Tree) Digits(l LeafID) []int {
	if l < 0 || int(l) >= t.leaves {
		panic(fmt.Sprintf("fattree: leaf %d out of range", l))
	}
	d := make([]int, t.N)
	v := int(l)
	for i := t.N - 1; i >= 0; i-- {
		d[i] = v % t.K
		v /= t.K
	}
	return d
}

// LeafOf recomposes a leaf from digits (most significant first).
func (t *Tree) LeafOf(digits []int) LeafID {
	if len(digits) != t.N {
		panic(fmt.Sprintf("fattree: %d digits, want %d", len(digits), t.N))
	}
	v := 0
	for _, d := range digits {
		if d < 0 || d >= t.K {
			panic(fmt.Sprintf("fattree: digit %d out of base %d", d, t.K))
		}
		v = v*t.K + d
	}
	return LeafID(v)
}

// switchDigits decomposes a switch index into its n−1 digits
// (w_{n−2}, …, w_0), most significant first at position 0.
func (t *Tree) switchDigits(idx int) []int {
	d := make([]int, t.N-1)
	v := idx
	for i := t.N - 2; i >= 0; i-- {
		d[i] = v % t.K
		v /= t.K
	}
	return d
}

func (t *Tree) switchIndex(digits []int) int {
	v := 0
	for _, d := range digits {
		v = v*t.K + d
	}
	return v
}

// LeafSwitch returns the level-0 switch a leaf attaches to and the
// down-port used: switch digits are the leaf's high n−1 digits, the
// port is the low digit a_0.
func (t *Tree) LeafSwitch(l LeafID) (SwitchID, int) {
	d := t.Digits(l)
	return SwitchID{Level: 0, Index: t.switchIndex(d[:t.N-1])}, d[t.N-1]
}

// Up returns the level l+1 switch reached from sw through up-port u,
// and the down-port on the upper switch through which the packet
// enters. In the Petrini–Vanneschi wiring, switch <w, l> connects to
// every level l+1 switch differing from w only in digit position
// (n−2−l); the upper switch's down-port equals w's digit at that
// position — which, crucially, is one digit of every leaf below sw.
func (t *Tree) Up(sw SwitchID, u int) (SwitchID, int) {
	if sw.Level >= t.N-1 {
		panic(fmt.Sprintf("fattree: no up links from root level %d", sw.Level))
	}
	if u < 0 || u >= t.K {
		panic(fmt.Sprintf("fattree: up port %d out of range", u))
	}
	d := t.switchDigits(sw.Index)
	pos := t.N - 2 - sw.Level
	inPort := d[pos]
	d[pos] = u
	return SwitchID{Level: sw.Level + 1, Index: t.switchIndex(d)}, inPort
}

// Down returns the level l−1 switch reached from sw through down-port
// p: the digit freed at that level is set to p.
func (t *Tree) Down(sw SwitchID, p int) SwitchID {
	if sw.Level == 0 {
		panic("fattree: level-0 down-ports reach leaves")
	}
	if p < 0 || p >= t.K {
		panic(fmt.Sprintf("fattree: down port %d out of range", p))
	}
	d := t.switchDigits(sw.Index)
	pos := t.N - 1 - sw.Level
	d[pos] = p
	return SwitchID{Level: sw.Level - 1, Index: t.switchIndex(d)}
}

// NCALevel returns the lowest switch level at which src and dst share
// an ancestor: 0 when they attach to the same level-0 switch, otherwise
// one past the most significant differing digit's distance from the
// top. A minimal route ascends exactly to this level.
func (t *Tree) NCALevel(src, dst LeafID) int {
	sd, dd := t.Digits(src), t.Digits(dst)
	for i := 0; i < t.N-1; i++ {
		if sd[i] != dd[i] {
			return t.N - 1 - i
		}
	}
	return 0
}
