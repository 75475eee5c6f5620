package traceback

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/marking"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topology"
)

// tallyFabrics are the fabrics the tally is checked on: one that starts
// dense (3×3 mesh, 9 nodes), one that goes dense at its first doubling
// (4×4 torus), and the benchmark's two, which cross every doubling
// before the switch-over at about a third of their nodes.
var tallyFabrics = []func() topology.Network{
	func() topology.Network { return topology.NewMesh2D(3) },
	func() topology.Network { return topology.NewTorus2D(4) },
	func() topology.Network { return topology.NewTorus2D(64) },
	func() topology.Network { return topology.NewHypercube(16) },
}

// tallyRef is the reference the table is compared against: the dense
// counter-per-node tally DDPMIdentifier used to be.
type tallyRef struct {
	counts          []int64
	observed, undec int64
}

func (r *tallyRef) add(src int, n int64) {
	if n > 0 && src >= 0 && src < len(r.counts) {
		r.counts[src] += n
		r.observed += n
	}
}

func (r *tallyRef) seen() []topology.NodeID {
	var out []topology.NodeID
	for n, c := range r.counts {
		if c != 0 {
			out = append(out, topology.NodeID(n))
		}
	}
	return out
}

// checkTally compares every read the identifier offers with the
// reference.
func checkTally(t *testing.T, d *DDPMIdentifier, ref *tallyRef) {
	t.Helper()
	n := len(ref.counts)
	for src := -1; src <= n; src++ {
		var want int64
		if src >= 0 && src < n {
			want = ref.counts[src]
		}
		if got := d.Count(topology.NodeID(src)); got != want {
			t.Fatalf("Count(%d) = %d, want %d", src, got, want)
		}
	}
	if d.Observed() != ref.observed || d.Undecodable() != ref.undec {
		t.Fatalf("observed %d / undecodable %d, want %d / %d",
			d.Observed(), d.Undecodable(), ref.observed, ref.undec)
	}
	seen := ref.seen()
	var each []topology.NodeID
	d.EachSource(func(src topology.NodeID, c int64) {
		// The callback may read the identifier it is iterating.
		if c != ref.counts[src] || d.Count(src) != c {
			t.Fatalf("EachSource(%d) = %d, Count %d, want %d", src, c, d.Count(src), ref.counts[src])
		}
		each = append(each, src)
	})
	if !slices.Equal(each, seen) {
		t.Fatalf("EachSource visited %d sources %v…, want %d ascending", len(each), head(each), len(seen))
	}
	ranked := slices.Clone(seen)
	sort.SliceStable(ranked, func(i, j int) bool { return ref.counts[ranked[i]] > ref.counts[ranked[j]] })
	for _, k := range []int{1, 5, n + 1} {
		if got, want := d.TopSources(k), ranked[:min(k, len(ranked))]; !slices.Equal(got, want) {
			t.Fatalf("TopSources(%d) = %v…, want %v…", k, head(got), head(want))
		}
	}
	for _, th := range []int64{-1, 0, 2, 1 << 20} {
		var want []topology.NodeID
		for _, src := range seen {
			if ref.counts[src] > th {
				want = append(want, src)
			}
		}
		if got := d.SourcesAbove(th); !slices.Equal(got, want) {
			t.Fatalf("SourcesAbove(%d) = %d sources %v…, want %d %v…", th, len(got), head(got), len(want), head(want))
		}
	}
}

func head(s []topology.NodeID) []topology.NodeID { return s[:min(8, len(s))] }

// tallySlots reads how many table slots tab holds, 0 once it is dense
// (its unexported keys go nil): the representation a test must see cross
// every doubling and the switch-over, and no caller needs to.
func tallySlots(tab *stats.Tally) int {
	return reflect.ValueOf(tab).Elem().FieldByName("keys").Len()
}

// tallyShape is what a run of ops did to the representation, so a test
// can require that it really crossed the doublings and the switch-over.
type tallyShape struct {
	startedDense, endedDense bool
	doublings                int
}

// runTallyOps interprets ops, four bytes each (kind, a, b, c), against
// an identifier and the reference, comparing them after a geometrically
// growing number of ops and at the end:
//
//	kind&3 == 0  ObserveMF(a<<8|b), c%4+1 times
//	kind&3 == 1  AddTally(src, int8(c)), src = a<<8|b, pushed out of the
//	             fabric below (kind&4) or above (kind&8); kind&16 makes
//	             the count huge
//	kind&3 == 2  ObserveMF over (c+1)·16 consecutive MFs from a<<8|b
//	kind&3 == 3  AddTally over (c+1)·16 consecutive sources from a<<8|b
func runTallyOps(t *testing.T, net topology.Network, victim topology.NodeID, ops []byte) tallyShape {
	t.Helper()
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDDPMIdentifier(scheme, victim)
	ref := &tallyRef{counts: make([]int64, net.NumNodes())}
	shape := tallyShape{startedDense: tallySlots(&d.tab) == 0}
	slots := tallySlots(&d.tab)
	grown := func() {
		if tallySlots(&d.tab) > slots {
			shape.doublings++
		}
		slots = tallySlots(&d.tab)
	}
	observe := func(mf uint16) {
		want, wantOK := scheme.IdentifySource(victim, mf)
		if got, ok := d.ObserveMF(mf); got != want || ok != wantOK {
			t.Fatalf("ObserveMF(%#x) = %d, %v, want %d, %v", mf, got, ok, want, wantOK)
		}
		if wantOK {
			ref.add(int(want), 1)
		} else {
			ref.undec++
		}
		grown()
	}
	addTally := func(src int, n int64) {
		d.AddTally(topology.NodeID(src), n)
		ref.add(src, n)
		grown()
	}
	next := 1
	for i := 0; i+4 <= len(ops); i += 4 {
		kind, base, c := ops[i], int(ops[i+1])<<8|int(ops[i+2]), ops[i+3]
		switch kind & 3 {
		case 0:
			for j := 0; j <= int(c%4); j++ {
				observe(uint16(base))
			}
		case 1:
			n := int64(int8(c))
			if kind&16 != 0 {
				n <<= 40
			}
			switch {
			case kind&4 != 0:
				base = -base - 1
			case kind&8 != 0:
				base += net.NumNodes()
			}
			addTally(base, n)
		case 2:
			for j := 0; j < (int(c)+1)*16; j++ {
				observe(uint16(base + j))
			}
		case 3:
			for j := 0; j < (int(c)+1)*16; j++ {
				addTally(base+j, int64(1+j%3))
			}
		}
		if op := i/4 + 1; op == next {
			checkTally(t, d, ref)
			next += next/2 + 1
		}
	}
	checkTally(t, d, ref)
	shape.endedDense = tallySlots(&d.tab) == 0
	return shape
}

// TestDDPMIdentifierTallyMatchesDenseReference drives seeded random
// interleavings of ObserveMF and AddTally — single records, runs, and
// out-of-fabric, zero, negative and huge counts — on all four fabrics,
// with enough distinct sources on each to cross every doubling and the
// switch to one counter per node.
func TestDDPMIdentifierTallyMatchesDenseReference(t *testing.T) {
	for _, mk := range tallyFabrics {
		net := mk()
		n := net.NumNodes()
		for seed := uint64(1); seed <= 3; seed++ {
			r := rng.NewStream(seed)
			// Runs touch ≈ 200 sources per op on average; 40 ops more
			// than cover the small fabrics and n/32 the large ones.
			ops := make([]byte, 4*(40+n/32))
			for i := range ops {
				ops[i] = byte(r.Intn(256))
			}
			for i := 0; i < len(ops); i += 4 {
				if ops[i]&3 >= 2 && r.Intn(4) != 0 {
					ops[i] &^= 2 // three in four runs become single records
				}
			}
			shape := runTallyOps(t, net, topology.NodeID(r.Intn(n)), ops)
			// 8 slots double until 12·slots > 8·n; the doubling that
			// would cross that line is the switch-over instead.
			wantDoublings := 0
			for slots := 16; 12*slots <= 8*n; slots *= 2 {
				wantDoublings++
			}
			if !shape.endedDense || shape.startedDense != (n < 12) || shape.doublings != wantDoublings {
				t.Errorf("%s seed %d: %+v, want %d doublings from a table (dense from the start below 12 nodes) to dense",
					net.Name(), seed, shape, wantDoublings)
			}
		}
	}
}

// FuzzDDPMIdentifierTally is the differential test with the fuzzer
// choosing fabric, victim and ops. The seeds cross the switch-over on
// every fabric: seven 4 096-source runs are 28 672 sources on the
// 16-cube, past the 24 576 where its table would double to 65 536 slots.
func FuzzDDPMIdentifierTally(f *testing.F) {
	var sweep []byte
	for i := 0; i < 7; i++ {
		sweep = append(sweep, 2, byte(i<<4), 0, 255) // ObserveMF run
		sweep = append(sweep, 1, byte(i), 7, 0x85)   // negative count
	}
	for fabric := range tallyFabrics {
		f.Add(uint8(fabric), uint16(5), sweep)
		f.Add(uint8(fabric), uint16(0), []byte{3, 0, 0, 255, 1 | 16, 0, 3, 100, 1 | 8, 0, 0, 9, 1 | 4, 0, 0, 9, 0, 1, 2, 3})
	}
	f.Fuzz(func(t *testing.T, fabric uint8, victim uint16, ops []byte) {
		if len(ops) > 256 { // 64 ops, each at most 4 096 records
			ops = ops[:256]
		}
		net := tallyFabrics[int(fabric)%len(tallyFabrics)]()
		runTallyOps(t, net, topology.NodeID(int(victim)%net.NumNodes()), ops)
	})
}

// TestDDPMIdentifierBytesPerVictim pins what one victim costs on the
// paper's largest fabric as a function of the sources it has heard: an
// attacker multiplies per-victim state by the victim bound, so the
// typical victim must be small, a busy one proportional to its sources
// (12 bytes a slot, at most 4 slots a source), and the worst one — every
// node of the 16-cube talking to it — no dearer than the counter per
// node the identifier used to allocate up front (which the first two
// budgets reject: 512 KB before the first record).
func TestDDPMIdentifierBytesPerVictim(t *testing.T) {
	h := topology.NewHypercube(16)
	d, err := marking.NewDDPM(h)
	if err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, tc := range []struct {
		name                   string
		victims, sources, each int
	}{
		{"typical", 2048, 16, 1024},
		{"busy", 64, 1024, 40 << 10},
		{"worst", 1, 1 << 16, 8<<16 + 4096},
	} {
		before := live()
		idents := make([]*DDPMIdentifier, tc.victims)
		for v := range idents {
			idents[v] = NewDDPMIdentifier(d, topology.NodeID(v*29))
			for m := 0; m < tc.sources; m++ {
				idents[v].ObserveMF(uint16(m * 61)) // odd stride: distinct MFs, so distinct sources
			}
		}
		grew := int64(live()) - int64(before)
		if budget := int64(tc.victims * tc.each); grew > budget {
			t.Errorf("%s: %d identifiers × %d sources hold %d bytes (%d each), budget %d each",
				tc.name, tc.victims, tc.sources, grew, grew/int64(tc.victims), tc.each)
		}
		// Small is not lossy: the last one built (in the worst case, the
		// one that went dense) still answers every Count.
		id, heard := idents[len(idents)-1], 0
		for n := 0; n < h.NumNodes(); n++ {
			heard += int(id.Count(topology.NodeID(n)))
		}
		if heard != tc.sources || id.Observed() != int64(tc.sources) {
			t.Fatalf("%s: Count sums to %d, Observed %d, want %d", tc.name, heard, id.Observed(), tc.sources)
		}
		runtime.KeepAlive(idents)
	}
}

// benchIdents builds one identifier per victim, each having heard the
// same sources MFs (the XOR/offset differs per victim, the count not).
func benchIdents(b *testing.B, net topology.Network, victims, sources int) ([]*DDPMIdentifier, []uint16) {
	b.Helper()
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewStream(7)
	mfs := make([]uint16, 0, sources)
	probe := NewDDPMIdentifier(scheme, 0)
	for len(mfs) < sources {
		mf := uint16(r.Intn(1 << 16))
		if src, ok := probe.ObserveMF(mf); ok && probe.Count(src) == 1 {
			mfs = append(mfs, mf)
		}
	}
	idents := make([]*DDPMIdentifier, victims)
	for v := range idents {
		idents[v] = NewDDPMIdentifier(scheme, topology.NodeID(v*(net.NumNodes()/victims)))
		for _, mf := range mfs {
			idents[v].ObserveMF(mf)
		}
	}
	return idents, mfs
}

// BenchmarkDDPMIdentifierObserveMF is the hot call on the benchmark's
// three shapes: the flood workloads' fabric and fan-in, scan_carpet's
// decoys (many victims, few sources each: a cache miss per record when
// a victim's tally spans the fabric), and a few busy cube victims.
func BenchmarkDDPMIdentifierObserveMF(b *testing.B) {
	for _, bc := range []struct {
		name             string
		net              topology.Network
		victims, sources int
	}{
		{"torus64x64/64v/64s", topology.NewTorus2D(64), 64, 64},
		{"cube16/2048v/16s", topology.NewHypercube(16), 2048, 16},
		{"cube16/8v/80s", topology.NewHypercube(16), 8, 80},
	} {
		b.Run(bc.name, func(b *testing.B) {
			idents, mfs := benchIdents(b, bc.net, bc.victims, bc.sources)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idents[i%len(idents)].ObserveMF(mfs[i%len(mfs)])
			}
		})
	}
}

var benchSink int

// The reads and the constructor, on a 16-cube victim that has heard 16
// sources: each used to cost a pass over 65 536 counters.
func BenchmarkDDPMIdentifierEachSource(b *testing.B) {
	idents, _ := benchIdents(b, topology.NewHypercube(16), 1, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idents[0].EachSource(func(topology.NodeID, int64) { benchSink++ })
	}
}

func BenchmarkDDPMIdentifierTopSources(b *testing.B) {
	idents, _ := benchIdents(b, topology.NewHypercube(16), 1, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(idents[0].TopSources(5))
	}
}

func BenchmarkNewDDPMIdentifier(b *testing.B) {
	scheme, err := marking.NewDDPM(topology.NewHypercube(16))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += NewDDPMIdentifier(scheme, topology.NodeID(i&0xFFFF)).nodes
	}
}
