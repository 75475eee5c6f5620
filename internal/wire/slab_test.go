package wire

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
)

const testTopoID uint32 = 0xDEADBEEF

func slabRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			T: eventq.Time(i), Topo: testTopoID,
			Victim: topology.NodeID(i % 7),
			MF:     uint16(i), Src: packet.Addr(100 + i%13), Proto: 6,
		}
	}
	return recs
}

func TestSlabDecodeRoundTrip(t *testing.T) {
	pool := NewSlabPool(2)
	recs := slabRecords(300)

	t.Run("records payload", func(t *testing.T) {
		frame := AppendFrame(nil, recs)
		s := pool.Get()
		defer s.Release()
		if _, err := s.AppendBatch(TypeRecords, frame[HeaderSize:]); err != nil {
			t.Fatal(err)
		}
		if s.Ctxs != nil {
			t.Error("untraced decode materialized a ctx slice")
		}
		checkRecords(t, s.Recs, recs)
	})

	t.Run("sealed payload", func(t *testing.T) {
		frame := AppendSealed(nil, 42, recs)
		s := pool.Get()
		defer s.Release()
		seq, err := s.AppendSealedPayload(frame[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if seq != 42 {
			t.Errorf("seq = %d, want 42", seq)
		}
		checkRecords(t, s.Recs, recs)
	})

	t.Run("sealed crc reject", func(t *testing.T) {
		frame := AppendSealed(nil, 42, recs)
		frame[HeaderSize+10] ^= 0xFF
		s := pool.Get()
		defer s.Release()
		if _, err := s.AppendSealedPayload(frame[HeaderSize:]); err == nil {
			t.Fatal("corrupted sealed payload decoded")
		}
	})

	t.Run("traced payloads", func(t *testing.T) {
		trs := make([]TracedRecord, len(recs))
		for i, r := range recs {
			trs[i] = TracedRecord{Record: r, Ctx: TraceContext{ID: uint64(i + 1), Sent: int64(i)}}
		}
		frame := appendTraced(nil, TypeTracedRecords, 0, 0, trs)
		s := pool.Get()
		defer s.Release()
		if _, err := s.AppendBatch(TypeTracedRecords, frame[HeaderSize:]); err != nil {
			t.Fatal(err)
		}
		checkRecords(t, s.Recs, recs)
		for i, c := range s.Ctxs {
			if c != trs[i].Ctx {
				t.Fatalf("ctx[%d] = %+v, want %+v", i, c, trs[i].Ctx)
			}
		}

		sealed := AppendTracedSealed(nil, 7, trs)
		s2 := pool.Get()
		defer s2.Release()
		seq, err := s2.AppendTracedSealedPayload(sealed[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if seq != 7 {
			t.Errorf("seq = %d, want 7", seq)
		}
		checkRecords(t, s2.Recs, recs)
	})

	t.Run("mixed frames backfill zero ctxs", func(t *testing.T) {
		s := pool.Get()
		defer s.Release()
		plain := AppendFrame(nil, recs[:5])
		if _, err := s.AppendBatch(TypeRecords, plain[HeaderSize:]); err != nil {
			t.Fatal(err)
		}
		traced := appendTraced(nil, TypeTracedRecords, 0, 0, []TracedRecord{{Record: recs[5], Ctx: TraceContext{ID: 99}}})
		if _, err := s.AppendBatch(TypeTracedRecords, traced[HeaderSize:]); err != nil {
			t.Fatal(err)
		}
		// And the reverse: an untraced frame landing beside the lane.
		if _, err := s.AppendBatch(TypeSealed, AppendSealed(nil, 0, recs[6:8])[HeaderSize:]); err != nil {
			t.Fatal(err)
		}
		checkRecords(t, s.Recs, recs[:8])
		if len(s.Ctxs) != 8 {
			t.Fatalf("ctxs len = %d, want 8", len(s.Ctxs))
		}
		for i, c := range s.Ctxs {
			if want := (TraceContext{ID: 99}); i == 5 && c != want {
				t.Errorf("traced ctx lost: %+v", c)
			} else if i != 5 && c != (TraceContext{}) {
				t.Errorf("backfilled ctx %d nonzero: %+v", i, c)
			}
		}
	})

	t.Run("datagram frame", func(t *testing.T) {
		one := AppendFrame(nil, recs[:4])
		two := appendTraced(one, TypeTracedRecords, 0, 0, []TracedRecord{{Record: recs[4], Ctx: TraceContext{ID: 3}}})
		s := pool.Get()
		defer s.Release()
		rest := two
		for len(rest) > 0 {
			consumed, err := s.AppendDatagramFrame(rest)
			if err != nil {
				t.Fatal(err)
			}
			rest = rest[consumed:]
		}
		checkRecords(t, s.Recs, recs[:5])
	})

	t.Run("full", func(t *testing.T) {
		s := pool.Get()
		defer s.Release()
		for i := 0; i < SlabCap; i++ {
			s.Append(recs[0])
		}
		frame := AppendFrame(nil, recs[:1])
		if _, err := s.AppendBatch(TypeRecords, frame[HeaderSize:]); err != ErrSlabFull {
			t.Fatalf("append past capacity: %v, want ErrSlabFull", err)
		}
	})
}

// TestDecodeErrorLeavesSlabUntouched is the property none of the
// per-type decoders had a test for: whatever makes AppendBatch fail —
// a type that is not a batch, a misaligned payload, a frame that does
// not fit, a bad CRC — the slab's length and the presence of its trace
// lane are exactly what they were, on an empty slab and on a part-full
// one, with and without a lane.
func TestDecodeErrorLeavesSlabUntouched(t *testing.T) {
	trs := goldenTraced(3)
	recs, _ := splitTraced(trs)
	flipped := func(frame []byte, off int) []byte {
		frame[off] ^= 0x04
		return frame[HeaderSize:]
	}
	big := make([]Record, SlabCap/2+1)
	cases := []struct {
		name    string
		ftype   uint8
		payload []byte
		want    error
	}{
		{"hello is not a batch", TypeHello, AppendHello(nil, 1, 2, 0)[HeaderSize:], ErrBadFrame},
		{"gossip is not a batch", TypeGossip, AppendGossip(nil, goldenBody)[HeaderSize:], ErrBadFrame},
		{"type 0", 0, nil, ErrBadFrame},
		{"unknown type", TypeTracedForwarded + 1, nil, ErrBadFrame},
		{"records misaligned", TypeRecords, AppendFrame(nil, recs)[HeaderSize+1:], ErrBadFrame},
		{"traced records misaligned", TypeTracedRecords, AppendFrame(nil, recs)[HeaderSize:], ErrBadFrame},
		{"sealed shorter than its overhead", TypeSealed, make([]byte, batchLayouts[TypeSealed].overhead()-1), ErrBadFrame},
		{"sealed misaligned", TypeSealed, AppendSealed(nil, 1, recs)[HeaderSize+1:], ErrBadFrame},
		{"traced sealed read as sealed", TypeSealed, AppendTracedSealed(nil, 1, trs[:1])[HeaderSize:], ErrBadFrame},
		{"sealed crc, flip in seq", TypeSealed, flipped(AppendSealed(nil, 1, recs), HeaderSize+3), ErrBadFrame},
		{"traced sealed crc, flip in a context", TypeTracedSealed, flipped(AppendTracedSealed(nil, 1, trs), HeaderSize+8+RecordSize+5), ErrBadFrame},
		{"forwarded crc, flip in origin", TypeForwarded, flipped(AppendForwarded(nil, 1, 2, recs), HeaderSize), ErrBadFrame},
		{"traced forwarded crc, flip in the tail", TypeTracedForwarded, flipped(appendTraced(nil, TypeTracedForwarded, 1, 2, trs), len(appendTraced(nil, TypeTracedForwarded, 1, 2, trs))-1), ErrBadFrame},
		{"records past capacity", TypeRecords, AppendFrame(nil, big)[HeaderSize:], ErrSlabFull},
		// Capacity is judged before the CRC: a frame that cannot fit is
		// retried on a fresh slab, so its checksum is not this slab's work.
		{"sealed past capacity, crc also bad", TypeSealed, flipped(AppendSealed(nil, 0, big), HeaderSize+9), ErrSlabFull},
	}
	fills := []struct {
		name string
		fill func(*Slab)
	}{
		{"empty", func(*Slab) {}},
		{"half full, no lane", func(s *Slab) {
			for i := 0; i < SlabCap/2; i++ {
				s.Append(recs[0])
			}
		}},
		{"half full, lane", func(s *Slab) {
			for i := 0; i < SlabCap/2; i++ {
				s.AppendTraced(trs[0])
			}
		}},
	}
	for _, f := range fills {
		for _, c := range cases {
			s := NewSlabPool(1).Get()
			f.fill(s)
			if c.want == ErrSlabFull && s.Len() == 0 {
				continue // half a slab of records always fits an empty slab
			}
			n, lane := s.Len(), s.Ctxs != nil
			_, err := s.AppendBatch(c.ftype, c.payload)
			if !errors.Is(err, c.want) {
				t.Errorf("%s / %s: err = %v, want %v", f.name, c.name, err, c.want)
			}
			if s.Len() != n || (s.Ctxs != nil) != lane || (lane && len(s.Ctxs) != n) {
				t.Errorf("%s / %s: slab went from (%d records, lane %v) to (%d records, lane %v, %d ctxs)",
					f.name, c.name, n, lane, s.Len(), s.Ctxs != nil, len(s.Ctxs))
			}
			s.Release()
		}
	}
}

// decodeBatch runs the one decoder on a fresh slab and returns what it
// read as traced records (zero contexts when the frame had no lane).
func decodeBatch(ftype uint8, payload []byte) (BatchHeader, []TracedRecord, error) {
	s := NewSlabPool(1).Get()
	defer s.Release()
	h, err := s.AppendBatch(ftype, payload)
	if err != nil {
		return h, nil, err
	}
	trs := make([]TracedRecord, s.Len())
	for i := range trs {
		trs[i].Record = s.Recs[i]
		if s.Ctxs != nil {
			trs[i].Ctx = s.Ctxs[i]
		}
	}
	return h, trs, nil
}

func checkRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSlabKeep(t *testing.T) {
	pool := NewSlabPool(1)
	s := pool.Get()
	defer s.Release()
	recs := slabRecords(10)
	for i, r := range recs {
		s.AppendTraced(TracedRecord{Record: r, Ctx: TraceContext{ID: uint64(i + 1)}})
	}
	if n := s.Keep([][2]int{{0, 10}}); n != 10 || s.Recs[9] != recs[9] {
		t.Fatalf("Keep of everything left %d records", n)
	}
	// Records 1–2 and 6–8 are kept, in order, contexts alongside.
	if n := s.Keep([][2]int{{1, 3}, {6, 9}}); n != 5 || s.Len() != 5 || len(s.Ctxs) != 5 {
		t.Fatalf("Keep returned %d, len %d, ctxs %d; want 5", n, s.Len(), len(s.Ctxs))
	}
	for i, want := range []int{1, 2, 6, 7, 8} {
		if s.Recs[i] != recs[want] || s.Ctxs[i].ID != uint64(want+1) {
			t.Errorf("record %d = %+v ctx %d, want %+v ctx %d", i, s.Recs[i], s.Ctxs[i].ID, recs[want], want+1)
		}
	}
	if n := s.Keep(nil); n != 0 || s.Len() != 0 {
		t.Errorf("Keep(nil) left %d records", s.Len())
	}
}

// TestSlabPartition checks the counting sort: per-shard contiguous
// groups, victim grouping within each group, invalid records moved to
// the tail, and the record multiset preserved.
func TestSlabPartition(t *testing.T) {
	const numNodes, nshards = 16, 4
	pool := NewSlabPool(1)
	s := pool.Get()
	defer s.Release()

	victims := []topology.NodeID{5, 1, 9, 5, 13, 1, 2, 5, 9, 6, 1}
	for i, v := range victims {
		s.AppendTraced(TracedRecord{
			Record: Record{T: eventq.Time(i), Topo: testTopoID, Victim: v, MF: uint16(i)},
			Ctx:    TraceContext{ID: uint64(i + 1)},
		})
	}
	// Invalid: wrong topo, victim out of range, negative victim.
	s.AppendTraced(TracedRecord{Record: Record{T: 100, Topo: testTopoID + 1, Victim: 3}, Ctx: TraceContext{ID: 100}})
	s.AppendTraced(TracedRecord{Record: Record{T: 101, Topo: testTopoID, Victim: numNodes}, Ctx: TraceContext{ID: 101}})
	s.AppendTraced(TracedRecord{Record: Record{T: 102, Topo: testTopoID, Victim: -1}, Ctx: TraceContext{ID: 102}})
	total := s.Len()

	groups, valid := s.Partition(testTopoID, numNodes, nshards)
	if valid != len(victims) {
		t.Fatalf("valid = %d, want %d", valid, len(victims))
	}

	// Groups tile [0, valid) and stay shard-pure, victim-grouped.
	covered := 0
	seenVictim := make(map[topology.NodeID]bool)
	for _, g := range groups {
		if g.Start != covered {
			t.Fatalf("group %+v does not start where the last ended (%d)", g, covered)
		}
		covered = g.End
		var prev topology.NodeID = -1
		for i := g.Start; i < g.End; i++ {
			v := s.Recs[i].Victim
			if int(v)%nshards != g.Shard {
				t.Fatalf("record %d (victim %d) in shard-%d group", i, v, g.Shard)
			}
			if v != prev {
				if seenVictim[v] {
					t.Fatalf("victim %d split across non-adjacent runs", v)
				}
				seenVictim[v] = true
				prev = v
			}
		}
	}
	if covered != valid {
		t.Fatalf("groups cover [0,%d), want [0,%d)", covered, valid)
	}

	// Tail holds exactly the invalid records.
	for i := valid; i < total; i++ {
		if s.Ctxs[i].ID < 100 {
			t.Errorf("tail slot %d holds valid record (ctx %d)", i, s.Ctxs[i].ID)
		}
	}

	// Ctxs moved with their records, and the multiset is intact.
	seen := make(map[uint64]eventq.Time)
	for i, r := range s.Recs {
		if s.Ctxs[i].ID == 0 {
			t.Fatalf("record %d lost its ctx", i)
		}
		seen[s.Ctxs[i].ID] = r.T
	}
	if len(seen) != total {
		t.Fatalf("scatter kept %d distinct ctxs, want %d", len(seen), total)
	}
	for id, tt := range seen {
		if eventq.Time(id-1) != tt && id < 100 {
			t.Errorf("ctx %d landed on record T=%d", id, tt)
		}
	}

	// A second partition on the same slab must work (double buffers).
	groups2, valid2 := s.Partition(testTopoID, numNodes, nshards)
	if valid2 != valid || len(groups2) != len(groups) {
		t.Fatalf("re-partition: valid %d groups %d, want %d/%d", valid2, len(groups2), valid, len(groups))
	}
}

// FuzzSlabPartition checks Partition against a reference: a stable
// sort of the valid records by (shard, first touch of the victim),
// then the invalid ones in their original order. The input's first
// byte picks the shard count (1–8), whether the slab carries a trace
// lane (0x80) and whether the records repeat until the slab is full
// (0x40); every following three bytes are one record — a kind
// (foreign topology, negative victim, victim past the fabric, or
// valid) and 16 bits of victim id over a 16-cube's 2¹⁶ nodes, moved
// by 4 099 on each repeat so a full slab holds distinct victims.
func FuzzSlabPartition(f *testing.F) {
	f.Add([]byte{3, 3, 0, 5, 3, 0, 1, 0, 0, 2, 0, 3, 9, 0, 3, 5, 0, 4, 5, 0})
	f.Add([]byte{0x84, 3, 1, 0, 3, 1, 0, 0, 7, 7, 1, 7, 7, 2, 7, 7, 3, 2, 0})
	f.Add([]byte{0x43, 3, 1, 0})                            // a scan: SlabCap distinct victims
	f.Add([]byte{0xC7, 3, 1, 0, 3, 1, 0, 2, 9, 9, 3, 2, 0}) // full, traced, mixed
	pool := NewSlabPool(1)                                  // one slab, recycled: its scratch is 256 KB
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		const numNodes = 1 << 16
		nshards, traced, fill := 1+int(in[0]&7), in[0]&0x80 != 0, in[0]&0x40 != 0
		spec := in[1:]
		count := len(spec) / 3
		if fill && count > 0 {
			count = SlabCap
		}
		count = min(count, SlabCap)
		s := pool.Get()
		defer s.Release()
		for i := 0; i < count; i++ {
			b := spec[3*(i%(len(spec)/3)):]
			r := Record{
				T: eventq.Time(i), Topo: testTopoID,
				Victim: (topology.NodeID(b[1]) | topology.NodeID(b[2])<<8 + topology.NodeID(i/(len(spec)/3))*4099) % numNodes,
			}
			switch b[0] % 8 {
			case 0:
				r.Topo++
			case 1:
				r.Victim = -1 - r.Victim
			case 2:
				r.Victim += numNodes
			}
			if traced {
				s.AppendTraced(TracedRecord{Record: r, Ctx: TraceContext{ID: uint64(i) + 1}})
			} else {
				s.Append(r)
			}
		}
		n := s.Len()

		// The reference order, as indices into the appended sequence.
		ok := func(r Record) bool { return r.Topo == testTopoID && r.Victim >= 0 && r.Victim < numNodes }
		first := map[topology.NodeID]int{}
		var want, tail []int
		for i, r := range s.Recs {
			if !ok(r) {
				tail = append(tail, i)
				continue
			}
			if _, seen := first[r.Victim]; !seen {
				first[r.Victim] = i
			}
			want = append(want, i)
		}
		orig := append([]Record(nil), s.Recs...)
		key := func(i int) [2]int { return [2]int{int(orig[i].Victim) % nshards, first[orig[i].Victim]} }
		slices.SortStableFunc(want, func(a, b int) int {
			ka, kb := key(a), key(b)
			if ka[0] != kb[0] {
				return ka[0] - kb[0]
			}
			return ka[1] - kb[1]
		})
		var wantGroups []ShardGroup
		for i, idx := range want {
			sh := int(orig[idx].Victim) % nshards
			if g := len(wantGroups) - 1; g >= 0 && wantGroups[g].Shard == sh {
				wantGroups[g].End++
			} else {
				wantGroups = append(wantGroups, ShardGroup{Shard: sh, Start: i, End: i + 1})
			}
		}
		want = append(want, tail...)

		groups, valid := s.Partition(testTopoID, numNodes, nshards)
		if valid != n-len(tail) {
			t.Fatalf("valid = %d, want %d", valid, n-len(tail))
		}
		if !slices.Equal(groups, wantGroups) {
			t.Fatalf("groups %v, want %v", groups, wantGroups)
		}
		if s.Len() != n || (s.Ctxs != nil) != (traced && n > 0) {
			t.Fatalf("after Partition: %d records, lane %v; want %d, %v", s.Len(), s.Ctxs != nil, n, traced && n > 0)
		}
		for i, idx := range want {
			if s.Recs[i] != orig[idx] {
				t.Fatalf("slot %d holds %+v, want record %d %+v", i, s.Recs[i], idx, orig[idx])
			}
			if traced && s.Ctxs[i].ID != uint64(s.Recs[i].T)+1 {
				t.Fatalf("slot %d: record %d beside context %d", i, s.Recs[i].T, s.Ctxs[i].ID)
			}
		}

		groups = slices.Clone(groups)
		parted := slices.Clone(s.Recs)
		groups2, valid2 := s.Partition(testTopoID, numNodes, nshards)
		if valid2 != valid || !slices.Equal(groups2, groups) || !slices.Equal(s.Recs, parted) {
			t.Fatalf("a second Partition moved the slab: valid %d → %d, groups %v → %v", valid, valid2, groups, groups2)
		}
	})
}

// BenchmarkSlabPartitionSweep partitions 1 024 records of distinct
// hypercube-16 victims over 4 shards: a slab of a destination scan.
// Each op restores the arrival order first (a 1 024-record copy), so
// every Partition sees the victims shuffled, as a decoded slab has them.
func BenchmarkSlabPartitionSweep(b *testing.B) {
	const numNodes, nshards, n = 1 << 16, 4, 1024
	pool := NewSlabPool(1)
	s := pool.Get()
	defer s.Release()
	for i, v := range rand.New(rand.NewSource(1)).Perm(numNodes)[:n] {
		s.Append(Record{T: eventq.Time(i), Topo: testTopoID, Victim: topology.NodeID(v)})
	}
	arrival := slices.Clone(s.Recs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s.Recs, arrival)
		s.Partition(testTopoID, numNodes, nshards)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
}

func TestSlabPoolReuseAndOutstanding(t *testing.T) {
	pool := NewSlabPool(4)
	s := pool.Get()
	if got := pool.Outstanding(); got != 1 {
		t.Fatalf("outstanding after Get = %d, want 1", got)
	}
	s.Append(Record{Topo: testTopoID})
	s.Release()
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("outstanding after Release = %d, want 0", got)
	}
	s2 := pool.Get()
	if s2 != s {
		t.Error("pool did not recycle the released slab")
	}
	if s2.Len() != 0 {
		t.Errorf("recycled slab not reset: len %d", s2.Len())
	}

	// Refcount: retain per handed-out view, last release recycles.
	s2.Retain()
	s2.Retain()
	s2.Release()
	s2.Release()
	if got := pool.Outstanding(); got != 1 {
		t.Fatalf("outstanding with one ref left = %d, want 1", got)
	}
	s2.Release()
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("outstanding after final release = %d, want 0", got)
	}
}

// TestSlabConcurrentStress exercises the pool and refcounts across
// goroutines; run under -race it checks the handoff discipline: fill
// and partition single-goroutine, then hand read-only views around.
func TestSlabConcurrentStress(t *testing.T) {
	pool := NewSlabPool(8)
	recs := slabRecords(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				s := pool.Get()
				for _, r := range recs {
					s.Append(r)
				}
				groups, valid := s.Partition(testTopoID, 7, 3)
				if valid != len(recs) {
					t.Errorf("valid = %d, want %d", valid, len(recs))
				}
				var inner sync.WaitGroup
				for _, g := range groups {
					s.Retain()
					view := s.Recs[g.Start:g.End]
					inner.Add(1)
					go func() {
						defer inner.Done()
						var sum eventq.Time
						for _, r := range view {
							sum += r.T
						}
						_ = sum
						s.Release()
					}()
				}
				inner.Wait()
				s.Release()
			}
		}(w)
	}
	wg.Wait()
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("outstanding after stress = %d, want 0 (slab leak)", got)
	}
}

func TestClientRejectsOversizeMaxBatch(t *testing.T) {
	if _, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", MaxBatch: MaxRecords(TypeSealed) + 1}); err == nil {
		t.Error("MaxBatch over the sealed-frame cap accepted")
	}
	if _, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", MaxBatch: MaxRecords(TypeTracedSealed) + 1, Trace: true}); err == nil {
		t.Error("traced MaxBatch over the traced sealed-frame cap accepted")
	}
	if _, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", MaxBatch: MaxRecords(TypeForwarded) + 1, ForwardOrigin: 1}); err == nil {
		t.Error("forwarding MaxBatch over the forwarded-frame cap accepted")
	}
	if _, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", MaxBatch: MaxRecords(TypeTracedForwarded) + 1, ForwardOrigin: 1, Trace: true}); err == nil {
		t.Error("traced forwarding MaxBatch over the traced forwarded-frame cap accepted")
	}
	if c, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", MaxBatch: MaxRecords(TypeSealed)}); err != nil {
		t.Errorf("MaxBatch at the cap rejected: %v", err)
	} else {
		c.Close()
	}
}
