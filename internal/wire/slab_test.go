package wire

import (
	"errors"
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
		frame := AppendTracedFrame(nil, trs)
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
		traced := AppendTracedFrame(nil, []TracedRecord{{Record: recs[5], Ctx: TraceContext{ID: 99}}})
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
		two := AppendTracedFrame(one, []TracedRecord{{Record: recs[4], Ctx: TraceContext{ID: 3}}})
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
		{"traced forwarded crc, flip in the tail", TypeTracedForwarded, flipped(AppendTracedForwarded(nil, 1, 2, trs), len(AppendTracedForwarded(nil, 1, 2, trs))-1), ErrBadFrame},
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
