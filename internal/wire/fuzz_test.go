package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
)

// FuzzRecordRoundTrip checks Append/Decode are exact inverses for any
// field values (the reserved byte is the only non-carried bit).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(0), uint32(0), uint32(0), uint16(0), uint32(0), uint8(0))
	f.Add(int64(-1), ^uint32(0), ^uint32(0), ^uint16(0), ^uint32(0), ^uint8(0))
	f.Add(int64(1<<40), TopoID("torus-16x16"), uint32(255), uint16(0xA5A5), uint32(0x0A000001), uint8(6))
	f.Fuzz(func(t *testing.T, tick int64, topo, victim uint32, mf uint16, src uint32, proto uint8) {
		r := Record{
			T: eventq.Time(tick), Topo: topo,
			Victim: topology.NodeID(victim), MF: mf,
			Src: packet.Addr(src), Proto: packet.Proto(proto),
		}
		b := AppendRecord(nil, r)
		got := decodeRecord(b)
		// NodeID is a signed int: the uint32 wire field round-trips
		// through the low 32 bits.
		r.Victim = topology.NodeID(uint32(r.Victim))
		if got != r {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	})
}

// clusterSeeds are the two cluster batch frames — whole, cut off inside
// a record or a context, and with one bit flipped under the CRC. The
// same bytes are checked in under testdata/fuzz/ (seed-*forwarded*),
// written there by the per-type encoders the layout table replaced.
// Two-record frames fill partFilled's slabs exactly; the three-record
// one does not fit them.
func clusterSeeds() [][]byte {
	trs := []TracedRecord{
		{Record: Record{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}, Ctx: TraceContext{ID: 7, Sent: 8, Routed: 9}},
		{Record: Record{T: 10, MF: 11}},
		{Record: Record{T: -1, Topo: 2, Victim: 1, MF: 0xA5A5, Src: 12, Proto: 17}, Ctx: TraceContext{ID: ^uint64(0), Sent: -5, Routed: 13}},
	}
	recs, _ := splitTraced(trs)
	fwd := AppendForwarded(nil, 0xF00D, 0, recs[:2])
	tfwd := appendTraced(nil, TypeTracedForwarded, 0xF00D, 2, trs[:2])
	flip := func(b []byte, off int) []byte {
		c := append([]byte(nil), b...)
		c[off] ^= 0x10
		return c
	}
	return [][]byte{
		fwd,
		tfwd,
		appendTraced(nil, TypeTracedForwarded, 0xF00D, 4, trs),
		fwd[:HeaderSize+16+RecordSize+7],
		tfwd[:HeaderSize+16+RecordSize+10],
		flip(fwd, HeaderSize+16+5),
		flip(tfwd, HeaderSize+16+RecordSize+3),
	}
}

// FuzzReader throws arbitrary bytes at the stream reader: it must
// never panic, must classify every failure as io.EOF or ErrBadFrame,
// and everything it does decode must re-encode to a parseable stream
// yielding the same records.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, nil))
	f.Add(AppendFrame(nil, []Record{{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}}))
	two := AppendFrame(nil, []Record{{MF: 1}, {MF: 2}})
	f.Add(append(two, AppendFrame(nil, []Record{{Victim: 9}})...))
	f.Add([]byte{0xD0, 0x5E, 1, 1, 0xFF, 0xFF})
	// Mid-stream garbage before a valid magic, and session frames.
	f.Add(append([]byte{0xDE, 0xAD, 0xD0, 0x00}, AppendFrame(nil, []Record{{MF: 3}})...))
	f.Add(append(AppendHello(nil, 7, 0, 0), AppendSealed(nil, 0, []Record{{MF: 4}})...))
	for _, seed := range clusterSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRecordReader(bytes.NewReader(data))
		var decoded []Record
		for len(decoded) < 1<<16 {
			rec, err := r.next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			decoded = append(decoded, rec.Record)
		}
		if len(decoded) == 0 {
			return
		}
		r2 := newRecordReader(bytes.NewReader(appendFrames(nil, decoded)))
		for i, want := range decoded {
			got, err := r2.next()
			if err != nil {
				t.Fatalf("re-decode record %d: %v", i, err)
			}
			if got.Record != want {
				t.Fatalf("re-decode record %d: got %+v want %+v", i, got.Record, want)
			}
		}
	})
}

// partFilled returns a slab with room for exactly two more records,
// with or without a trace lane, so frames of a few records reach the
// decoder's capacity edge and both of its back-fill branches.
func partFilled(lane bool) *Slab {
	s := NewSlabPool(1).Get()
	for s.Free() > 2 {
		if lane {
			s.AppendTraced(TracedRecord{Ctx: TraceContext{ID: 1}})
		} else {
			s.Append(Record{})
		}
	}
	return s
}

// checkAppendBatch feeds one frame ReadFrame accepted to a part-filled
// slab and checks the decoder's contract from outside: it fails with
// ErrSlabFull exactly when the frame's records outnumber the free
// slots, any failure leaves the slab as it was, and success grows it by
// exactly the frame's records with the lane still parallel.
func checkAppendBatch(t *testing.T, s *Slab, ftype uint8, payload []byte) {
	t.Helper()
	l, batch := layoutOf(ftype)
	if !batch {
		return
	}
	n := (len(payload) - l.overhead()) / l.rec // ReadFrame checked the alignment
	held, free, lane := s.Len(), s.Free(), s.Ctxs != nil
	_, err := s.AppendBatch(ftype, payload)
	switch {
	case (err == ErrSlabFull) != (n > free):
		t.Fatalf("type %d: %d records into %d free slots: err = %v", ftype, n, free, err)
	case err != nil:
		if s.Len() != held || (s.Ctxs != nil) != lane {
			t.Fatalf("type %d: failed decode (%v) moved the slab from %d records, lane %v to %d, lane %v",
				ftype, err, held, lane, s.Len(), s.Ctxs != nil)
		}
	case s.Len() != held+n || s.Len() > SlabCap:
		t.Fatalf("type %d: %d records grew the slab from %d to %d (cap %d)", ftype, n, held, s.Len(), SlabCap)
	case s.Ctxs != nil && len(s.Ctxs) != s.Len():
		t.Fatalf("type %d: lane has %d contexts beside %d records", ftype, len(s.Ctxs), s.Len())
	case s.Ctxs == nil && (lane || l.rec != RecordSize):
		t.Fatalf("type %d: slab lost or never grew its lane", ftype)
	}
}

// FuzzTraceContext throws arbitrary bytes at the stream reader and the
// slab decoder with trace lanes in play: they must never panic, must
// classify failures like FuzzReader, and every traced record they
// decode must re-encode to a byte-identical parse. Legacy frames
// (TypeRecords/TypeSealed, the pre-trace corpus shapes) must keep
// round-tripping with exactly zero trace contexts — the backward-compat
// contract of the extension. Every frame of the
// input is also decoded into part-filled slabs, where the reader's
// always-empty slab never goes.
func FuzzTraceContext(f *testing.F) {
	f.Add([]byte{})
	legacy := AppendFrame(nil, []Record{{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}})
	f.Add(legacy)
	f.Add(AppendSealed(nil, 0, []Record{{MF: 7}, {MF: 8}}))
	traced := []TracedRecord{
		{Record: Record{T: 1, MF: 2}, Ctx: TraceContext{ID: 3, Sent: 4}},
		{Record: Record{T: 5, MF: 6}},
	}
	f.Add(appendTraced(nil, TypeTracedRecords, 0, 0, traced))
	f.Add(AppendTracedSealed(nil, 9, traced))
	f.Add(append(AppendHello(nil, 1, 0, HelloFlagTrace), AppendTracedSealed(nil, 0, traced)...))
	f.Add(append(legacy, appendTraced(nil, TypeTracedRecords, 0, 0, traced)...))
	// Truncations and bit flips around the traced layouts.
	f.Add(appendTraced(nil, TypeTracedRecords, 0, 0, traced)[:HeaderSize+TracedRecordSize-1])
	damaged := AppendTracedSealed(nil, 9, traced)
	damaged[HeaderSize+10] ^= 0x80
	f.Add(damaged)
	for _, seed := range clusterSeeds() {
		f.Add(seed)
	}
	// Fuzz inputs run one at a time per process, so the slabs are shared.
	slabs := [2]*Slab{partFilled(false), partFilled(true)}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRecordReader(bytes.NewReader(data))
		var decoded []TracedRecord
		for len(decoded) < 1<<16 {
			tr, err := r.next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			// The hop lane (Routed, Origin) rides traced forwarded frames
			// only; the traced-records re-encode below carries id and sent.
			tr.Ctx = TraceContext{ID: tr.Ctx.ID, Sent: tr.Ctx.Sent}
			decoded = append(decoded, tr)
		}

		frames := NewReader(bytes.NewReader(data))
		for {
			ftype, payload, err := frames.ReadFrame()
			if err != nil {
				break
			}
			for _, s := range slabs {
				held, lane := s.Len(), s.Ctxs != nil
				checkAppendBatch(t, s, ftype, payload)
				// Back to part-filled for the next frame.
				s.Recs = s.Recs[:held]
				if lane {
					s.Ctxs = s.Ctxs[:held]
				} else {
					s.Ctxs = nil
				}
			}
		}

		if len(decoded) == 0 {
			return
		}
		// Re-encode everything as traced frames; the re-parse must be
		// exact, including the records that decoded with zero contexts.
		want := decoded[:min(len(decoded), MaxRecords(TypeTracedRecords))]
		_, got, err := decodeBatch(TypeTracedRecords, appendTraced(nil, TypeTracedRecords, 0, 0, want)[HeaderSize:])
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("re-parse record %d: got %+v want %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzResyncReader throws arbitrary bytes at the resync-enabled
// reader: it must never panic, must terminate (every resync consumes
// at least one byte), must never skip-count more bytes than exist, and
// whatever it decodes from frames embedded in garbage must round-trip.
func FuzzResyncReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xD0, 0xD0, 0x5E, 1, 1, 0x00})
	one := AppendFrame(nil, []Record{{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}})
	f.Add(append([]byte("mid-stream garbage"), one...))
	f.Add(append(append(append([]byte{}, one...), 0xFF, 0xD0, 0x5E, 0x00), one...))
	f.Add(append(AppendSealed(nil, 9, []Record{{MF: 8}}), 0xD0, 0x5E))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRecordReader(bytes.NewReader(data))
		r.EnableResync()
		decoded := 0
		for decoded < 1<<16 {
			_, err := r.next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			decoded++
		}
		if r.SkippedBytes() > uint64(len(data)) {
			t.Fatalf("skipped %d bytes of a %d-byte stream", r.SkippedBytes(), len(data))
		}
		if r.Resyncs() > uint64(len(data)) {
			t.Fatalf("%d resyncs on a %d-byte stream", r.Resyncs(), len(data))
		}
	})
}
