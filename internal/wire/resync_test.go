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

// plainRecords builds records whose encodings contain no 0xD0 byte, so
// resync scans cannot hit a false magic inside record payloads and the
// expected recovery point is exact.
func plainRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			T: eventq.Time(i % 100), Topo: 0x01020304,
			Victim: topology.NodeID(i % 64),
			MF:     uint16(i % 0x50),
			Src:    packet.AddrFrom4(10, 0, 1, byte(i)),
			Proto:  packet.ProtoTCPSYN,
		}
	}
	return recs
}

// TestReaderResyncAcrossCorruption corrupts one header byte of a
// mid-stream frame at every header offset and asserts the resync
// reader recovers every record of every later frame, with the damage
// visible in Resyncs/SkippedBytes.
func TestReaderResyncAcrossCorruption(t *testing.T) {
	const perFrame, frames, corruptFrame = 3, 10, 4
	recs := plainRecords(perFrame * frames)
	var stream []byte
	frameStart := make([]int, frames)
	for f := 0; f < frames; f++ {
		frameStart[f] = len(stream)
		stream = AppendFrame(stream, recs[f*perFrame:(f+1)*perFrame])
	}

	cases := map[string]struct {
		off  int  // byte offset within the corrupted frame's header
		flip byte // XOR mask
	}{
		"magic byte 0":      {0, 0xFF},
		"magic byte 1":      {1, 0xFF},
		"version":           {2, 0x10},
		"type":              {3, 0x60},
		"length misaligned": {5, 0x01}, // 72 -> 73, not a record multiple
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), stream...)
			b[frameStart[corruptFrame]+tc.off] ^= tc.flip

			r := newRecordReader(bytes.NewReader(b))
			r.EnableResync()
			var got []Record
			for {
				rec, err := r.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("resync reader died: %v", err)
				}
				got = append(got, rec.Record)
			}
			// Frames before the corruption arrive intact; the corrupted
			// frame is skipped; everything after is recovered.
			want := append(append([]Record(nil), recs[:corruptFrame*perFrame]...),
				recs[(corruptFrame+1)*perFrame:]...)
			if len(got) != len(want) {
				t.Fatalf("recovered %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
				}
			}
			if r.Resyncs() == 0 {
				t.Error("no resync counted")
			}
			if r.SkippedBytes() == 0 {
				t.Error("no skipped bytes counted")
			}
		})
	}
}

// TestReaderResyncThroughInjectedGarbage interleaves garbage runs
// between valid frames: every record survives, every garbage byte is
// accounted for.
func TestReaderResyncThroughInjectedGarbage(t *testing.T) {
	recs := plainRecords(12)
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42, 0x99}
	var b []byte
	var garbageBytes int
	for f := 0; f < 4; f++ {
		b = append(b, garbage...)
		garbageBytes += len(garbage)
		b = AppendFrame(b, recs[f*3:(f+1)*3])
	}
	b = append(b, garbage...) // trailing garbage runs into EOF
	garbageBytes += len(garbage)

	r := newRecordReader(bytes.NewReader(b))
	r.EnableResync()
	for i := range recs {
		rec, err := r.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Record != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, rec.Record, recs[i])
		}
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("want EOF after trailing garbage, got %v", err)
	}
	if got := r.SkippedBytes(); got != uint64(garbageBytes) {
		t.Errorf("skipped %d bytes, want %d", got, garbageBytes)
	}
	if got := r.Resyncs(); got != 5 {
		t.Errorf("resyncs = %d, want 5", got)
	}
}

// TestReaderWithoutResyncStillFailsHard pins the default contract:
// framing errors stay terminal unless resync is opted into.
func TestReaderWithoutResyncStillFailsHard(t *testing.T) {
	b := append([]byte{0xBA, 0xD0}, AppendFrame(nil, plainRecords(2))...)
	r := newRecordReader(bytes.NewReader(b))
	if _, err := r.next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
}

// TestReaderCapsEmptyFrameRuns is the regression test for the
// empty-frame spin: a peer streaming valid zero-record frames used to
// loop the reader forever with no progress or accounting. The cap covers
// every batch type — a zero-record sealed or forwarded frame is the
// same six-plus bytes of no progress, and on a session it would also
// earn an ack write per frame.
func TestReaderCapsEmptyFrameRuns(t *testing.T) {
	recs := plainRecords(2)
	for name, frame := range map[string]func(b []byte, recs []Record) []byte{
		"records":          AppendFrame,
		"traced records":   func(b []byte, recs []Record) []byte { return appendBatch(b, TypeTracedRecords, 0, 0, recs, nil) },
		"sealed":           func(b []byte, recs []Record) []byte { return AppendSealed(b, 0, recs) },
		"traced sealed":    func(b []byte, recs []Record) []byte { return appendBatch(b, TypeTracedSealed, 0, 0, recs, nil) },
		"forwarded":        func(b []byte, recs []Record) []byte { return AppendForwarded(b, 9, 0, recs) },
		"traced forwarded": func(b []byte, recs []Record) []byte { return appendBatch(b, TypeTracedForwarded, 9, 0, recs, nil) },
	} {
		var b []byte
		for i := 0; i < MaxEmptyFrames+1; i++ {
			b = frame(b, nil)
		}
		r := newRecordReader(bytes.NewReader(b))
		_, err := r.next()
		if !errors.Is(err, ErrEmptyFlood) || !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: empty-frame flood: got %v, want ErrEmptyFlood wrapping ErrBadFrame", name, err)
		}

		// Runs at or below the cap are tolerated, and a record frame
		// resets the run.
		b = b[:0]
		for i := 0; i < MaxEmptyFrames; i++ {
			b = frame(b, nil)
		}
		b = frame(b, recs[:1])
		for i := 0; i < MaxEmptyFrames; i++ {
			b = frame(b, nil)
		}
		b = frame(b, recs[1:])
		r = newRecordReader(bytes.NewReader(b))
		for i := range recs {
			rec, err := r.next()
			if err != nil {
				t.Fatalf("%s: record %d after empty runs: %v", name, i, err)
			}
			if rec.Record != recs[i] {
				t.Fatalf("%s: record %d: got %+v want %+v", name, i, rec.Record, recs[i])
			}
		}
		if _, err := r.next(); err != io.EOF {
			t.Fatalf("%s: want EOF, got %v", name, err)
		}
	}
}

func TestSessionFrameRoundTrips(t *testing.T) {
	// Hello.
	b := AppendHello(nil, 0xCAFEBABE, 42, 0)
	ftype, n, err := checkHeader(b)
	if err != nil || ftype != TypeHello || n != HelloPayloadSize {
		t.Fatalf("hello header: type=%d n=%d err=%v", ftype, n, err)
	}
	id, base, flags, err := ParseHello(b[HeaderSize:])
	if err != nil || id != 0xCAFEBABE || base != 42 || flags != 0 {
		t.Fatalf("hello round trip: id=%#x base=%d flags=%#x err=%v", id, base, flags, err)
	}

	// Ack.
	b = AppendAck(nil, 12345, 0)
	if ftype, _, err = checkHeader(b); err != nil || ftype != TypeAck {
		t.Fatalf("ack header: type=%d err=%v", ftype, err)
	}
	count, flags, err := ParseAck(b[HeaderSize:])
	if err != nil || count != 12345 || flags != 0 {
		t.Fatalf("ack round trip: count=%d flags=%#x err=%v", count, flags, err)
	}

	// Sealed.
	recs := plainRecords(5)
	b = AppendSealed(nil, 99, recs)
	if ftype, _, err = checkHeader(b); err != nil || ftype != TypeSealed {
		t.Fatalf("sealed header: type=%d err=%v", ftype, err)
	}
	h, got, err := decodeBatch(ftype, b[HeaderSize:])
	if err != nil || h.Seq != 99 || len(got) != len(recs) {
		t.Fatalf("sealed round trip: %d records, header %+v, err=%v", len(got), h, err)
	}
	for i := range recs {
		if got[i].Record != recs[i] {
			t.Fatalf("sealed record %d mismatch", i)
		}
	}
}

// TestSealedCRCDetectsCorruption flips each payload byte in turn: the
// CRC must reject every single-byte corruption — this is what keeps
// bit flips from being silently tallied as identifications.
func TestSealedCRCDetectsCorruption(t *testing.T) {
	frame := AppendSealed(nil, 7, plainRecords(3))
	for off := HeaderSize; off < len(frame); off++ {
		b := append([]byte(nil), frame...)
		b[off] ^= 0x20
		if _, _, err := decodeBatch(TypeSealed, b[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("corruption at byte %d not detected: %v", off, err)
		}
	}
	// Control frames are CRC-guarded too.
	hello := AppendHello(nil, 1, 2, 0)
	hello[HeaderSize] ^= 0x01
	if _, _, _, err := ParseHello(hello[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("hello corruption not detected: %v", err)
	}
	ack := AppendAck(nil, 3, 0)
	ack[HeaderSize] ^= 0x01
	if _, _, err := ParseAck(ack[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ack corruption not detected: %v", err)
	}
}

// TestNextSkipsControlFramesAndUnwrapsSealed: a record iterator over a
// mixed session stream sees exactly the records.
func TestNextSkipsControlFramesAndUnwrapsSealed(t *testing.T) {
	recs := plainRecords(6)
	var b []byte
	b = AppendHello(b, 1, 0, 0)
	b = AppendSealed(b, 0, recs[:4])
	b = AppendAck(b, 4, 0)
	b = AppendFrame(b, recs[4:])
	r := newRecordReader(bytes.NewReader(b))
	for i := range recs {
		rec, err := r.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Record != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, rec.Record, recs[i])
		}
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}
