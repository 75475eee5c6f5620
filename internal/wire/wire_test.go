package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
)

func sampleRecords(n int) []Record {
	topo := TopoID("torus-8x8")
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			T: eventq.Time(100 + i), Topo: topo,
			Victim: topology.NodeID(i % 64),
			MF:     uint16(i * 257),
			Src:    packet.AddrFrom4(10, 0, byte(i>>8), byte(i)),
			Proto:  packet.ProtoTCPSYN,
		}
	}
	return recs
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords(10) {
		b := AppendRecord(nil, r)
		if len(b) != RecordSize {
			t.Fatalf("encoded %d bytes, want %d", len(b), RecordSize)
		}
		got := decodeRecord(b)
		if got != r {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
}

// appendFrames appends recs as maximal TypeRecords frames, the plain
// stream an external exporter writes to the daemon's TCP listener.
func appendFrames(b []byte, recs []Record) []byte {
	for len(recs) > 0 {
		n := min(len(recs), MaxRecordsPerFrame)
		b = AppendFrame(b, recs[:n])
		recs = recs[n:]
	}
	return b
}

func TestFrameRoundTripAndStreamReader(t *testing.T) {
	recs := sampleRecords(2 * MaxRecordsPerFrame / 3 * 2) // forces 2 frames
	stream := appendFrames(nil, recs)
	if want := 2*HeaderSize + len(recs)*RecordSize; len(stream) != want {
		t.Fatalf("encoded %d bytes, want 2 frames in %d", len(stream), want)
	}
	r := newRecordReader(bytes.NewReader(stream))
	for i, want := range recs {
		got, err := r.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Record != want {
			t.Fatalf("record %d: got %+v want %+v", i, got.Record, want)
		}
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("want clean EOF at frame boundary, got %v", err)
	}
}

// recordReader reads a frame stream a record at a time through the
// decoder the daemon runs: ReadFrame, then Slab.AppendBatch for each
// batch frame into one reused slab. Control and gossip frames carry no
// records and are skipped.
type recordReader struct {
	*Reader
	s  *Slab
	at int
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{Reader: NewReader(r), s: NewSlabPool(1).Get()}
}

// next returns the next record with its context as the slab holds it:
// zero for an untraced frame, the hop lane included for a traced
// forwarded one.
func (rr *recordReader) next() (TracedRecord, error) {
	for rr.at >= rr.s.Len() {
		ftype, payload, err := rr.ReadFrame()
		if err != nil {
			return TracedRecord{}, err
		}
		if !IsBatch(ftype) {
			continue
		}
		rr.s.Reset()
		rr.at = 0
		if _, err := rr.s.AppendBatch(ftype, payload); err != nil {
			return TracedRecord{}, err
		}
	}
	tr := TracedRecord{Record: rr.s.Recs[rr.at]}
	if rr.s.Ctxs != nil {
		tr.Ctx = rr.s.Ctxs[rr.at]
	}
	rr.at++
	return tr, nil
}

// TestReadFrameAloneAllocatesNoSlab: server, client and gossip
// connections only ever call ReadFrame, so a Reader must not pay for a
// slab (≈ 107 KB): its caller decodes into its own.
func TestReadFrameAloneAllocatesNoSlab(t *testing.T) {
	stream := AppendSealed(nil, 0, sampleRecords(4))
	src := bytes.NewReader(stream)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(src)
	_, _, err := r.ReadFrame()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	slabBytes := uint64(SlabCap) * uint64(unsafe.Sizeof(Record{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > slabBytes/4 {
		t.Errorf("NewReader + ReadFrame allocated %d bytes; a slab is %d", got, slabBytes)
	}
}

func TestParseFrameDatagram(t *testing.T) {
	recs := sampleRecords(5)
	b := AppendFrame(nil, recs)
	s := NewSlabPool(1).Get()
	defer s.Release()
	n, err := s.AppendDatagramFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	checkRecords(t, s.Recs, recs)

	// Only the two bare batch types are datagram frames: every sealed
	// layout belongs to a session, control frames to a stream.
	for name, b := range map[string][]byte{
		"sealed":           AppendSealed(nil, 0, recs),
		"traced sealed":    AppendTracedSealed(nil, 0, nil),
		"forwarded":        AppendForwarded(nil, 1, 0, recs),
		"traced forwarded": appendTraced(nil, TypeTracedForwarded, 1, 0, nil),
		"hello":            AppendHello(nil, 1, 0, 0),
		"gossip":           AppendGossip(nil, nil),
	} {
		if n, err := s.AppendDatagramFrame(b); !errors.Is(err, ErrBadFrame) || n != 0 || s.Len() != len(recs) {
			t.Errorf("%s in a datagram: consumed %d, slab at %d records, err %v", name, n, s.Len(), err)
		}
	}
}

func TestFramingErrors(t *testing.T) {
	good := AppendFrame(nil, sampleRecords(2))
	cases := map[string][]byte{
		"short header":      good[:3],
		"bad magic":         append([]byte{0, 0}, good[2:]...),
		"bad version":       append(append([]byte{}, good[:2]...), append([]byte{99}, good[3:]...)...),
		"bad type":          append(append([]byte{}, good[:3]...), append([]byte{7}, good[4:]...)...),
		"misaligned length": append(append([]byte{}, good[:4]...), append([]byte{0, 5}, good[6:]...)...),
		"truncated payload": good[:HeaderSize+RecordSize-1],
	}
	s := NewSlabPool(1).Get()
	defer s.Release()
	for name, b := range cases {
		if _, err := s.AppendDatagramFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
	// Stream reader: EOF mid-frame must not look like a clean end.
	r := newRecordReader(bytes.NewReader(good[:HeaderSize+RecordSize-1]))
	if _, err := r.next(); !errors.Is(err, ErrBadFrame) {
		t.Errorf("stream truncation: want ErrBadFrame, got %v", err)
	}
}

func TestTopoIDStableAndDistinct(t *testing.T) {
	if TopoID("mesh-8x8") != TopoID("mesh-8x8") {
		t.Fatal("TopoID not deterministic")
	}
	if TopoID("mesh-8x8") == TopoID("torus-8x8") {
		t.Fatal("TopoID collision between distinct names")
	}
}

func TestReadJSONLNativeShape(t *testing.T) {
	in := `
{"t":5,"topo":"mesh-8x8","victim":63,"mf":513,"src":"10.0.0.7","proto":6}
# comment lines and blanks are skipped

{"victim":1,"mf":2}
`
	var got []Record
	n, err := ReadJSONL(strings.NewReader(in), JSONLConfig{Topo: TopoID("fallback"), Victim: topology.None},
		func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(got) != 2 {
		t.Fatalf("emitted %d records, want 2", n)
	}
	want0 := Record{T: 5, Topo: TopoID("mesh-8x8"), Victim: 63, MF: 513,
		Src: packet.AddrFrom4(10, 0, 0, 7), Proto: packet.ProtoTCPSYN}
	if got[0] != want0 {
		t.Fatalf("got %+v want %+v", got[0], want0)
	}
	if got[1].Topo != TopoID("fallback") || got[1].Proto != packet.ProtoRaw {
		t.Fatalf("defaults not applied: %+v", got[1])
	}
}

func TestReadJSONLTraceShapeFiltersVictim(t *testing.T) {
	// Two forward hops of one packet plus its inject line: only the
	// hop INTO node 5 is an observation at victim 5.
	in := `{"kind":"inject","seq":9,"node":0,"mf_in":0,"mf_out":0,"ttl":64,"src":"10.0.0.1","dst":"10.0.0.6"}
{"kind":"forward","seq":9,"cur":0,"next":1,"mf_in":0,"mf_out":1,"ttl":64,"src":"10.0.0.1","dst":"10.0.0.6"}
{"kind":"forward","seq":9,"cur":1,"next":5,"mf_in":1,"mf_out":2,"ttl":63,"src":"10.0.0.1","dst":"10.0.0.6"}`
	var got []Record
	topo := TopoID("mesh-2x4")
	n, err := ReadJSONL(strings.NewReader(in), JSONLConfig{Topo: topo, Victim: 5},
		func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("emitted %d records, want 1", n)
	}
	want := Record{T: 9, Topo: topo, Victim: 5, MF: 2,
		Src: packet.AddrFrom4(10, 0, 0, 1), Proto: packet.ProtoRaw}
	if got[0] != want {
		t.Fatalf("got %+v want %+v", got[0], want)
	}
}

func TestReadJSONLBadLineReportsLineNumber(t *testing.T) {
	in := "{\"victim\":1,\"mf\":2}\nnot json\n"
	_, err := ReadJSONL(strings.NewReader(in), JSONLConfig{Victim: topology.None}, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}
