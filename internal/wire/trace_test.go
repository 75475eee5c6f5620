package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net"
	"sync"
	"testing"
	"time"
)

// appendTraced encodes traced records as one frame of a traced type,
// through the encoder every frame type shares.
func appendTraced(b []byte, ftype uint8, origin, seq uint64, trs []TracedRecord) []byte {
	recs, ctxs := splitTraced(trs)
	return appendBatch(b, ftype, origin, seq, recs, ctxs)
}

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{},
		{ID: 1, Sent: 2},
		{ID: ^uint64(0), Sent: -1},
		{ID: 0xDEADBEEF, Sent: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).UnixNano()},
	}
	trs := make([]TracedRecord, len(cases))
	for i, tc := range cases {
		trs[i] = TracedRecord{Record: Record{MF: uint16(i)}, Ctx: tc}
	}
	b := appendTraced(nil, TypeTracedRecords, 0, 0, trs)
	if got, want := len(b), HeaderSize+len(cases)*(RecordSize+TraceCtxSize); got != want {
		t.Fatalf("encoded %d bytes, want %d", got, want)
	}
	_, got, err := decodeBatch(TypeTracedRecords, b[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		if got[i].Ctx != tc {
			t.Fatalf("round trip %+v -> %+v", tc, got[i].Ctx)
		}
	}
	if _, _, err := decodeBatch(TypeTracedRecords, b[HeaderSize:len(b)-1]); err == nil {
		t.Fatal("short trace context decoded")
	}
}

func testTracedRecords() []TracedRecord {
	return []TracedRecord{
		{Record: Record{T: 1, Topo: 2, Victim: 3, MF: 4, Src: 5, Proto: 6}, Ctx: TraceContext{ID: 7, Sent: 8}},
		{Record: Record{T: 9, Topo: 2, Victim: 1, MF: 0xA5A5, Src: 11, Proto: 17}},
		{Record: Record{MF: 1}, Ctx: TraceContext{ID: ^uint64(0), Sent: -5}},
	}
}

func TestTracedFrameRoundTrip(t *testing.T) {
	want := testTracedRecords()
	b := appendTraced(nil, TypeTracedRecords, 0, 0, want)
	s := NewSlabPool(1).Get()
	defer s.Release()
	consumed, err := s.AppendDatagramFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(b) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(b))
	}
	if s.Len() != len(want) {
		t.Fatalf("decoded %d records, want %d", s.Len(), len(want))
	}
	for i := range want {
		if got := (TracedRecord{Record: s.Recs[i], Ctx: s.Ctxs[i]}); got != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got, want[i])
		}
	}
}

func TestParseAnyFrameLegacyRecordsGetZeroContext(t *testing.T) {
	recs := []Record{{T: 1, MF: 2}, {T: 3, MF: 4}}
	b := AppendFrame(nil, recs)
	s := NewSlabPool(1).Get()
	defer s.Release()
	if _, err := s.AppendDatagramFrame(b); err != nil {
		t.Fatal(err)
	}
	if s.Ctxs != nil {
		t.Fatal("legacy frame materialized a trace lane")
	}
	r := newRecordReader(bytes.NewReader(b))
	for i := range recs {
		tr, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Ctx != (TraceContext{}) {
			t.Fatalf("record %d: legacy frame produced context %+v", i, tr.Ctx)
		}
		if tr.Record != recs[i] || s.Recs[i] != recs[i] {
			t.Fatalf("record %d: got %+v / %+v want %+v", i, tr.Record, s.Recs[i], recs[i])
		}
	}
}

func TestTracedSealedRoundTrip(t *testing.T) {
	want := testTracedRecords()
	b := AppendTracedSealed(nil, 42, want)
	payload := b[HeaderSize:]
	h, got, err := decodeBatch(TypeTracedSealed, payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seq != 42 {
		t.Fatalf("seq = %d, want 42", h.Seq)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Any flipped byte must fail the CRC.
	corrupt := append([]byte(nil), payload...)
	corrupt[9] ^= 0x40
	if _, _, err := decodeBatch(TypeTracedSealed, corrupt); err == nil {
		t.Fatal("corrupted traced sealed payload parsed")
	}
}

func TestHelloAckFlagLayouts(t *testing.T) {
	// flags == 0 encodes as the byte-identical legacy layouts: no flags
	// word, the CRC straight after the last field.
	legacy := func(ftype uint8, words ...uint64) []byte {
		b := appendHeader(nil, ftype, len(words)*8+4)
		for _, w := range words {
			b = binary.BigEndian.AppendUint64(b, w)
		}
		return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[HeaderSize:]))
	}
	if got, want := AppendHello(nil, 7, 9, 0), legacy(TypeHello, 7, 9); !bytes.Equal(got, want) {
		t.Fatalf("flagless hello %x != legacy hello %x", got, want)
	}
	if got, want := AppendAck(nil, 5, 0), legacy(TypeAck, 5); !bytes.Equal(got, want) {
		t.Fatalf("flagless ack %x != legacy ack %x", got, want)
	}

	// Extended layouts round-trip stream id, base and flags.
	hb := AppendHello(nil, 7, 9, HelloFlagTrace)
	stream, base, flags, err := ParseHello(hb[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if stream != 7 || base != 9 || flags != HelloFlagTrace {
		t.Fatalf("extended hello decoded (%d, %d, %#x)", stream, base, flags)
	}
	ab := AppendAck(nil, 11, HelloFlagTrace)
	count, aflags, err := ParseAck(ab[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if count != 11 || aflags != HelloFlagTrace {
		t.Fatalf("extended ack decoded (%d, %#x)", count, aflags)
	}

	// Legacy payloads parse as flags 0.
	if stream, base, flags, err := ParseHello(legacy(TypeHello, 3, 4)[HeaderSize:]); err != nil || stream != 3 || base != 4 || flags != 0 {
		t.Fatalf("legacy hello decoded (%d, %d, %#x), err %v", stream, base, flags, err)
	}
	if count, flags, err := ParseAck(legacy(TypeAck, 6)[HeaderSize:]); err != nil || count != 6 || flags != 0 {
		t.Fatalf("legacy ack decoded (%d, %#x), err %v", count, flags, err)
	}

	// Corrupt extended CRCs are rejected.
	hb[HeaderSize] ^= 0x01
	if _, _, _, err := ParseHello(hb[HeaderSize:]); err == nil {
		t.Fatal("corrupted extended hello parsed")
	}
	ab[HeaderSize] ^= 0x01
	if _, _, err := ParseAck(ab[HeaderSize:]); err == nil {
		t.Fatal("corrupted extended ack parsed")
	}
}

// TestReaderNextTracedMixedStream interleaves every record-bearing
// frame type on one stream: ReadFrame and the slab decoder must deliver
// all records in order, with contexts only where the wire carried them.
func TestReaderNextTracedMixedStream(t *testing.T) {
	traced := testTracedRecords()
	plain := []Record{{T: 100, MF: 1}, {T: 101, MF: 2}}
	var stream []byte
	stream = AppendFrame(stream, plain)
	stream = appendTraced(stream, TypeTracedRecords, 0, 0, traced)
	stream = AppendSealed(stream, 0, plain)
	stream = AppendTracedSealed(stream, 2, traced)

	r := newRecordReader(bytes.NewReader(stream))
	var got []TracedRecord
	for {
		tr, err := r.next()
		if err != nil {
			break
		}
		got = append(got, tr)
	}
	var want []TracedRecord
	for _, rec := range plain {
		want = append(want, TracedRecord{Record: rec})
	}
	want = append(want, traced...)
	for _, rec := range plain {
		want = append(want, TracedRecord{Record: rec})
	}
	want = append(want, traced...)
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// traceServer is a minimal session server that can either honor or
// ignore the trace hello flag, recording which frame types and trace
// ids arrive.
type traceServer struct {
	t         *testing.T
	ln        net.Listener
	echoTrace bool

	mu     sync.Mutex
	count  uint64
	got    []TracedRecord
	ftypes map[uint8]int
}

func startTraceServer(t *testing.T, echoTrace bool) *traceServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &traceServer{t: t, ln: ln, echoTrace: echoTrace, ftypes: make(map[uint8]int)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.handle(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *traceServer) handle(conn net.Conn) {
	defer conn.Close()
	r := NewReader(conn)
	var scratch []byte
	var ackFlags uint32
	ingest := func(seq uint64, batch []TracedRecord) uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if skip := int(s.count - seq); skip >= 0 && skip < len(batch) {
			s.got = append(s.got, batch[skip:]...)
			s.count = seq + uint64(len(batch))
		}
		return s.count
	}
	for {
		ftype, payload, err := r.ReadFrame()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.ftypes[ftype]++
		s.mu.Unlock()
		switch ftype {
		case TypeHello:
			_, base, flags, err := ParseHello(payload)
			if err != nil {
				return
			}
			if s.echoTrace {
				ackFlags = flags & HelloFlagTrace
			}
			s.mu.Lock()
			if s.count < base {
				s.count = base
			}
			c := s.count
			s.mu.Unlock()
			scratch = AppendAck(scratch[:0], c, ackFlags)
			if _, err := conn.Write(scratch); err != nil {
				return
			}
		case TypeSealed, TypeTracedSealed:
			h, batch, err := decodeBatch(ftype, payload)
			if err != nil {
				return
			}
			scratch = AppendAck(scratch[:0], ingest(h.Seq, batch), ackFlags)
			if _, err := conn.Write(scratch); err != nil {
				return
			}
		default:
			return
		}
	}
}

func (s *traceServer) snapshot() (got []TracedRecord, ftypes map[uint8]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ft := make(map[uint8]int, len(s.ftypes))
	for k, v := range s.ftypes {
		ft[k] = v
	}
	return append([]TracedRecord(nil), s.got...), ft
}

// TestClientTraceNegotiation covers both halves of the handshake: a
// server that echoes the trace flag receives traced sealed frames with
// the deterministic SplitMix64 id sequence and one send stamp per Send,
// taken during that Send, and one that ignores the flag receives plain
// sealed frames — same records, no ids, no protocol error.
func TestClientTraceNegotiation(t *testing.T) {
	recs := []Record{{T: 1, MF: 10}, {T: 2, MF: 20}, {T: 3, MF: 30}}
	for _, echo := range []bool{true, false} {
		s := startTraceServer(t, echo)
		c, err := NewClient(ClientConfig{
			Addr: s.ln.Addr().String(), Seed: 7,
			MaxAttempts: 3, Trace: true,
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		before := time.Now().UnixNano()
		if err := c.Send(recs); err != nil {
			t.Fatal(err)
		}
		after := time.Now().UnixNano()
		if err := c.Close(); err != nil {
			t.Fatalf("echo=%v: close: %v", echo, err)
		}
		got, ftypes := s.snapshot()
		if len(got) != len(recs) {
			t.Fatalf("echo=%v: delivered %d records, want %d", echo, len(got), len(recs))
		}
		for i, tr := range got {
			if tr.Record != recs[i] {
				t.Fatalf("echo=%v: record %d: got %+v want %+v", echo, i, tr.Record, recs[i])
			}
			if echo {
				if want := SplitMix64(c.streamID ^ uint64(i+1)); tr.Ctx.ID != want {
					t.Fatalf("record %d: trace id %#x, want %#x", i, tr.Ctx.ID, want)
				}
				if tr.Ctx.Sent < before || tr.Ctx.Sent > after {
					t.Fatalf("record %d: sent %d outside its Send [%d, %d]", i, tr.Ctx.Sent, before, after)
				}
				if tr.Ctx.Sent != got[0].Ctx.Sent {
					t.Fatalf("record %d: sent %d, record 0 of the same Send %d", i, tr.Ctx.Sent, got[0].Ctx.Sent)
				}
			} else if tr.Ctx != (TraceContext{}) {
				t.Fatalf("record %d: context %+v on a non-negotiated session", i, tr.Ctx)
			}
		}
		if echo && ftypes[TypeTracedSealed] == 0 {
			t.Fatal("negotiated session sent no traced sealed frames")
		}
		if !echo && ftypes[TypeTracedSealed] != 0 {
			t.Fatal("non-negotiated session sent traced sealed frames")
		}
		if !echo && ftypes[TypeSealed] == 0 {
			t.Fatal("non-negotiated session sent no plain sealed frames")
		}
	}
}
