package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/packet"
)

func fwdTestRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			T:      eventq.Time(123 + i),
			Topo:   0xAB12CD34,
			Victim: 7,
			MF:     uint16(i * 37),
			Src:    packet.Addr(0x0A000001 + i),
			Proto:  6,
		}
	}
	return recs
}

func TestForwardedRoundTrip(t *testing.T) {
	recs := fwdTestRecords(5)
	b := AppendForwarded(nil, 0xFEEDFACE, 42, recs)

	ftype, n, err := checkHeader(b)
	if err != nil {
		t.Fatalf("checkHeader: %v", err)
	}
	if ftype != TypeForwarded {
		t.Fatalf("frame type = %d, want %d", ftype, TypeForwarded)
	}
	h, out, err := decodeBatch(ftype, b[HeaderSize:HeaderSize+n])
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if want := (BatchHeader{Origin: 0xFEEDFACE, Seq: 42, Sealed: true, Forwarded: true}); h != want {
		t.Fatalf("header = %+v, want %+v", h, want)
	}
	if len(out) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(out), len(recs))
	}
	for i := range recs {
		if out[i] != (TracedRecord{Record: recs[i]}) {
			t.Fatalf("record %d = %+v, want %+v", i, out[i], recs[i])
		}
	}
}

func TestForwardedCorruptionDetected(t *testing.T) {
	b := AppendForwarded(nil, 1, 0, fwdTestRecords(3))
	b[HeaderSize+20] ^= 0xFF
	if _, _, err := decodeBatch(TypeForwarded, b[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupted forwarded frame parsed: err = %v", err)
	}
}

func TestForwardedSlabDecode(t *testing.T) {
	recs := fwdTestRecords(9)
	b := AppendForwarded(nil, 77, 13, recs)

	pool := NewSlabPool(1)
	s := pool.Get()
	defer s.Release()
	origin, seq, err := s.AppendForwardedPayload(b[HeaderSize:])
	if err != nil {
		t.Fatalf("AppendForwardedPayload: %v", err)
	}
	if origin != 77 || seq != 13 {
		t.Fatalf("origin/seq = %d/%d, want 77/13", origin, seq)
	}
	if len(s.Recs) != len(recs) {
		t.Fatalf("slab holds %d records, want %d", len(s.Recs), len(recs))
	}
}

func TestForwardedReaderUnwraps(t *testing.T) {
	recs := fwdTestRecords(4)
	b := AppendForwarded(nil, 5, 0, recs)
	r := newRecordReader(bytes.NewReader(b))
	for i := range recs {
		got, err := r.next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if got.Record != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Record, recs[i])
		}
	}
}

func TestGossipRoundTrip(t *testing.T) {
	body := []byte("anti-entropy delta payload")
	b := AppendGossip(nil, body)

	ftype, n, err := checkHeader(b)
	if err != nil {
		t.Fatalf("checkHeader: %v", err)
	}
	if ftype != TypeGossip {
		t.Fatalf("frame type = %d, want %d", ftype, TypeGossip)
	}
	got, err := ParseGossip(b[HeaderSize : HeaderSize+n])
	if err != nil {
		t.Fatalf("ParseGossip: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body = %q, want %q", got, body)
	}

	// Empty bodies are legal (pure heartbeat).
	if got, err := ParseGossip(AppendGossip(nil, nil)[HeaderSize:]); err != nil || len(got) != 0 {
		t.Fatalf("empty gossip: body %q, err %v", got, err)
	}
}

func TestGossipCorruptionDetected(t *testing.T) {
	b := AppendGossip(nil, []byte{1, 2, 3, 4})
	b[HeaderSize+1] ^= 0x80
	if _, err := ParseGossip(b[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupted gossip frame parsed: err = %v", err)
	}
	// A payload shorter than the CRC tail is rejected at the header.
	short := appendHeader(nil, TypeGossip, 2)
	if _, _, err := checkHeader(append(short, 0, 0)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("undersized gossip header accepted: err = %v", err)
	}
}

// TestReaderRejectsHandbackFrames: type 9, the retired handback frame,
// is an unknown type — a well-sealed one fails the read like any other
// bad frame, which is what lands a pre-change member's handback in its
// stored-replica fallback.
func TestReaderRejectsHandbackFrames(t *testing.T) {
	body := []byte("hb")
	frame := appendSeal(append(appendHeader(nil, 9, len(body)+crcSize), body...), HeaderSize)
	if _, _, err := NewReader(bytes.NewReader(frame)).ReadFrame(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("type-9 frame read: err = %v, want ErrBadFrame", err)
	}
}

// TestForwardClientNegotiation covers both server answers to a
// forwarding hello: an echoing server takes TypeForwarded frames, a
// refusing one fails the connection instead of silently accepting the
// records as first-hand ingest.
func TestForwardClientNegotiation(t *testing.T) {
	type result struct {
		origins []uint64
		recs    []Record
	}
	serve := func(t *testing.T, echo bool) (addr string, done <-chan result) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		ch := make(chan result, 1)
		go func() {
			defer ln.Close()
			var res result
			conn, err := ln.Accept()
			if err != nil {
				ch <- res
				return
			}
			defer conn.Close()
			rd := NewReader(conn)
			var accepted uint64
			for {
				ftype, payload, err := rd.ReadFrame()
				if err != nil {
					ch <- res
					return
				}
				switch ftype {
				case TypeHello:
					_, _, flags, err := ParseHello(payload)
					if err != nil {
						ch <- res
						return
					}
					var ack uint32
					if echo {
						ack = flags & HelloFlagForward
					}
					conn.Write(AppendAck(nil, accepted, ack))
				case TypeForwarded:
					h, trs, err := decodeBatch(ftype, payload)
					if err != nil {
						ch <- res
						return
					}
					res.origins = append(res.origins, h.Origin)
					for _, tr := range trs {
						res.recs = append(res.recs, tr.Record)
					}
					accepted += uint64(len(trs))
					conn.Write(AppendAck(nil, accepted, 0))
				}
			}
		}()
		return ln.Addr().String(), ch
	}

	t.Run("echoed", func(t *testing.T) {
		addr, done := serve(t, true)
		c, err := NewClient(ClientConfig{Addr: addr, ForwardOrigin: 0xABCD, MaxAttempts: 3})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		recs := fwdTestRecords(6)
		if err := c.Send(recs); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		c.Close()
		res := <-done
		if len(res.recs) != len(recs) {
			t.Fatalf("server saw %d records, want %d", len(res.recs), len(recs))
		}
		for _, o := range res.origins {
			if o != 0xABCD {
				t.Fatalf("origin %#x, want 0xabcd", o)
			}
		}
	})

	t.Run("refused", func(t *testing.T) {
		addr, done := serve(t, false)
		c, err := NewClient(ClientConfig{
			Addr: addr, ForwardOrigin: 0xABCD,
			MaxAttempts: 2, Sleep: func(time.Duration) {},
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		if err := c.Send(fwdTestRecords(2)); err != nil {
			t.Fatalf("Send should buffer without error, got %v", err)
		}
		if err := c.Flush(); err == nil {
			t.Fatal("Flush succeeded against a refusing server")
		}
		if got := c.Delivered(); got != 0 {
			t.Fatalf("Delivered = %d, want 0", got)
		}
		c.Close()
		res := <-done
		if len(res.recs) != 0 {
			t.Fatalf("refusing server still got %d records", len(res.recs))
		}
	})
}

func fwdTestTraced(n int) []TracedRecord {
	recs := fwdTestRecords(n)
	trs := make([]TracedRecord, n)
	for i, r := range recs {
		trs[i] = TracedRecord{Record: r, Ctx: TraceContext{
			ID:     uint64(0xC0FFEE00 + i),
			Sent:   int64(1000 + i),
			Routed: int64(2000 + i),
		}}
	}
	return trs
}

func TestTracedForwardedRoundTrip(t *testing.T) {
	trs := fwdTestTraced(5)
	b := appendTraced(nil, TypeTracedForwarded, 0xFEEDFACE, 42, trs)

	ftype, n, err := checkHeader(b)
	if err != nil {
		t.Fatalf("checkHeader: %v", err)
	}
	if ftype != TypeTracedForwarded {
		t.Fatalf("frame type = %d, want %d", ftype, TypeTracedForwarded)
	}
	h, out, err := decodeBatch(ftype, b[HeaderSize:HeaderSize+n])
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if want := (BatchHeader{Origin: 0xFEEDFACE, Seq: 42, Sealed: true, Forwarded: true}); h != want {
		t.Fatalf("header = %+v, want %+v", h, want)
	}
	if len(out) != len(trs) {
		t.Fatalf("decoded %d records, want %d", len(out), len(trs))
	}
	for i := range trs {
		want := trs[i]
		want.Ctx.Origin = 0xFEEDFACE // the decoder stamps the frame origin per record
		if out[i] != want {
			t.Fatalf("record %d = %+v, want %+v", i, out[i], want)
		}
	}
}

func TestTracedForwardedCorruptionDetected(t *testing.T) {
	b := appendTraced(nil, TypeTracedForwarded, 1, 0, fwdTestTraced(3))
	b[HeaderSize+30] ^= 0xFF
	if _, _, err := decodeBatch(TypeTracedForwarded, b[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupted traced forwarded frame parsed: err = %v", err)
	}
}

func TestTracedForwardedSlabDecode(t *testing.T) {
	trs := fwdTestTraced(9)
	b := appendTraced(nil, TypeTracedForwarded, 77, 13, trs)

	pool := NewSlabPool(1)
	s := pool.Get()
	defer s.Release()
	h, err := s.AppendBatch(TypeTracedForwarded, b[HeaderSize:])
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if h.Origin != 77 || h.Seq != 13 {
		t.Fatalf("origin/seq = %d/%d, want 77/13", h.Origin, h.Seq)
	}
	if len(s.Recs) != len(trs) || len(s.Ctxs) != len(trs) {
		t.Fatalf("slab holds %d records / %d ctxs, want %d", len(s.Recs), len(s.Ctxs), len(trs))
	}
	for i, tr := range trs {
		if s.Recs[i] != tr.Record {
			t.Fatalf("record %d = %+v, want %+v", i, s.Recs[i], tr.Record)
		}
		want := tr.Ctx
		want.Origin = 77
		if s.Ctxs[i] != want {
			t.Fatalf("ctx %d = %+v, want %+v", i, s.Ctxs[i], want)
		}
	}
}

// TestTracedForwardNegotiation covers the three server answers to a
// traced forwarding hello: both flags echoed → TypeTracedForwarded
// frames with contexts intact; forward-only echoed → downgrade to
// plain TypeForwarded (records delivered, contexts shed, the
// OnTraceDowngrade hook fired); no forward echo → hard failure as
// before.
func TestTracedForwardNegotiation(t *testing.T) {
	type result struct {
		tracedFrames int
		plainFrames  int
		trs          []TracedRecord
	}
	serve := func(t *testing.T, echoMask uint32) (addr string, done <-chan result) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		ch := make(chan result, 1)
		go func() {
			defer ln.Close()
			var res result
			conn, err := ln.Accept()
			if err != nil {
				ch <- res
				return
			}
			defer conn.Close()
			rd := NewReader(conn)
			var accepted uint64
			for {
				ftype, payload, err := rd.ReadFrame()
				if err != nil {
					ch <- res
					return
				}
				switch ftype {
				case TypeHello:
					_, _, flags, err := ParseHello(payload)
					if err != nil {
						ch <- res
						return
					}
					conn.Write(AppendAck(nil, accepted, flags&echoMask))
				case TypeTracedForwarded, TypeForwarded:
					_, trs, err := decodeBatch(ftype, payload)
					if err != nil {
						ch <- res
						return
					}
					if ftype == TypeTracedForwarded {
						res.tracedFrames++
					} else {
						res.plainFrames++
					}
					res.trs = append(res.trs, trs...)
					accepted += uint64(len(trs))
					conn.Write(AppendAck(nil, accepted, 0))
				}
			}
		}()
		return ln.Addr().String(), ch
	}

	t.Run("both-echoed", func(t *testing.T) {
		addr, done := serve(t, HelloFlagForward|HelloFlagTrace)
		c, err := NewClient(ClientConfig{Addr: addr, ForwardOrigin: 0xABCD, Trace: true, MaxAttempts: 3})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		trs := fwdTestTraced(6)
		if err := c.SendTraced(splitTraced(trs)); err != nil {
			t.Fatalf("SendTraced: %v", err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		c.Close()
		res := <-done
		if res.tracedFrames == 0 || res.plainFrames != 0 {
			t.Fatalf("frames traced=%d plain=%d, want traced only", res.tracedFrames, res.plainFrames)
		}
		if len(res.trs) != len(trs) {
			t.Fatalf("server saw %d records, want %d", len(res.trs), len(trs))
		}
		for i, tr := range trs {
			want := tr
			want.Ctx.Origin = 0xABCD
			if res.trs[i] != want {
				t.Fatalf("record %d = %+v, want %+v", i, res.trs[i], want)
			}
		}
	})

	t.Run("trace-downgraded", func(t *testing.T) {
		addr, done := serve(t, HelloFlagForward)
		downgrades := 0
		c, err := NewClient(ClientConfig{
			Addr: addr, ForwardOrigin: 0xABCD, Trace: true, MaxAttempts: 3,
			OnTraceDowngrade: func() { downgrades++ },
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		trs := fwdTestTraced(6)
		if err := c.SendTraced(splitTraced(trs)); err != nil {
			t.Fatalf("SendTraced: %v", err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		c.Close()
		res := <-done
		if res.plainFrames == 0 || res.tracedFrames != 0 {
			t.Fatalf("frames traced=%d plain=%d, want plain only", res.tracedFrames, res.plainFrames)
		}
		if len(res.trs) != len(trs) {
			t.Fatalf("server saw %d records, want %d (downgrade must not lose records)", len(res.trs), len(trs))
		}
		for i, tr := range trs {
			if res.trs[i].Record != tr.Record {
				t.Fatalf("record %d = %+v, want %+v", i, res.trs[i].Record, tr.Record)
			}
			if res.trs[i].Ctx != (TraceContext{}) {
				t.Fatalf("record %d kept a context across a downgrade: %+v", i, res.trs[i].Ctx)
			}
		}
		if downgrades == 0 {
			t.Fatal("OnTraceDowngrade never fired")
		}
	})

	t.Run("forward-refused", func(t *testing.T) {
		addr, done := serve(t, HelloFlagTrace)
		c, err := NewClient(ClientConfig{
			Addr: addr, ForwardOrigin: 0xABCD, Trace: true,
			MaxAttempts: 2, Sleep: func(time.Duration) {},
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		if err := c.SendTraced(splitTraced(fwdTestTraced(2))); err != nil {
			t.Fatalf("SendTraced should buffer without error, got %v", err)
		}
		if err := c.Flush(); err == nil {
			t.Fatal("Flush succeeded against a forward-refusing server")
		}
		if got := c.Delivered(); got != 0 {
			t.Fatalf("Delivered = %d, want 0", got)
		}
		c.Close()
		res := <-done
		if len(res.trs) != 0 {
			t.Fatalf("refusing server still got %d records", len(res.trs))
		}
	})
}
