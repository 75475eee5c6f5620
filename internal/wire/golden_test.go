package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
)

// updateGolden rewrites testdata/frames.golden from the case table. A line that
// already exists is the wire format: if -update changes one, the change
// is a protocol break, not a test refresh.
var updateGolden = flag.Bool("update", false, "rewrite testdata/frames.golden")

const (
	goldenOrigin uint64 = 0xA1A2A3A4A5A6A7A8
	goldenSeq    uint64 = 0x0102030405060708
)

// goldenTraced builds n records in which every field — the sign bit of
// T, the high byte of every integer, all three context words — is set
// and distinct, so a swapped, truncated or misplaced field shows up in
// the hex.
func goldenTraced(n int) []TracedRecord {
	trs := make([]TracedRecord, n)
	for i := range trs {
		k := uint64(i + 1)
		trs[i] = TracedRecord{
			Record: Record{
				T:      eventq.Time(-int64(k) * 0x0101010101010101),
				Topo:   0xC0C1C2C3 + uint32(i),
				Victim: topology.NodeID(0x00D1D2D3 + i),
				MF:     0xE0E1 + uint16(i),
				Src:    packet.Addr(0xF0F1F2F3 + uint32(i)),
				Proto:  packet.Proto(0x11 * k),
			},
			Ctx: TraceContext{
				ID:     k * 0x1112131415161718,
				Sent:   int64(k * 0x2122232425262728),
				Routed: int64(k * 0x3132333435363738),
			},
		}
	}
	return trs
}

// goldenCase is one line of frames.golden: the frame the current
// encoders produce, and what the decoders must read back out of the
// checked-in bytes.
type goldenCase struct {
	name  string
	frame []byte

	// Batch frames: the decoded header, and which context words the
	// layout carries (nil lane / id+sent / id+sent+routed+origin).
	h    BatchHeader
	trs  []TracedRecord
	lane int // per-record context bytes on the wire
}

var goldenBody = []byte("opaque \x00\xff body")

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, n := range []int{0, 1, 3} {
		trs := goldenTraced(n)
		recs, _ := splitTraced(trs)
		sealed := BatchHeader{Seq: goldenSeq, Sealed: true}
		fwd := BatchHeader{Origin: goldenOrigin, Seq: goldenSeq, Sealed: true, Forwarded: true}
		cases = append(cases,
			goldenCase{name: fmt.Sprintf("records/%d", n), frame: AppendFrame(nil, recs), trs: trs},
			goldenCase{name: fmt.Sprintf("traced-records/%d", n), frame: appendTraced(nil, TypeTracedRecords, 0, 0, trs), trs: trs, lane: TraceCtxSize},
			goldenCase{name: fmt.Sprintf("sealed/%d", n), frame: AppendSealed(nil, goldenSeq, recs), h: sealed, trs: trs},
			goldenCase{name: fmt.Sprintf("traced-sealed/%d", n), frame: AppendTracedSealed(nil, goldenSeq, trs), h: sealed, trs: trs, lane: TraceCtxSize},
			goldenCase{name: fmt.Sprintf("forwarded/%d", n), frame: AppendForwarded(nil, goldenOrigin, goldenSeq, recs), h: fwd, trs: trs},
			goldenCase{name: fmt.Sprintf("traced-forwarded/%d", n), frame: appendTraced(nil, TypeTracedForwarded, goldenOrigin, goldenSeq, trs), h: fwd, trs: trs, lane: FwdCtxSize},
		)
	}
	return append(cases,
		goldenCase{name: "hello/legacy", frame: AppendHello(nil, goldenOrigin, goldenSeq, 0)},
		goldenCase{name: "hello/flags", frame: AppendHello(nil, goldenOrigin, goldenSeq, HelloFlagTrace|HelloFlagForward)},
		goldenCase{name: "ack/legacy", frame: AppendAck(nil, goldenSeq, 0)},
		goldenCase{name: "ack/flags", frame: AppendAck(nil, goldenSeq, HelloFlagTrace|HelloFlagForward)},
		goldenCase{name: "gossip", frame: AppendGossip(nil, goldenBody)},
	)
}

func readGolden(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	defer f.Close()
	lines := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line without a frame: %q", line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		lines[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestGoldenFrames pins the bytes on the wire. frames.golden was
// written by the per-type encoders this package had before they became
// rows of one layout table; every encoder must still produce its line
// byte for byte, and the decoders must read the checked-in bytes (not
// a fresh encoding) back to the records, contexts, origin and sequence
// number that went in.
func TestGoldenFrames(t *testing.T) {
	path := filepath.Join("testdata", "frames.golden")
	cases := goldenCases()
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("# One frame per line: case name, then the whole frame in hex.\n" +
			"# These bytes are the wire format. Append cases; never change a line.\n")
		for _, c := range cases {
			fmt.Fprintf(&buf, "%s %x\n", c.name, c.frame)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t, path)
	if len(golden) != len(cases) {
		t.Errorf("golden has %d lines, the case table %d", len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: no golden line", c.name)
			continue
		}
		if !bytes.Equal(c.frame, want) {
			t.Errorf("%s: encoder drifted from the wire\n got %x\nwant %x", c.name, c.frame, want)
		}
		ftype, n, err := checkHeader(want)
		if err != nil || HeaderSize+n != len(want) {
			t.Errorf("%s: header: type %d, payload %d of %d bytes, err %v", c.name, ftype, n, len(want)-HeaderSize, err)
			continue
		}
		payload := want[HeaderSize:]
		switch ftype {
		case TypeHello:
			id, base, flags, err := ParseHello(payload)
			wantFlags := uint32(0)
			if n == HelloTracePayloadSize {
				wantFlags = HelloFlagTrace | HelloFlagForward
			}
			if err != nil || id != goldenOrigin || base != goldenSeq || flags != wantFlags {
				t.Errorf("%s: decoded (%#x, %#x, %#x), err %v", c.name, id, base, flags, err)
			}
		case TypeAck:
			count, flags, err := ParseAck(payload)
			wantFlags := uint32(0)
			if n == AckTracePayloadSize {
				wantFlags = HelloFlagTrace | HelloFlagForward
			}
			if err != nil || count != goldenSeq || flags != wantFlags {
				t.Errorf("%s: decoded (%#x, %#x), err %v", c.name, count, flags, err)
			}
		case TypeGossip:
			if body, err := ParseGossip(payload); err != nil || !bytes.Equal(body, goldenBody) {
				t.Errorf("%s: body %q, err %v", c.name, body, err)
			}
		default:
			checkGoldenBatch(t, c, ftype, payload)
		}
	}
}

func checkGoldenBatch(t *testing.T, c goldenCase, ftype uint8, payload []byte) {
	t.Helper()
	s := NewSlabPool(1).Get()
	defer s.Release()
	h, err := s.AppendBatch(ftype, payload)
	if err != nil {
		t.Errorf("%s: decode: %v", c.name, err)
		return
	}
	if h != c.h {
		t.Errorf("%s: header %+v, want %+v", c.name, h, c.h)
	}
	if s.Len() != len(c.trs) {
		t.Errorf("%s: decoded %d records, want %d", c.name, s.Len(), len(c.trs))
		return
	}
	if (s.Ctxs != nil) != (c.lane != 0) {
		t.Errorf("%s: lane present = %v on a layout with %d context bytes", c.name, s.Ctxs != nil, c.lane)
		return
	}
	for i, tr := range c.trs {
		if s.Recs[i] != tr.Record {
			t.Errorf("%s: record %d = %+v, want %+v", c.name, i, s.Recs[i], tr.Record)
		}
		if c.lane == 0 {
			continue
		}
		want := TraceContext{ID: tr.Ctx.ID, Sent: tr.Ctx.Sent}
		if c.lane == FwdCtxSize {
			want.Routed, want.Origin = tr.Ctx.Routed, goldenOrigin
		}
		if s.Ctxs[i] != want {
			t.Errorf("%s: ctx %d = %+v, want %+v", c.name, i, s.Ctxs[i], want)
		}
	}
}
