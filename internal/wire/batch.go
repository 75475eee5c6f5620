package wire

// The batch codec. DDPM's premise is one record layout, so the six
// record-bearing frame types are not six formats: each is the same
// 24-byte records wrapped in up to three optional parts, and each is
// one row of the table below. The length rule in checkHeader, the
// per-type capacity, the encoder (appendBatch) and the decoder
// (Slab.AppendBatch) are all read off the row, so a new lane — a
// per-destination digest, a per-packet path signature — is a row, not
// another codec.

import (
	"encoding/binary"
	"fmt"
)

// batchLayout is one row of the frame table. A batch payload is
//
//	lead bytes | N × (record + context bytes) | crc32 when sealed
type batchLayout struct {
	name   string // for messages
	lead   int    // leading fields: 0, leadSeq or leadOriginSeq bytes
	rec    int    // bytes per record including its context; nonzero in every row
	sealed bool   // crc32 tail over everything in front of it
}

const (
	leadSeq       = 8  // seq(8): the cumulative index of the first record
	leadOriginSeq = 16 // origin(8) + seq(8): a cluster forward
)

// batchLayouts is indexed by frame type. Types with no row (control
// and opaque frames, unknown types) read as rec == 0. Bare records are
// a row with rec == RecordSize, not the zero row, so "nothing wraps the
// records" and "not a batch type" never look alike.
var batchLayouts = [...]batchLayout{
	TypeRecords:         {name: "records", rec: RecordSize},
	TypeTracedRecords:   {name: "traced records", rec: TracedRecordSize},
	TypeSealed:          {name: "sealed", lead: leadSeq, rec: RecordSize, sealed: true},
	TypeTracedSealed:    {name: "traced sealed", lead: leadSeq, rec: TracedRecordSize, sealed: true},
	TypeForwarded:       {name: "forwarded", lead: leadOriginSeq, rec: RecordSize, sealed: true},
	TypeTracedForwarded: {name: "traced forwarded", lead: leadOriginSeq, rec: TracedFwdRecordSize, sealed: true},
}

// layoutOf returns ftype's row; ok is false when ftype carries no
// records.
func layoutOf(ftype uint8) (l batchLayout, ok bool) {
	if int(ftype) < len(batchLayouts) {
		l = batchLayouts[ftype]
	}
	return l, l.rec != 0
}

// overhead is the non-record part of the payload.
func (l batchLayout) overhead() int {
	if l.sealed {
		return l.lead + crcSize
	}
	return l.lead
}

// count returns how many records an n-byte payload holds; ok is false
// when n is not the overhead plus a whole number of records.
func (l batchLayout) count(n int) (records int, ok bool) {
	n -= l.overhead()
	if n < 0 || n%l.rec != 0 {
		return 0, false
	}
	return n / l.rec, true
}

// IsBatch reports whether ftype is one of the record-bearing frame
// types, the ones Slab.AppendBatch decodes.
func IsBatch(ftype uint8) bool {
	_, ok := layoutOf(ftype)
	return ok
}

// MaxRecords is the record capacity of one frame of a batch type under
// the 16-bit payload length (0 for types that carry no records).
func MaxRecords(ftype uint8) int {
	l, ok := layoutOf(ftype)
	if !ok {
		return 0
	}
	return (MaxFramePayload - l.overhead()) / l.rec
}

// BatchHeader is the frame-level part of a decoded batch. Seq is the
// cumulative index of the first record in its stream and Origin the
// relaying instance's member id; both are zero on layouts that do not
// carry them. Sealed marks a session frame (sequence number and CRC
// tail: safe to dedup and ack), Forwarded a cluster forward (the sender
// already resolved ownership, so the records are processed here and
// never routed again).
type BatchHeader struct {
	Origin, Seq       uint64
	Sealed, Forwarded bool
}

// appendBatch appends one frame of any batch type holding recs: the
// one encoder. ctxs is the records' parallel trace lane, nil for
// all-zero contexts; layouts without context bytes ignore it, and the
// traced layouts write only the words they carry (id and sent, plus
// routed on a forward). origin and seq are written when the layout has
// them. It panics past the type's capacity — splitting is the Writer's
// and the Client's job.
func appendBatch(b []byte, ftype uint8, origin, seq uint64, recs []Record, ctxs []TraceContext) []byte {
	l, ok := layoutOf(ftype)
	if !ok {
		panic(fmt.Sprintf("wire: frame type %d carries no records", ftype))
	}
	if len(recs) > MaxRecords(ftype) {
		panic(fmt.Sprintf("wire: %d records exceed the %d-record limit of a %s frame", len(recs), MaxRecords(ftype), l.name))
	}
	b = appendHeader(b, ftype, l.overhead()+len(recs)*l.rec)
	start := len(b)
	if l.lead == leadOriginSeq {
		b = binary.BigEndian.AppendUint64(b, origin)
	}
	if l.lead != 0 {
		b = binary.BigEndian.AppendUint64(b, seq)
	}
	for i := range recs {
		b = AppendRecord(b, recs[i])
		if l.rec == RecordSize {
			continue
		}
		var c TraceContext
		if ctxs != nil {
			c = ctxs[i]
		}
		b = binary.BigEndian.AppendUint64(b, c.ID)
		b = binary.BigEndian.AppendUint64(b, uint64(c.Sent))
		if l.rec == TracedFwdRecordSize {
			b = binary.BigEndian.AppendUint64(b, uint64(c.Routed))
		}
	}
	if l.sealed {
		b = appendSeal(b, start)
	}
	return b
}

// splitTraced turns interleaved traced records into the parallel lanes
// the encoder (like the Slab and the Client) works in.
func splitTraced(trs []TracedRecord) ([]Record, []TraceContext) {
	recs, ctxs := make([]Record, len(trs)), make([]TraceContext, len(trs))
	for i := range trs {
		recs[i], ctxs[i] = trs[i].Record, trs[i].Ctx
	}
	return recs, ctxs
}

// AppendFrame appends one bare TypeRecords frame holding recs.
func AppendFrame(b []byte, recs []Record) []byte {
	return appendBatch(b, TypeRecords, 0, 0, recs, nil)
}

// AppendSealed appends one session record frame: seq is the cumulative
// index of recs[0] in the stream, and the CRC seals seq plus every
// record byte.
func AppendSealed(b []byte, seq uint64, recs []Record) []byte {
	return appendBatch(b, TypeSealed, 0, seq, recs, nil)
}

// AppendTracedSealed appends one traced session frame: seq plus traced
// records, CRC-tailed like AppendSealed.
func AppendTracedSealed(b []byte, seq uint64, trs []TracedRecord) []byte {
	recs, ctxs := splitTraced(trs)
	return appendBatch(b, TypeTracedSealed, 0, seq, recs, ctxs)
}

// AppendForwarded appends one forwarded session frame: the relaying
// instance's origin id, the cumulative index of recs[0] in the forward
// stream, and the records, CRC-sealed like AppendSealed.
func AppendForwarded(b []byte, origin, seq uint64, recs []Record) []byte {
	return appendBatch(b, TypeForwarded, origin, seq, recs, nil)
}
