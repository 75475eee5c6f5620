// Package wire defines the compact binary format `ddpmd` ingests: one
// Record per marked packet observed at a victim NIC (topology id,
// victim node, marking field, claimed header source), batched into
// versioned frames. The format is the daemon's contract with exporters:
// length-prefixed frames over TCP streams, one frame per datagram over
// UDP, and a JSONL replay reader so offline `trace` output (or
// hand-written records) can be fed through the same pipeline.
//
// A Record is deliberately tiny (24 bytes): the paper's whole premise
// is that single-packet identification needs only the 16-bit MF plus
// the victim's own coordinate, so the export path stays cheap enough
// to run per packet on a loaded NIC.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Wire constants. Magic guards against a stray client speaking the
// wrong protocol; Version is bumped on incompatible layout changes.
const (
	Magic   uint16 = 0xD05E
	Version uint8  = 1

	// HeaderSize is the frame header: magic(2) version(1) type(1)
	// payload-length(2), big-endian throughout.
	HeaderSize = 6

	// RecordSize is the fixed encoded size of one Record.
	RecordSize = 24

	// MaxFramePayload is the largest payload a frame can carry (the
	// length field is 16-bit). MaxRecordsPerFrame is what a bare record
	// frame holds under it; MaxRecords gives every batch type's capacity.
	MaxFramePayload    = 1<<16 - 1
	MaxRecordsPerFrame = MaxFramePayload / RecordSize

	// MaxEmptyFrames caps how many consecutive zero-record batch frames
	// a Reader tolerates before declaring the peer abusive: each one is
	// valid framing and zero progress, so an unbounded run would spin
	// the read loop (and, on a session, the ack writer) forever with no
	// counter moving.
	MaxEmptyFrames = 16
)

// The nine frame types. Six carry records and differ only in what wraps
// the one 24-byte record layout (see batchLayouts); of the three that
// carry none, two are session control and one seals an opaque cluster
// body.
const (
	// TypeRecords is a bare record batch — the original exporter
	// format, still what UDP datagrams and one-shot TCP streams carry.
	TypeRecords uint8 = 1

	// TypeHello opens a resumable exporter session: the client names a
	// stream id and the cumulative record count it has buffered from,
	// and the server replies with a TypeAck carrying how many records
	// of that stream it has already accepted. CRC-tailed.
	TypeHello uint8 = 2

	// TypeAck is the server's cumulative accepted-record count for the
	// connection's session stream. CRC-tailed.
	TypeAck uint8 = 3

	// TypeSealed is a session record batch: a cumulative sequence
	// number plus records, CRC-tailed so corruption is detected rather
	// than silently tallied. Sequence numbers make retransmits after a
	// reconnect exactly-once: the server skips the already-accepted
	// prefix.
	TypeSealed uint8 = 4

	// TypeTracedRecords is a bare record batch where every record is
	// followed by a 16-byte trace context — the traced sibling of
	// TypeRecords, valid on streams and in datagrams.
	TypeTracedRecords uint8 = 5

	// TypeTracedSealed is the traced sibling of TypeSealed: cumulative
	// sequence number, traced records, CRC tail. Sent by session
	// clients after the server acked the trace hello flag.
	TypeTracedSealed uint8 = 6

	// TypeForwarded is a sealed record batch relayed between cluster
	// instances: origin-instance id, cumulative sequence number,
	// records, CRC tail.
	TypeForwarded uint8 = 7

	// TypeGossip is a CRC-tailed opaque cluster anti-entropy payload.
	// Unlike session frames it is request/response on a dedicated
	// connection: the dialer sends one TypeGossip and reads one back.
	TypeGossip uint8 = 8

	// Type 9 was the acked victim-state handback frame. Handoffs now
	// ride gossip; the number is retired, fails the header check as an
	// unknown type, and is never reused.

	// TypeTracedForwarded is a forwarded session frame whose records
	// carry a forward-hop trace context: origin-instance id, cumulative
	// sequence number, N×(record + id + sent + routed), CRC tail.
	TypeTracedForwarded uint8 = 10
)

// ErrBadFrame tags every framing-level decode failure (bad magic,
// unknown version or type, misaligned payload, CRC mismatch). Callers
// distinguish it from io errors with errors.Is.
var ErrBadFrame = errors.New("wire: bad frame")

// ErrEmptyFlood is returned (wrapping ErrBadFrame) when a peer streams
// more than MaxEmptyFrames consecutive empty frames.
var ErrEmptyFlood = fmt.Errorf("%w: empty-frame flood", ErrBadFrame)

// Record is one observed marked packet at a victim.
//
// Encoded layout (big-endian, 24 bytes):
//
//	[0:8)   T       int64   observation time in simulator ticks
//	[8:12)  Topo    uint32  TopoID of the fabric the MF was marked in
//	[12:16) Victim  uint32  victim NodeID (the observing NIC's node)
//	[16:18) MF      uint16  marking field (IP Identification)
//	[18:22) Src     uint32  claimed (spoofable) header source address
//	[22]    Proto   uint8   transport protocol
//	[23]    —       uint8   reserved, must encode as zero
type Record struct {
	T      eventq.Time
	Topo   uint32
	Victim topology.NodeID
	MF     uint16
	Src    packet.Addr
	Proto  packet.Proto
}

// TopoID derives the 32-bit topology identifier carried on the wire
// from a topology's Name() (e.g. "torus-8x8"), so daemon and exporter
// can cheaply agree they are talking about the same fabric without
// shipping the dimension list per record.
func TopoID(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// AppendRecord appends r's 24-byte encoding to b.
func AppendRecord(b []byte, r Record) []byte {
	var buf [RecordSize]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(r.T))
	binary.BigEndian.PutUint32(buf[8:12], r.Topo)
	binary.BigEndian.PutUint32(buf[12:16], uint32(r.Victim))
	binary.BigEndian.PutUint16(buf[16:18], r.MF)
	binary.BigEndian.PutUint32(buf[18:22], uint32(r.Src))
	buf[22] = uint8(r.Proto)
	buf[23] = 0
	return append(b, buf[:]...)
}

// decodeRecord decodes one record from the first RecordSize bytes of
// b; the caller has checked its length (the batch decoder checks the
// payload length once).
func decodeRecord(b []byte) Record {
	_ = b[RecordSize-1]
	return Record{
		T:      eventq.Time(binary.BigEndian.Uint64(b[0:8])),
		Topo:   binary.BigEndian.Uint32(b[8:12]),
		Victim: topology.NodeID(binary.BigEndian.Uint32(b[12:16])),
		MF:     binary.BigEndian.Uint16(b[16:18]),
		Src:    packet.Addr(binary.BigEndian.Uint32(b[18:22])),
		Proto:  packet.Proto(b[22]),
	}
}

// appendHeader appends a 6-byte frame header for ftype with an n-byte
// payload.
func appendHeader(b []byte, ftype uint8, n int) []byte {
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = ftype
	binary.BigEndian.PutUint16(hdr[4:6], uint16(n))
	return append(b, hdr[:]...)
}

// crcSize is the crc32 tail that seals every frame type except the two
// bare record batches.
const crcSize = 4

// appendSeal appends the CRC of b[start:] — the payload written so far.
// Every sealed frame type gets its tail here.
func appendSeal(b []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// openSeal verifies a sealed payload's CRC tail and returns the body in
// front of it. Every sealed frame type is checked here, so in-flight
// corruption is detected instead of tallied.
func openSeal(payload []byte) ([]byte, error) {
	if len(payload) < crcSize {
		return nil, fmt.Errorf("%w: %d-byte payload has no crc tail", ErrBadFrame, len(payload))
	}
	body, tail := payload[:len(payload)-crcSize], payload[len(payload)-crcSize:]
	if binary.BigEndian.Uint32(tail) != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	}
	return body, nil
}

// Control payload sizes. The legacy hello is streamID(8) + base(8) +
// crc32(4) and the legacy ack count(8) + crc32(4); the extended layouts
// put a flags(4) word in front of the CRC. Both sizes of each stay
// valid forever: a legacy payload means flags == 0.
const (
	HelloPayloadSize      = 20
	HelloTracePayloadSize = 24
	AckPayloadSize        = 12
	AckTracePayloadSize   = 16
)

// AppendHello appends a session-open frame: the exporter's stream id,
// the cumulative record count its buffer starts at (records below base
// are gone from the exporter and can never be retransmitted; a server
// that has not seen this stream fast-forwards to base), and a flags
// word negotiating extensions (the server honors the flags it echoes
// back in the ack). flags == 0 encodes as the legacy 20-byte hello so
// old servers keep parsing new clients that have nothing to negotiate.
func AppendHello(b []byte, streamID, base uint64, flags uint32) []byte {
	n := HelloPayloadSize
	if flags != 0 {
		n = HelloTracePayloadSize
	}
	b = appendHeader(b, TypeHello, n)
	start := len(b)
	b = binary.BigEndian.AppendUint64(b, streamID)
	b = binary.BigEndian.AppendUint64(b, base)
	if flags != 0 {
		b = binary.BigEndian.AppendUint32(b, flags)
	}
	return appendSeal(b, start)
}

// ParseHello decodes a TypeHello payload of either size.
func ParseHello(payload []byte) (streamID, base uint64, flags uint32, err error) {
	if len(payload) != HelloPayloadSize && len(payload) != HelloTracePayloadSize {
		return 0, 0, 0, fmt.Errorf("%w: hello payload %d bytes", ErrBadFrame, len(payload))
	}
	body, err := openSeal(payload)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("hello: %w", err)
	}
	if len(body) > 16 {
		flags = binary.BigEndian.Uint32(body[16:20])
	}
	return binary.BigEndian.Uint64(body[0:8]), binary.BigEndian.Uint64(body[8:16]), flags, nil
}

// AppendAck appends the server→client cumulative-accepted frame with a
// flags word echoing the negotiated hello extensions. flags == 0
// encodes as the legacy 12-byte ack.
func AppendAck(b []byte, count uint64, flags uint32) []byte {
	n := AckPayloadSize
	if flags != 0 {
		n = AckTracePayloadSize
	}
	b = appendHeader(b, TypeAck, n)
	start := len(b)
	b = binary.BigEndian.AppendUint64(b, count)
	if flags != 0 {
		b = binary.BigEndian.AppendUint32(b, flags)
	}
	return appendSeal(b, start)
}

// ParseAck decodes a TypeAck payload of either size.
func ParseAck(payload []byte) (count uint64, flags uint32, err error) {
	if len(payload) != AckPayloadSize && len(payload) != AckTracePayloadSize {
		return 0, 0, fmt.Errorf("%w: ack payload %d bytes", ErrBadFrame, len(payload))
	}
	body, err := openSeal(payload)
	if err != nil {
		return 0, 0, fmt.Errorf("ack: %w", err)
	}
	if len(body) > 8 {
		flags = binary.BigEndian.Uint32(body[8:12])
	}
	return binary.BigEndian.Uint64(body[0:8]), flags, nil
}

// checkHeader validates the 6-byte header and returns the frame type
// and payload length. Length sanity is per type: a batch payload must
// be its layout's leading bytes plus whole records plus its tail,
// control frames have fixed shapes, opaque frames at least their seal.
func checkHeader(b []byte) (ftype uint8, n int, err error) {
	if len(b) < HeaderSize {
		return 0, 0, fmt.Errorf("%w: short header: %d bytes", ErrBadFrame, len(b))
	}
	if m := binary.BigEndian.Uint16(b[0:2]); m != Magic {
		return 0, 0, fmt.Errorf("%w: magic %#04x", ErrBadFrame, m)
	}
	if b[2] != Version {
		return 0, 0, fmt.Errorf("%w: version %d", ErrBadFrame, b[2])
	}
	ftype, n = b[3], int(binary.BigEndian.Uint16(b[4:6]))
	l, batch := layoutOf(ftype)
	var ok bool
	switch {
	case batch:
		_, ok = l.count(n)
	case ftype == TypeHello:
		ok = n == HelloPayloadSize || n == HelloTracePayloadSize
	case ftype == TypeAck:
		ok = n == AckPayloadSize || n == AckTracePayloadSize
	case ftype == TypeGossip:
		ok = n >= crcSize
	default:
		return 0, 0, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, ftype)
	}
	if !ok {
		return 0, 0, fmt.Errorf("%w: type-%d payload length %d", ErrBadFrame, ftype, n)
	}
	return ftype, n, nil
}

// Reader decodes a stream of frames (the TCP entry point). ReadFrame
// returns whole frames, which Slab.AppendBatch decodes. io.EOF cleanly
// ends a stream only on a frame boundary — EOF mid-frame is reported
// as ErrBadFrame.
//
// By default framing errors are permanent: the stream position is
// unknown after one, so callers should drop the connection. With
// EnableResync the Reader instead scans forward to the next 0xD05E
// magic and keeps going, counting what it skipped — the mode for
// long-lived exporter streams where one corrupt frame must not kill
// hours of good data behind it.
type Reader struct {
	br      *bufio.Reader
	carry   []byte // bytes over-read during a resync scan, consumed first
	payload []byte // reused per-frame payload buffer

	hdr      [HeaderSize]byte // per-frame header; a local would escape through io.ReadFull
	resync   bool
	resyncs  uint64
	skipped  uint64
	emptyRun int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// NewReaderSize wraps r with a read buffer of at least size bytes.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// FrameBuffered reports whether a whole frame with a valid header is
// buffered, so the next ReadFrame cannot block.
func (r *Reader) FrameBuffered() bool {
	if len(r.carry) != 0 || r.br.Buffered() < HeaderSize {
		return false
	}
	hdr, _ := r.br.Peek(HeaderSize)
	_, n, err := checkHeader(hdr)
	return err == nil && r.br.Buffered() >= HeaderSize+n
}

// EnableResync makes framing errors recoverable: instead of returning
// ErrBadFrame, ReadFrame discards bytes until the next magic and
// retries. Resyncs and SkippedBytes report the damage. ErrEmptyFlood
// is still terminal — it is valid framing used abusively.
func (r *Reader) EnableResync() { r.resync = true }

// Resyncs counts framing errors recovered by scanning to a magic.
func (r *Reader) Resyncs() uint64 { return r.resyncs }

// SkippedBytes counts bytes discarded by resync scans.
func (r *Reader) SkippedBytes() uint64 { return r.skipped }

// readFull fills p from the carry buffer, then the stream.
func (r *Reader) readFull(p []byte) error {
	n := 0
	for n < len(p) && len(r.carry) > 0 {
		c := copy(p[n:], r.carry)
		r.carry = r.carry[c:]
		n += c
	}
	if n == len(p) {
		return nil
	}
	if _, err := io.ReadFull(r.br, p[n:]); err != nil {
		if err == io.EOF && n > 0 {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// scanToMagic discards stale (whose first byte is known bad) and then
// stream bytes until the next Magic, leaving the magic itself queued
// in the carry buffer. Returns io.EOF if the stream ends first.
func (r *Reader) scanToMagic(stale []byte) error {
	r.resyncs++
	r.skipped++ // stale[0] is known bad
	r.carry = append(append(make([]byte, 0, len(stale)-1+len(r.carry)), stale[1:]...), r.carry...)
	for {
		for i := 0; i+1 < len(r.carry); i++ {
			if r.carry[i] == byte(Magic>>8) && r.carry[i+1] == byte(Magic&0xFF) {
				r.skipped += uint64(i)
				r.carry = r.carry[i:]
				return nil
			}
		}
		// No magic in the window: everything but a trailing possible
		// first-magic-byte is garbage. Refill and rescan.
		if n := len(r.carry); n > 0 && r.carry[n-1] == byte(Magic>>8) {
			r.skipped += uint64(n - 1)
			r.carry = r.carry[n-1:]
		} else {
			r.skipped += uint64(n)
			r.carry = r.carry[:0]
		}
		var chunk [512]byte
		n, err := r.br.Read(chunk[:])
		r.carry = append(r.carry, chunk[:n]...)
		if n == 0 && err != nil {
			r.skipped += uint64(len(r.carry))
			r.carry = r.carry[:0]
			return io.EOF
		}
	}
}

// ReadFrame returns the next frame's type and payload. The payload
// slice is only valid until the next call — it is a reused buffer.
func (r *Reader) ReadFrame() (ftype uint8, payload []byte, err error) {
	hdr := r.hdr[:]
	for {
		if err := r.readFull(hdr); err != nil {
			if err == io.ErrUnexpectedEOF {
				return 0, nil, fmt.Errorf("%w: truncated header", ErrBadFrame)
			}
			return 0, nil, err // clean io.EOF between frames
		}
		ftype, n, err := checkHeader(hdr)
		if err != nil {
			if r.resync {
				if err := r.scanToMagic(hdr); err != nil {
					return 0, nil, err
				}
				continue
			}
			return 0, nil, err
		}
		if cap(r.payload) < n {
			r.payload = make([]byte, n)
		}
		payload := r.payload[:n]
		if err := r.readFull(payload); err != nil {
			return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
		}
		if l, batch := layoutOf(ftype); batch && n == l.overhead() {
			r.emptyRun++
			if r.emptyRun > MaxEmptyFrames {
				r.emptyRun = 0
				return 0, nil, ErrEmptyFlood
			}
		} else {
			r.emptyRun = 0
		}
		return ftype, payload, nil
	}
}
