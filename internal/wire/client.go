package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Client is the exporter side of a resumable session: it buffers
// records, ships them as CRC-sealed frames, and survives dropped
// connections and daemon restarts by reconnecting with jittered
// exponential backoff and retransmitting everything past the server's
// acknowledged count. Delivery is exactly-once per daemon incarnation:
// sequence numbers let the server skip retransmitted prefixes, so
//
//	Sent() − Lost() == records the daemon accepted
//
// holds whenever every write the daemon took was acked. It fails in one
// case: the attempt budget runs out right after a write the daemon took
// whose ack never arrived. Close then counts those records lost though
// the daemon accepted them, so Lost() overstates the loss by at most
// that write (ROADMAP, "`lost` means lost"). Loss is never silent —
// records are abandoned only when the bounded buffer overflows while
// the daemon is unreachable or when Close gives up, and each abandoned
// record is counted (and handed to OnLost when set).
//
// Send writes every unsent frame in one Write once the unsent records
// reach max(MaxBatch, writeQuantum), then waits for acks only while
// what is unacknowledged plus the next frame overflows one daemon slab
// (SlabCap). A smaller Send arms a timer instead: while the session is
// up, every record a Send accepted reaches the kernel within
// lingerFor, whether or not the exporter calls again. Forwarding
// clients (ForwardOrigin set) arm none; their forwarder flushes on every
// wake. Flush and Close wait for every ack.
//
// Send, Flush, Close and the timer serialize on one lock, which the
// config's callbacks run under (they must not call back into those
// three); the counters may be read from any goroutine.
type Client struct {
	cfg      ClientConfig
	streamID uint64
	jitter   *rand.Rand

	mu     sync.Mutex
	linger *time.Timer
	armed  bool // a linger callback is due

	conn net.Conn
	rd   *Reader

	// The unacked buffer: sealed frames as the bytes that go on the
	// wire, back to back in stream order, so a resend writes them
	// verbatim (their sequence numbers are absolute). enc is the tail of
	// encBuf's array: acks reslice it. Records not yet in a frame wait
	// in the open frame; openCtxs is empty or parallel to open.
	enc, encBuf []byte
	open        []Record
	openCtxs    []TraceContext
	nextAt      int    // offset in enc of the first frame not written on this connection
	base, end   uint64 // stream indices: the first unacked record, one past the last buffered
	backoff     int    // consecutive failed connection attempts

	scratch []byte
	stamps  []TraceContext
	dec     *Slab // reads a buffered frame back on the cold paths
	// The frame types this client ships: sealed or forwarded, and the
	// traced sibling used while the trace lane is up.
	plainType, tracedType uint8

	traceSeq uint64 // trace-id counter (stamping enabled by cfg.Trace)
	traceOK  bool   // the lane is up: requested, and echoed by the latest hello

	sent, delivered, lost, resent, reconnects atomic.Uint64
	closed                                    bool
}

// The write rule (DESIGN §8.5): 128 untraced records are about 3 KB.
// backOff's reconnect policy, and ackTimeout bounds each write and ack wait.
const (
	writeQuantum = 128
	lingerFor    = 100 * time.Microsecond
	backoffBase  = 10 * time.Millisecond
	backoffMax   = 2 * time.Second
	ackTimeout   = 5 * time.Second
)

// ClientConfig parameterizes a Client. Zero values take the defaults
// noted per field.
type ClientConfig struct {
	// Addr is the daemon's TCP ingest address, used by the default
	// dialer. Dial overrides it entirely (tests, fault injection).
	Addr string
	Dial func() (net.Conn, error)

	// StreamID names this exporter's record stream across reconnects.
	// 0 derives one from Seed — fine as long as two exporters of the
	// same daemon don't share a seed.
	StreamID uint64

	// Seed drives backoff jitter (and StreamID when unset). 0 means 1:
	// the client is deterministic by default, like the simulator.
	Seed uint64

	// BufferRecords bounds the in-memory unacked-record buffer
	// (default 65536). Records offered while the buffer is full and
	// the daemon unreachable are shed and counted, never queued
	// unboundedly — an exporter that eats the victim NIC's memory
	// under flood would be its own amplifier.
	BufferRecords int

	// MaxAttempts is how many consecutive connection attempts an
	// operation makes before giving up (default 8). Any acked progress
	// resets the count.
	MaxAttempts int

	// MaxBatch caps records per sealed frame (default 1024).
	MaxBatch int

	// OnLost observes every record the client abandons, one abandoned
	// run per call. The slice is valid only during the call.
	OnLost func([]Record)

	// Sleep waits out each reconnect backoff (default time.Sleep): the
	// one timing injection, which the cluster forwarder and tests set.
	Sleep func(time.Duration)

	// Trace stamps every record offered through Send with a fresh
	// trace context (a SplitMix64-spread id derived from the stream id
	// plus the send timestamp) and negotiates traced sealed frames in
	// the session hello. When the server does not echo the trace flag
	// the client downgrades to plain sealed frames for that connection
	// — records are never held hostage to the extension.
	Trace bool

	// ForwardOrigin, when non-zero, makes this a cluster forwarding
	// client: records ship as TypeForwarded frames stamped with this
	// origin-instance id, and the session hello carries
	// HelloFlagForward. A server that does not echo the flag (cluster
	// mode off) fails the connection — forwarded records must never be
	// silently tallied as first-hand ingest. Combined with Trace the
	// client ships TypeTracedForwarded frames instead, carrying each
	// record's trace context across the hop (contexts are supplied by
	// SendTraced, not stamped); a peer that echoes forwarding but not
	// tracing downgrades the connection to plain forwarded frames.
	ForwardOrigin uint64

	// OnTraceDowngrade fires once per established connection on which
	// Trace was requested but the server did not echo HelloFlagTrace —
	// the clean-downgrade audit hook (the cluster node journals a
	// trace_downgraded event from it). Records still flow untraced.
	OnTraceDowngrade func()
}

func (c *ClientConfig) applyDefaults() {
	if c.Dial == nil {
		addr := c.Addr
		c.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StreamID == 0 {
		c.StreamID = c.Seed*0x9E3779B97F4A7C15 + 0x1234_5678 // splitmix-style spread
	}
	if c.BufferRecords <= 0 {
		c.BufferRecords = 1 << 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
}

// ErrClientClosed is returned by Send after Close.
var ErrClientClosed = errors.New("wire: client closed")

// NewClient builds a client. No connection is made until the first
// Send — a daemon that is down at exporter start is just the first
// fault to recover from.
//
// A MaxBatch beyond what one sealed frame can carry is rejected
// outright rather than silently clamped: the caller sized its batches
// for a throughput target, and shipping smaller frames than asked for
// should be a loud configuration error, not a quiet downgrade.
func NewClient(cfg ClientConfig) (*Client, error) {
	c := &Client{plainType: TypeSealed, tracedType: TypeTracedSealed, traceOK: cfg.Trace}
	if cfg.ForwardOrigin != 0 {
		c.plainType, c.tracedType = TypeForwarded, TypeTracedForwarded
	}
	// The traced sibling holds fewer records (same wrapping, wider
	// records), so it alone bounds a client that may ship it.
	tightest := c.plainType
	if cfg.Trace {
		tightest = c.tracedType
	}
	if limit := MaxRecords(tightest); cfg.MaxBatch > limit {
		return nil, fmt.Errorf("wire: MaxBatch %d exceeds the %d records one %s frame can carry",
			cfg.MaxBatch, limit, batchLayouts[tightest].name)
	}
	cfg.applyDefaults()
	c.cfg, c.streamID = cfg, cfg.StreamID
	c.jitter = rand.New(rand.NewSource(int64(cfg.Seed)))
	return c, nil
}

// Counters. Sent counts records offered to Send; Delivered counts
// records the server has acknowledged; Lost counts records abandoned
// (buffer overflow while unreachable, or given up at Close); Resent
// counts retransmitted records; Reconnects counts established
// connections after the first.
func (c *Client) Sent() uint64       { return c.sent.Load() }
func (c *Client) Delivered() uint64  { return c.delivered.Load() }
func (c *Client) Lost() uint64       { return c.lost.Load() }
func (c *Client) Resent() uint64     { return c.resent.Load() }
func (c *Client) Reconnects() uint64 { return max(c.reconnects.Load(), 1) - 1 }

// Send offers records for delivery. It blocks only for bounded work —
// at most MaxAttempts connection attempts — and sheds (counts + calls
// OnLost) whatever cannot be buffered when the daemon stays
// unreachable. The returned error is advisory (the delivery state is
// fully described by the counters): it reports shedding or a dead
// daemon, and Send may be called again after it.
func (c *Client) Send(recs []Record) error { return c.SendTraced(recs, nil) }

// SendTraced is Send for records that already carry trace contexts —
// the cluster forward path, where contexts were minted by the original
// exporter and must cross the hop unchanged rather than be re-stamped.
// ctxs is parallel to recs, or nil for none; zero-context entries ride
// along untraced. Without ctxs a tracing client stamps fresh ones; a
// forwarding client never does — a record forwarded through Send rides
// the hop untraced rather than acquiring a second identity.
func (c *Client) SendTraced(recs []Record, ctxs []TraceContext) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	if ctxs == nil && c.cfg.Trace && c.cfg.ForwardOrigin == 0 {
		// One send stamp per Send: the batch leaves together.
		sent := time.Now().UnixNano()
		c.stamps = slices.Grow(c.stamps[:0], len(recs))[:len(recs)]
		for i := range c.stamps {
			c.traceSeq++
			c.stamps[i] = TraceContext{ID: SplitMix64(c.streamID ^ c.traceSeq), Sent: sent}
		}
		ctxs = c.stamps
	}
	for len(recs) > 0 {
		free := c.cfg.BufferRecords - int(c.end-c.base)
		if free == 0 {
			err := c.pump(0)
			if int(c.end-c.base) < c.cfg.BufferRecords {
				continue // acked progress freed space, even if pump errored
			}
			// Unreachable with a full buffer: shed the rest of the
			// incoming batch, never the buffered (possibly partially
			// sent) records.
			c.sent.Add(uint64(len(recs)))
			c.drop(recs)
			return fmt.Errorf("wire: client shed %d records: %w", len(recs), err)
		}
		// A whole frame arriving at an empty open frame seals from recs.
		n := min(free, c.cfg.MaxBatch-len(c.open), len(recs))
		head := ctxs[:min(n, len(ctxs))]
		c.sent.Add(uint64(n))
		if c.end += uint64(n); n == c.cfg.MaxBatch {
			c.seal(c.end-uint64(n), recs[:n], head)
		} else {
			held := len(c.open)
			c.open = append(c.open, recs[:n]...)
			if lane := len(c.openCtxs); len(head) != 0 || lane != 0 {
				// Zero contexts for records from before the lane, and none supplied.
				c.openCtxs = slices.Grow(c.openCtxs, len(c.open)-lane)[:len(c.open)]
				clear(c.openCtxs[lane:])
				copy(c.openCtxs[held:], head)
			}
			if len(c.open) == c.cfg.MaxBatch {
				c.sealOpen()
			}
		}
		recs, ctxs = recs[n:], ctxs[len(head):]
		if c.unsent() >= max(c.cfg.MaxBatch, writeQuantum) {
			c.pump(SlabCap - c.cfg.MaxBatch) // on failure they stay buffered for a later call
		}
	}
	if !c.armed && c.cfg.ForwardOrigin == 0 && c.unsent() > 0 {
		c.armed = true
		if c.linger == nil {
			c.linger = time.AfterFunc(lingerFor, c.onLinger)
		} else {
			c.linger.Reset(lingerFor)
		}
	}
	return nil
}

// onLinger runs the bounded pump a Send would. One that fires after a
// write disarmed it writes early, never late.
func (c *Client) onLinger() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = false
	if !c.closed && c.unsent() > 0 {
		c.pump(SlabCap - c.cfg.MaxBatch)
	}
}

// seal appends recs, stream index seq onward, to the unacked bytes as
// one frame: traced while the lane is up and a record carries a
// context. Short of room, the live bytes move to the front of encBuf
// while at most half of it would be in use, else to an array twice
// that size, so each byte moves about once per half-array sealed.
func (c *Client) seal(seq uint64, recs []Record, ctxs []TraceContext) {
	ftype := c.plainType
	if c.traceOK && batchTraced(ctxs) {
		ftype = c.tracedType
	}
	l := batchLayouts[ftype]
	if need := len(c.enc) + HeaderSize + l.overhead() + len(recs)*l.rec; need > cap(c.enc) {
		if 2*need > cap(c.encBuf) {
			c.encBuf = make([]byte, 0, 2*need)
		}
		c.enc = c.encBuf[:copy(c.encBuf[:len(c.enc)], c.enc)]
	}
	c.enc = appendBatch(c.enc, ftype, c.cfg.ForwardOrigin, seq, recs, ctxs)
}

// sealOpen seals the open frame, if it holds anything.
func (c *Client) sealOpen() {
	if len(c.open) != 0 {
		c.seal(c.end-uint64(len(c.open)), c.open, c.openCtxs)
		c.open, c.openCtxs = c.open[:0], c.openCtxs[:0]
	}
}

// frameAt reads back the buffered frame b starts with: the stream
// index of its first record, its record count and its size.
func frameAt(b []byte) (seq uint64, n, size int) {
	l := batchLayouts[b[3]]
	size = HeaderSize + int(binary.BigEndian.Uint16(b[4:6]))
	n, _ = l.count(size - HeaderSize)
	return binary.BigEndian.Uint64(b[HeaderSize+l.lead-8:]), n, size
}

// decode reads back one buffered frame's records and contexts, valid
// until the next decode.
func (c *Client) decode(frame []byte) ([]Record, []TraceContext) {
	if c.dec == nil {
		c.dec = &Slab{recsBuf: make([]Record, 0, SlabCap)}
	}
	c.dec.Reset()
	c.dec.AppendBatch(frame[3], frame[HeaderSize:]) // sealed here: cannot fail
	return c.dec.Recs, c.dec.Ctxs
}

// firstUnsent is the stream index of the first record not written on
// this connection; unsent counts the records from there on.
func (c *Client) firstUnsent() uint64 {
	if c.nextAt < len(c.enc) {
		seq, _, _ := frameAt(c.enc[c.nextAt:])
		return seq
	}
	return c.end - uint64(len(c.open))
}

func (c *Client) unsent() int { return int(c.end - c.firstUnsent()) }

// Flush pushes every buffered record and waits for the server to
// acknowledge all of it.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pump(0)
}

// Close flushes with full retries, abandons (and counts) whatever the
// daemon never acknowledged, and releases the connection. The error
// reports abandoned records, if any.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	err := c.pump(0)
	c.closed = true
	if c.linger != nil {
		c.linger.Stop()
	}
	c.disconnect()
	abandoned := c.end - c.base
	if abandoned == 0 {
		return nil
	}
	for c.sealOpen(); len(c.enc) != 0; {
		_, _, size := frameAt(c.enc)
		recs, _ := c.decode(c.enc[:size])
		c.enc = c.enc[size:]
		c.drop(recs)
	}
	return fmt.Errorf("wire: client abandoned %d unacknowledged records: %w", abandoned, err)
}

// drop abandons a run of records: counted, reported, never silent.
func (c *Client) drop(recs []Record) {
	c.lost.Add(uint64(len(recs)))
	if c.cfg.OnLost != nil {
		c.cfg.OnLost(recs)
	}
}

// pump drives the session until every buffered record is shipped and
// at most limit of them await an ack, or MaxAttempts consecutive
// connection attempts have failed. pump(0) waits for every ack.
func (c *Client) pump(limit int) error {
	var lastErr error
	for c.end-c.base > uint64(limit) || c.unsent() > 0 {
		if c.conn == nil {
			if c.backoff >= c.cfg.MaxAttempts {
				c.backoff = 0 // next pump starts a fresh attempt budget
				if lastErr == nil {
					lastErr = errors.New("wire: daemon unreachable")
				}
				return lastErr
			}
			if err := c.connect(); err != nil {
				lastErr = err
				c.backOff()
				continue
			}
		}
		err := c.ship()
		if err == nil {
			err = c.reap(limit)
		}
		if err != nil {
			lastErr = err
			c.disconnect()
			c.backOff()
		}
	}
	return nil
}

// backOff counts the n-th consecutive failed attempt and sleeps
// backoffBase·2^(n−1), capped at backoffMax, with ±50% jitter so a fleet
// of exporters doesn't stampede a restarted daemon in lockstep.
func (c *Client) backOff() {
	c.backoff++
	d := backoffBase << (c.backoff - 1)
	if d <= 0 || d > backoffMax {
		d = backoffMax
	}
	c.cfg.Sleep(d/2 + time.Duration(c.jitter.Int63n(int64(d))))
}

// connect dials, sends the hello, and realigns the buffer to the
// server's acknowledged count.
func (c *Client) connect() error {
	conn, err := c.cfg.Dial()
	if err != nil {
		return fmt.Errorf("wire: dial: %w", err)
	}
	c.conn, c.rd = conn, NewReader(conn)
	c.reconnects.Add(1)
	conn.SetWriteDeadline(time.Now().Add(ackTimeout))
	var flags uint32
	if c.cfg.Trace {
		flags = HelloFlagTrace
	}
	if c.cfg.ForwardOrigin != 0 {
		flags |= HelloFlagForward
	}
	c.scratch = AppendHello(c.scratch[:0], c.streamID, c.base, flags)
	if _, err := conn.Write(c.scratch); err != nil {
		c.disconnect()
		return fmt.Errorf("wire: hello: %w", err)
	}
	acked, ackFlags, err := c.readAck()
	if err != nil {
		c.disconnect()
		return fmt.Errorf("wire: hello ack: %w", err)
	}
	// Traced frames only flow when the server echoed the flag; an old
	// server's legacy ack (flags 0) downgrades this connection to plain
	// sealed frames, shedding contexts but never records.
	c.traceOK = c.cfg.Trace && ackFlags&HelloFlagTrace != 0
	if c.cfg.Trace && !c.traceOK && c.cfg.OnTraceDowngrade != nil {
		c.cfg.OnTraceDowngrade()
	}
	// Forwarding has no downgrade: a server that won't take forwarded
	// frames (cluster mode off) must not receive these records at all,
	// so refusal is a connection failure the backoff loop retries.
	if c.cfg.ForwardOrigin != 0 && ackFlags&HelloFlagForward == 0 {
		c.disconnect()
		return errors.New("wire: server refused forwarding (no HelloFlagForward in ack)")
	}
	written := c.firstUnsent() // by the last connection
	if err := c.advance(acked); err != nil {
		c.disconnect()
		return err
	}
	if c.cfg.Trace && !c.traceOK {
		c.rebuild()
	}
	// Everything still buffered must be (re)transmitted on this conn.
	c.resent.Add(max(written, c.base) - c.base)
	c.nextAt = 0
	return nil
}

// ship seals the open frame and writes every unsent frame in one Write.
func (c *Client) ship() error {
	c.sealOpen()
	if c.nextAt < len(c.enc) {
		c.conn.SetWriteDeadline(time.Now().Add(ackTimeout))
		if _, err := c.conn.Write(c.enc[c.nextAt:]); err != nil {
			return err
		}
		c.nextAt = len(c.enc)
	}
	if c.armed {
		c.linger.Stop()
		c.armed = false
	}
	return nil
}

// reap consumes acks. It blocks only while more than limit shipped
// records are unacknowledged, then takes every ack the reader already
// holds, and advances the buffer once, to the newest count.
func (c *Client) reap(limit int) error {
	acked, sent := c.base, c.firstUnsent()
	for sent-acked > uint64(limit) || c.rd.FrameBuffered() {
		n, _, err := c.readAck()
		if err != nil {
			return err
		}
		if n < acked || n > sent {
			return fmt.Errorf("%w: ack %d outside window [%d, %d]", ErrBadFrame, n, acked, sent)
		}
		acked = n
	}
	if acked == c.base {
		return nil
	}
	return c.advance(acked)
}

// batchTraced reports whether any record of a batch carries a trace
// context. An all-zero batch ships in the plain layout even on a
// session that negotiated the trace lane — the untraced forward hot
// path pays no per-record wire overhead for the offer.
func batchTraced(ctxs []TraceContext) bool {
	for i := range ctxs {
		if ctxs[i].ID != 0 {
			return true
		}
	}
	return false
}

// readAck reads frames until a TypeAck arrives, bounding each read that
// may block by ackTimeout.
func (c *Client) readAck() (uint64, uint32, error) {
	for {
		if !c.rd.FrameBuffered() {
			c.conn.SetReadDeadline(time.Now().Add(ackTimeout))
		}
		ftype, payload, err := c.rd.ReadFrame()
		if err != nil {
			return 0, 0, err
		}
		if ftype != TypeAck {
			continue // a session server only sends acks; tolerate noise
		}
		return ParseAck(payload)
	}
}

// advance reconciles the server's cumulative count with the buffer:
// the frames it covers are dropped, and one it lands inside is cut to
// its unacked tail. A count past the sealed frames acks records never
// written.
func (c *Client) advance(acked uint64) error {
	if top := c.end - uint64(len(c.open)); acked < c.base || acked > top {
		return fmt.Errorf("%w: ack %d outside window [%d, %d]", ErrBadFrame, acked, c.base, top)
	}
	d, inside := 0, false
	for d < len(c.enc) {
		seq, n, size := frameAt(c.enc[d:])
		if seq+uint64(n) > acked {
			inside = seq < acked
			break
		}
		d += size
	}
	c.enc, c.nextAt = c.enc[d:], max(0, c.nextAt-d)
	if acked > c.base {
		c.backoff = 0 // acked progress, by an ack or a hello's: reset the attempt budget
	}
	c.base = acked
	c.delivered.Store(acked)
	if inside {
		c.rebuild()
	}
	return nil
}

// rebuild re-encodes the buffered frames without the records before
// base, and plain while the trace lane is down: the cold path behind a
// count inside a frame (the daemon acks whole frames) and behind a
// connection that refused the lane, which sheds contexts, never
// records. Every frame counts as written: a count arrives after a
// write took them all, and connect rewinds after its rebuild.
func (c *Client) rebuild() {
	b := c.scratch[:0]
	for at := 0; at < len(c.enc); {
		seq, _, size := frameAt(c.enc[at:])
		ftype := c.enc[at+3]
		recs, ctxs := c.decode(c.enc[at : at+size])
		at += size
		if !c.traceOK {
			ftype, ctxs = c.plainType, nil
		}
		skip := max(c.base, seq) - seq
		if ctxs != nil {
			ctxs = ctxs[skip:]
		}
		b = appendBatch(b, ftype, c.cfg.ForwardOrigin, seq+skip, recs[skip:], ctxs)
	}
	c.scratch, c.enc, c.encBuf, c.nextAt = c.encBuf[:0], b, b, len(b)
}

func (c *Client) disconnect() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.rd = nil, nil
	}
}
