package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
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
// holds exactly. Loss is never silent — records are abandoned only
// when the bounded buffer overflows while the daemon is unreachable or
// when Close gives up, and each abandoned record is counted (and
// handed to OnLost when set).
//
// Send waits for acks only while what is unacknowledged plus the next
// frame overflows one daemon slab (SlabCap); Flush and Close wait for all.
//
// A Client is not safe for concurrent use; it is a single exporter
// goroutine's tool, like the Writer it replaces.
type Client struct {
	cfg      ClientConfig
	streamID uint64
	jitter   *rand.Rand

	conn net.Conn
	bw   *bufio.Writer
	rd   *Reader

	// The unacked buffer, in the shape the Slab, the cluster's forward
	// queue and the encoder share, so a batch is copied once (here) on
	// its way from a slab to the socket. ctxs is either empty — no
	// buffered record carries a context — or parallel to recs.
	recs    []Record       // recs[0] has stream index `base`
	ctxs    []TraceContext // trace lane, materialized by the first context
	base    uint64         // cumulative records acked by the server
	next    int            // index into recs of the first unsent record
	backoff int            // consecutive failed connection attempts

	scratch []byte
	// The frame types this client ships: sealed or forwarded, and the
	// traced sibling used when the server echoed the trace flag.
	plainType, tracedType uint8

	traceSeq uint64 // trace-id counter (stamping enabled by cfg.Trace)
	traceOK  bool   // server echoed HelloFlagTrace on this connection

	sent       uint64
	lost       uint64
	resent     uint64
	reconnects uint64
	closed     bool
}

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

	// BackoffBase and BackoffMax bound the jittered exponential
	// reconnect delay (defaults 10ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// AckTimeout bounds each wait for a server ack (default 5s).
	AckTimeout time.Duration

	// MaxBatch caps records per sealed frame (default 1024).
	MaxBatch int

	// OnLost observes every record the client abandons, one abandoned
	// run per call. The slice is valid only during the call.
	OnLost func([]Record)

	// Sleep replaces time.Sleep in tests.
	Sleep func(time.Duration)

	// Trace stamps every record offered through Send with a fresh
	// trace context (a SplitMix64-spread id derived from the stream id
	// plus the send timestamp) and negotiates traced sealed frames in
	// the session hello. When the server does not echo the trace flag
	// the client downgrades to plain sealed frames for that connection
	// — records are never held hostage to the extension.
	Trace bool

	// NowNano supplies trace send timestamps; defaults to
	// time.Now().UnixNano(). Tests inject a fake clock.
	NowNano func() int64

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
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.NowNano == nil {
		c.NowNano = func() int64 { return time.Now().UnixNano() }
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
	c := &Client{plainType: TypeSealed, tracedType: TypeTracedSealed}
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
func (c *Client) Sent() uint64      { return c.sent }
func (c *Client) Delivered() uint64 { return c.base }
func (c *Client) Lost() uint64      { return c.lost }
func (c *Client) Resent() uint64    { return c.resent }
func (c *Client) Reconnects() uint64 {
	if c.reconnects == 0 {
		return 0
	}
	return c.reconnects - 1
}

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
// along untraced.
func (c *Client) SendTraced(recs []Record, ctxs []TraceContext) error {
	if c.closed {
		return ErrClientClosed
	}
	for len(recs) > 0 {
		free := c.cfg.BufferRecords - len(c.recs)
		if free == 0 {
			err := c.pump(0)
			if len(c.recs) < c.cfg.BufferRecords {
				continue // acked progress freed space, even if pump errored
			}
			// Unreachable with a full buffer: shed the rest of the
			// incoming batch, never the buffered (possibly partially
			// sent) records.
			c.sent += uint64(len(recs))
			c.drop(recs)
			return fmt.Errorf("wire: client shed %d records: %w", len(recs), err)
		}
		n := min(free, len(recs))
		c.sent += uint64(n)
		c.buffer(recs[:n], ctxs)
		recs = recs[n:]
		if ctxs != nil {
			ctxs = ctxs[n:]
		}
		if len(c.recs)-c.next >= c.cfg.MaxBatch {
			// Opportunistic flush, keeping a slab's worth in flight; on
			// failure records just stay buffered for the next Send, Flush
			// or Close to retry.
			c.pump(SlabCap - c.cfg.MaxBatch)
		}
	}
	return nil
}

// buffer appends recs to the unacked buffer with their contexts: the
// ones supplied (the head of ctxs), else fresh stamps when this client
// mints them, else none. Forwarding clients never stamp: their contexts were minted by
// the original exporter and arrive through SendTraced — a record
// forwarded through Send rides the hop untraced rather than acquiring
// a second identity.
func (c *Client) buffer(recs []Record, ctxs []TraceContext) {
	stamp := ctxs == nil && c.cfg.Trace && c.cfg.ForwardOrigin == 0
	held := len(c.recs)
	c.recs = append(c.recs, recs...)
	if ctxs == nil && !stamp && len(c.ctxs) == 0 {
		return // no lane, and nothing here starts one
	}
	// Zero contexts for whatever was buffered before the lane existed,
	// and for this batch until it is filled in below.
	c.ctxs = append(c.ctxs, make([]TraceContext, len(c.recs)-len(c.ctxs))...)
	switch {
	case ctxs != nil:
		copy(c.ctxs[held:], ctxs)
	case stamp:
		// One send stamp per Send: the batch leaves together.
		sent := c.cfg.NowNano()
		for i := range c.ctxs[held:] {
			c.traceSeq++
			c.ctxs[held+i] = TraceContext{ID: SplitMix64(c.streamID ^ c.traceSeq), Sent: sent}
		}
	}
}

// Flush pushes every buffered record and waits for the server to
// acknowledge all of it.
func (c *Client) Flush() error { return c.pump(0) }

// Close flushes with full retries, abandons (and counts) whatever the
// daemon never acknowledged, and releases the connection. The error
// reports abandoned records, if any.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	err := c.pump(0)
	c.closed = true
	abandoned := c.recs
	c.recs, c.ctxs = nil, nil
	c.disconnect()
	if len(abandoned) == 0 {
		return nil
	}
	c.drop(abandoned)
	return fmt.Errorf("wire: client abandoned %d unacknowledged records: %w", len(abandoned), err)
}

// drop abandons a run of records: counted, reported, never silent.
func (c *Client) drop(recs []Record) {
	c.lost += uint64(len(recs))
	if c.cfg.OnLost != nil {
		c.cfg.OnLost(recs)
	}
}

// pump drives the session until every buffered record is shipped and
// at most limit of them await an ack, or MaxAttempts consecutive
// connection attempts have failed. pump(0) waits for every ack.
func (c *Client) pump(limit int) error {
	var lastErr error
	for len(c.recs) > limit || c.next < len(c.recs) {
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
				c.backoff++
				c.cfg.Sleep(c.backoffDelay())
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
			c.backoff++
			c.cfg.Sleep(c.backoffDelay())
			continue
		}
	}
	return nil
}

// backoffDelay is the jittered exponential reconnect delay for the
// current consecutive-failure count: base·2^(n−1), capped at max, with
// ±50% jitter so a fleet of exporters doesn't stampede a restarted
// daemon in lockstep.
func (c *Client) backoffDelay() time.Duration {
	d := c.cfg.BackoffBase << (c.backoff - 1)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	return d/2 + time.Duration(c.jitter.Int63n(int64(d)))
}

// connect dials, sends the hello, and realigns the buffer to the
// server's acknowledged count.
func (c *Client) connect() error {
	conn, err := c.cfg.Dial()
	if err != nil {
		return fmt.Errorf("wire: dial: %w", err)
	}
	c.conn = conn
	c.bw = bufio.NewWriter(conn)
	c.rd = NewReader(conn)
	c.reconnects++
	conn.SetWriteDeadline(time.Now().Add(c.cfg.AckTimeout))
	var flags uint32
	if c.cfg.Trace {
		flags = HelloFlagTrace
	}
	if c.cfg.ForwardOrigin != 0 {
		flags |= HelloFlagForward
	}
	c.scratch = AppendHello(c.scratch[:0], c.streamID, c.base, flags)
	if _, err := c.bw.Write(c.scratch); err != nil {
		c.disconnect()
		return fmt.Errorf("wire: hello: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
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
	if err := c.advance(acked); err != nil {
		c.disconnect()
		return err
	}
	// Everything still buffered must be (re)transmitted on this conn.
	if c.next > 0 {
		c.resent += uint64(min(c.next, len(c.recs)))
	}
	c.next = 0
	return nil
}

// ship writes every unsent buffered record as sealed frames and
// flushes.
func (c *Client) ship() error {
	c.conn.SetWriteDeadline(time.Now().Add(c.cfg.AckTimeout))
	for c.next < len(c.recs) {
		end := c.next + min(c.cfg.MaxBatch, len(c.recs)-c.next)
		ftype, ctxs := c.plainType, []TraceContext(nil)
		if c.traceOK && len(c.ctxs) != 0 && batchTraced(c.ctxs[c.next:end]) {
			ftype, ctxs = c.tracedType, c.ctxs[c.next:end]
		}
		c.scratch = appendBatch(c.scratch[:0], ftype, c.cfg.ForwardOrigin, c.base+uint64(c.next), c.recs[c.next:end], ctxs)
		if _, err := c.bw.Write(c.scratch); err != nil {
			return err
		}
		c.next = end
	}
	return c.bw.Flush()
}

// reap consumes acks. It blocks only while more than limit shipped
// records are unacknowledged, then takes every ack the reader already
// holds, and advances the buffer once, to the newest count.
func (c *Client) reap(limit int) error {
	acked, sent := c.base, c.base+uint64(c.next)
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
	c.backoff = 0 // acked progress: reset the attempt budget
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
// may block by AckTimeout.
func (c *Client) readAck() (uint64, uint32, error) {
	for {
		if !c.rd.FrameBuffered() {
			c.conn.SetReadDeadline(time.Now().Add(c.cfg.AckTimeout))
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

// advance reconciles the server's cumulative count with the buffer.
func (c *Client) advance(acked uint64) error {
	if acked < c.base || acked > c.base+uint64(len(c.recs)) {
		return fmt.Errorf("%w: ack %d outside window [%d, %d]",
			ErrBadFrame, acked, c.base, c.base+uint64(len(c.recs)))
	}
	d := int(acked - c.base)
	c.recs = c.recs[:copy(c.recs, c.recs[d:])]
	if len(c.ctxs) != 0 {
		c.ctxs = c.ctxs[:copy(c.ctxs, c.ctxs[d:])] // drained to empty ⇒ lane off
	}
	c.base = acked
	c.next = max(0, c.next-d)
	return nil
}

func (c *Client) disconnect() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.bw, c.rd = nil, nil, nil
	}
}
