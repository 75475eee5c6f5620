package wire

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/topology"
)

// sessionServer is a minimal in-process implementation of the daemon's
// session protocol: hello → ack, sealed → dedup + ack, with optional
// connection kills to force the client through its reconnect path.
type sessionServer struct {
	t  *testing.T
	ln net.Listener

	killEveryFrames int // close each conn after this many sealed frames (0 = never)

	mu      sync.Mutex
	ackless bool // take sealed frames without acking them: only hello acks report progress
	count   uint64
	got     []Record
	conns   int
	live    map[net.Conn]struct{}
}

// stop closes the listener and every live connection — a full server
// death, not just an accept freeze.
func (s *sessionServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.live {
		c.Close()
	}
}

func startSessionServer(t *testing.T, killEveryFrames int) *sessionServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sessionServer{t: t, ln: ln, killEveryFrames: killEveryFrames, live: make(map[net.Conn]struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns++
			s.live[conn] = struct{}{}
			s.mu.Unlock()
			go s.handle(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *sessionServer) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.live, conn)
		s.mu.Unlock()
	}()
	r := NewReader(conn)
	frames := 0
	var scratch []byte
	slab := NewSlabPool(1).Get()
	defer slab.Release()
	for {
		ftype, payload, err := r.ReadFrame()
		if err != nil {
			return
		}
		switch ftype {
		case TypeHello:
			_, base, _, err := ParseHello(payload)
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.count < base {
				s.count = base
			}
			c := s.count
			s.mu.Unlock()
			scratch = AppendAck(scratch[:0], c, 0)
			if _, err := conn.Write(scratch); err != nil {
				return
			}
		case TypeSealed:
			slab.Reset()
			h, err := slab.AppendBatch(ftype, payload)
			if err != nil {
				return
			}
			seq, batch := h.Seq, slab.Recs
			s.mu.Lock()
			if seq > s.count {
				s.mu.Unlock()
				return // gap: protocol violation
			}
			if skip := int(s.count - seq); skip < len(batch) {
				s.got = append(s.got, batch[skip:]...)
				s.count = seq + uint64(len(batch))
			}
			c, ackless := s.count, s.ackless
			s.mu.Unlock()
			if !ackless {
				scratch = AppendAck(scratch[:0], c, 0)
				if _, err := conn.Write(scratch); err != nil {
					return
				}
			}
			frames++
			if s.killEveryFrames > 0 && frames >= s.killEveryFrames {
				return // injected mid-stream disconnect
			}
		default:
			return
		}
	}
}

func (s *sessionServer) snapshot() (count uint64, got []Record, conns int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count, append([]Record(nil), s.got...), s.conns
}

func TestClientDeliversExactlyOnceThroughDisconnects(t *testing.T) {
	// The server kills every connection after 2 sealed frames: the
	// client must reconnect, learn the acked count, resend the rest,
	// and the server must end up with every record exactly once, in
	// order.
	s := startSessionServer(t, 2)
	recs := plainRecords(1000)
	cfg := ClientConfig{
		Addr: s.ln.Addr().String(), Seed: 7,
		MaxBatch: 64, MaxAttempts: 10,
		Sleep: func(time.Duration) {},
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for i := 0; i < len(recs); i += 100 {
		if err := c.Send(recs[i : i+100]); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	count, got, conns := s.snapshot()
	if count != uint64(len(recs)) {
		t.Fatalf("server count %d, want %d", count, len(recs))
	}
	if len(got) != len(recs) {
		t.Fatalf("server got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
	if conns < 2 {
		t.Errorf("expected forced reconnects, server saw %d conns", conns)
	}
	if c.Sent() != uint64(len(recs)) || c.Lost() != 0 || c.Delivered() != uint64(len(recs)) {
		t.Errorf("counters: sent=%d lost=%d delivered=%d", c.Sent(), c.Lost(), c.Delivered())
	}
	if c.Reconnects() == 0 {
		t.Error("no reconnects counted despite killed connections")
	}
	if c.Resent() == 0 {
		t.Error("no resent records counted despite mid-frame kills")
	}
	// The exactly-once invariant, verbatim.
	if c.Sent()-c.Lost() != count {
		t.Errorf("sent(%d) - lost(%d) != server accepted(%d)", c.Sent(), c.Lost(), count)
	}
}

// TestClientHelloAckProgressResetsAttempts: progress the client learns
// only from a reconnect's hello ack still resets its attempt budget. The
// server takes one frame per connection and drops the connection before
// acking it, so every connection moves the stream forward and fails:
// with two attempts the client must still deliver everything.
func TestClientHelloAckProgressResetsAttempts(t *testing.T) {
	s := startSessionServer(t, 1)
	s.mu.Lock()
	s.ackless = true
	s.mu.Unlock()
	recs := plainRecords(640)
	c, err := NewClient(ClientConfig{
		Addr: s.ln.Addr().String(), Seed: 7,
		MaxBatch: 64, MaxAttempts: 2,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := c.Send(recs); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	count, got, conns := s.snapshot()
	if count != uint64(len(recs)) || !slices.Equal(got, recs) {
		t.Fatalf("server took %d records (%d stored), want all %d", count, len(got), len(recs))
	}
	if c.Lost() != 0 || c.Delivered() != uint64(len(recs)) {
		t.Fatalf("counters: lost=%d delivered=%d over %d connections", c.Lost(), c.Delivered(), conns)
	}
}

// TestClientKeepsASlabInFlight: Send ships without waiting for acks
// while what is unacknowledged plus the next frame fits one daemon slab,
// the next Send blocks until an ack arrives, and Flush waits for all.
func TestClientKeepsASlabInFlight(t *testing.T) {
	const batch = 256
	window := (SlabCap - batch) / batch // frames a Send may leave unacked
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The server acks the hello, then only what the test tells it to.
	var frames sync.WaitGroup
	frames.Add(window + 1)
	acks := make(chan uint64)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := NewReader(conn)
		if ftype, _, err := r.ReadFrame(); err != nil || ftype != TypeHello {
			return
		}
		conn.Write(AppendAck(nil, 0, 0))
		go func() {
			for n := range acks {
				conn.Write(AppendAck(nil, n, 0))
			}
		}()
		for i := 0; ; i++ {
			if _, _, err := r.ReadFrame(); err != nil {
				return
			}
			if i <= window {
				frames.Done()
			}
		}
	}()
	defer close(acks)
	c, err := NewClient(ClientConfig{Addr: ln.Addr().String(), Seed: 9, MaxBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := plainRecords(batch)
	start := func(f func() error) chan error {
		done := make(chan error, 1)
		go func() { done <- f() }()
		return done
	}
	returns := func(what string, done chan error) {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked", what)
		}
	}
	blocks := func(what string, done chan error) {
		select {
		case err := <-done:
			t.Fatalf("%s returned (%v) before its ack", what, err)
		case <-time.After(100 * time.Millisecond):
		}
	}
	returns("the Sends inside the window", start(func() error {
		for i := 0; i < window; i++ {
			if err := c.Send(recs); err != nil {
				return err
			}
		}
		return nil
	}))
	next := start(func() error { return c.Send(recs) })
	blocks("the Send past the window", next)
	frames.Wait() // every frame so far was shipped unacked
	acks <- batch
	returns("the Send past the window", next)
	flush := start(c.Flush)
	blocks("Flush", flush)
	acks <- uint64(window+1) * batch
	returns("Flush", flush)
	if got, want := c.Delivered(), uint64(window+1)*batch; got != want || c.Sent()-got-c.Lost() != 0 {
		t.Fatalf("delivered %d with %d buffered, want %d with none", got, c.Sent()-got-c.Lost(), want)
	}
}

func TestClientShedsCountedWhenUnreachable(t *testing.T) {
	var lost []Record
	dialErr := errors.New("no route")
	c, nerr := NewClient(ClientConfig{
		Dial:          func() (net.Conn, error) { return nil, dialErr },
		Seed:          3,
		BufferRecords: 100,
		MaxBatch:      50,
		MaxAttempts:   2,
		Sleep:         func(time.Duration) {},
		OnLost:        func(rs []Record) { lost = append(lost, rs...) },
	})
	if nerr != nil {
		t.Fatalf("NewClient: %v", nerr)
	}
	recs := plainRecords(250)
	err := c.Send(recs)
	if err == nil {
		t.Fatal("Send reported success while shedding")
	}
	closeErr := c.Close()
	if closeErr == nil {
		t.Fatal("Close hid abandoned records")
	}
	if c.Sent() != 250 {
		t.Errorf("sent = %d, want 250", c.Sent())
	}
	if c.Lost() != 250 || len(lost) != 250 {
		t.Errorf("lost = %d (OnLost saw %d), want 250", c.Lost(), len(lost))
	}
	if c.Delivered() != 0 {
		t.Errorf("delivered = %d, want 0", c.Delivered())
	}
	// Every abandoned record was reported, none silently.
	seen := make(map[Record]int)
	for _, r := range lost {
		seen[r]++
	}
	for _, r := range recs {
		if seen[r] == 0 {
			t.Fatalf("record %+v lost without OnLost", r)
		}
		seen[r]--
	}
	if err := c.Send(recs[:1]); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Send after Close: %v, want ErrClientClosed", err)
	}
}

func TestClientResumesAcrossServerRestart(t *testing.T) {
	// First server accepts some records, then vanishes; a fresh server
	// (empty session table) takes over at a new address. The hello's
	// base fast-forwards the new server so buffered records flow and
	// nothing is double-counted or lost from the client's view.
	s1 := startSessionServer(t, 0)
	var mu sync.Mutex
	addr := s1.ln.Addr().String()
	dial := func() (net.Conn, error) {
		mu.Lock()
		a := addr
		mu.Unlock()
		return net.Dial("tcp", a)
	}
	c, err := NewClient(ClientConfig{
		Dial: dial, Seed: 11,
		MaxBatch: 32, MaxAttempts: 20,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	recs := plainRecords(200)
	if err := c.Send(recs[:100]); err != nil {
		t.Fatal(err)
	}
	// Send does not wait for acks; Flush does.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	count1, _, _ := s1.snapshot()
	if count1 != 100 {
		t.Fatalf("first server accepted %d, want 100", count1)
	}
	s1.stop()

	s2 := startSessionServer(t, 0)
	mu.Lock()
	addr = s2.ln.Addr().String()
	mu.Unlock()
	if err := c.Send(recs[100:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	count2, got2, _ := s2.snapshot()
	// The new server starts at the client's base (100) and accepts
	// exactly the second half.
	if count2 != 200 {
		t.Fatalf("second server count %d, want 200", count2)
	}
	if len(got2) != 100 || got2[0] != recs[100] || got2[99] != recs[199] {
		t.Fatalf("second server got %d records, want the last 100", len(got2))
	}
	if c.Lost() != 0 || c.Delivered() != 200 {
		t.Errorf("counters after restart: lost=%d delivered=%d", c.Lost(), c.Delivered())
	}
}

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestClientCoalescesSmallSends: a burst of 16-record Sends in 16-record
// frames reaches the kernel as one write per writeQuantum records, not
// one per frame — plus those the linger cuts early when the burst is
// descheduled. Linger expiries are at least lingerFor apart, so at most
// the burst's duration over lingerFor, plus one, fall inside it, and
// one more may be left from the Send that opened the session.
func TestClientCoalescesSmallSends(t *testing.T) {
	s := startSessionServer(t, 0)
	var writes atomic.Int64
	c, err := NewClient(ClientConfig{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", s.ln.Addr().String())
			return countingConn{conn, &writes}, err
		},
		Seed: 5, MaxBatch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := plainRecords(1 + 64*16)
	// Open the session first, so what is counted below is data writes.
	if err := c.Send(recs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	writes.Store(0)
	for i := 1; i < len(recs); i += 16 {
		if err := c.Send(recs[i : i+16]); err != nil {
			t.Fatal(err)
		}
	}
	n := writes.Load()
	took := time.Since(start)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("64 Sends of 16 records: %d writes in %v", n, took)
	if max := int64(64*16/writeQuantum+2) + int64(took/lingerFor); n > max {
		t.Errorf("64 Sends of 16 records took %d writes in %v, want at most %d", n, took, max)
	}
	if count, got, _ := s.snapshot(); count != uint64(len(recs)) || !slices.Equal(got, recs) {
		t.Errorf("server accepted %d records (%d kept), want all %d in order", count, len(got), len(recs))
	}
}

// TestClientLingerShipsAnIdleSend: a Send below the write threshold
// followed by no further call still reaches the server, within the
// linger plus scheduling slack.
func TestClientLingerShipsAnIdleSend(t *testing.T) {
	s := startSessionServer(t, 0)
	c, err := NewClient(ClientConfig{Addr: s.ln.Addr().String(), Seed: 6, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := plainRecords(17)
	if err := c.Send(recs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil { // the session is up
		t.Fatal(err)
	}
	// A callback the first Send armed may fire during the Flush and run
	// after it; let it, so the Send below is timed from its own arm.
	time.Sleep(2 * lingerFor)
	const slack = 250 * time.Millisecond
	start := time.Now()
	if err := c.Send(recs[1:]); err != nil {
		t.Fatal(err)
	}
	for {
		if count, _, _ := s.snapshot(); count == uint64(len(recs)) {
			break
		}
		if d := time.Since(start); d > lingerFor+slack {
			t.Fatalf("an idle Send was not read by the server %v after it returned", d)
		}
		time.Sleep(10 * time.Microsecond)
	}
	t.Logf("an idle 16-record Send reached the server %v after it returned (linger %v)", time.Since(start), lingerFor)
}

// TestClientCountersUnderLinger reads the counters from another
// goroutine while Sends and the linger timer move them; the race
// detector checks the accesses.
func TestClientCountersUnderLinger(t *testing.T) {
	s := startSessionServer(t, 0)
	c, err := NewClient(ClientConfig{Addr: s.ln.Addr().String(), Seed: 8, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Delivered first: both only grow, so it cannot pass a later Sent.
			if delivered, sent := c.Delivered(), c.Sent(); delivered > sent {
				t.Errorf("delivered %d of %d sent", delivered, sent)
			}
			_, _, _ = c.Lost(), c.Resent(), c.Reconnects()
		}
	}()
	recs := plainRecords(50 * 16)
	for i := 0; i < len(recs); i += 16 {
		if err := c.Send(recs[i : i+16]); err != nil {
			t.Fatal(err)
		}
		if i%160 == 0 {
			time.Sleep(2 * lingerFor) // let the linger write
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	reads.Wait()
	if c.Sent() != uint64(len(recs)) || c.Delivered() != c.Sent() || c.Lost() != 0 {
		t.Errorf("counters: sent %d delivered %d lost %d", c.Sent(), c.Delivered(), c.Lost())
	}
}

// ackServer is the in-memory session server FuzzClientAcks drives the
// client through. Each of its connections runs the server inside the
// client's Write: every frame is checked against the stream the test
// sent, then accepted whole, accepted in part (so the count lands
// inside a frame) or accepted with its ack lost, as its seeded
// generator decides. A
// read with no ack queued fails at once like an expired ack deadline.
type ackServer struct {
	t    *testing.T
	mu   sync.Mutex
	rng  *rand.Rand
	recs []Record       // the stream the test sent, by index
	ctxs []TraceContext // parallel to recs

	count   uint64   // records accepted
	noTrace bool     // hellos do not echo the trace flag: the client downgrades
	conn    *ackConn // the live connection
	fails   int      // dials to refuse
	origin  uint64   // a forwarding client's origin; 0 for an exporter
}

type ackConn struct {
	s        *ackServer
	in, out  []byte
	dead     bool
	traced   bool   // this connection's hello echoed the trace flag
	hello    bool   // the next data frame is the first since the hello
	acked    uint64 // the last count acked on this connection
	partial  bool   // a frame was accepted in part: later ones on this connection are gapped
	net.Conn        // nil: the methods below are all the client calls
}

func (s *ackServer) dial() (net.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fails > 0 {
		s.fails--
		return nil, errors.New("refused")
	}
	if s.conn != nil {
		s.conn.dead = true
	}
	s.conn = &ackConn{s: s}
	return s.conn, nil
}

// cut kills the live connection, as a dropped link would.
func (s *ackServer) cut() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		s.conn.dead = true
	}
}

func (c *ackConn) Read(p []byte) (int, error) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	switch {
	case len(c.out) != 0:
		n := copy(p, c.out)
		c.out = c.out[n:]
		return n, nil
	case c.dead:
		return 0, io.EOF
	}
	return 0, os.ErrDeadlineExceeded
}

func (c *ackConn) Write(p []byte) (int, error) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.dead {
		return 0, net.ErrClosed
	}
	n := len(p)
	if s.rng.Intn(16) == 0 { // the link drops mid-write
		n = s.rng.Intn(len(p) + 1)
	}
	c.in = append(c.in, p[:n]...)
	for !c.dead && len(c.in) >= HeaderSize {
		ftype, size, err := checkHeader(c.in)
		if err != nil {
			s.t.Errorf("client wrote a bad header: %v", err)
			c.dead = true
			break
		}
		if len(c.in) < HeaderSize+size {
			break
		}
		c.frame(ftype, c.in[HeaderSize:HeaderSize+size])
		c.in = c.in[HeaderSize+size:]
	}
	if n < len(p) {
		c.dead = true
		return n, net.ErrClosed
	}
	return n, nil
}

// frame serves one whole frame. Caller holds s.mu.
func (c *ackConn) frame(ftype uint8, payload []byte) {
	s := c.s
	if ftype == TypeHello {
		_, base, flags, err := ParseHello(payload)
		if err != nil {
			s.t.Errorf("hello: %v", err)
			c.dead = true
			return
		}
		s.count = max(s.count, base)
		c.traced = flags&HelloFlagTrace != 0 && !s.noTrace
		echo := flags & HelloFlagForward
		if c.traced {
			echo |= HelloFlagTrace
		}
		c.hello, c.acked = true, s.count
		c.out = AppendAck(c.out, s.count, echo)
		return
	}
	var slab Slab
	slab.recsBuf = make([]Record, 0, SlabCap)
	h, err := slab.AppendBatch(ftype, payload)
	plain, traced := uint8(TypeSealed), uint8(TypeTracedSealed)
	if s.origin != 0 {
		plain, traced = TypeForwarded, TypeTracedForwarded
	}
	switch {
	case err != nil || (ftype != plain && ftype != traced) || h.Origin != s.origin:
		s.t.Errorf("client wrote a type-%d frame from origin %#x: %v", ftype, h.Origin, err)
		c.dead = true
		return
	case ftype == traced && !c.traced:
		s.t.Errorf("traced frame on a connection that refused the lane")
	case c.hello && h.Seq != c.acked:
		s.t.Errorf("first frame after a hello acking %d starts at %d", c.acked, h.Seq)
	}
	c.hello = false
	end := h.Seq + uint64(slab.Len())
	if end > uint64(len(s.recs)) {
		s.t.Errorf("frame [%d, %d) past the %d records sent", h.Seq, end, len(s.recs))
		c.dead = true
		return
	}
	for i, r := range slab.Recs {
		if r != s.recs[h.Seq+uint64(i)] {
			s.t.Errorf("record %d: got %+v want %+v", h.Seq+uint64(i), r, s.recs[h.Seq+uint64(i)])
			break
		}
		if slab.Ctxs == nil {
			continue
		}
		got := slab.Ctxs[i]
		if got.Origin = 0; got != s.ctxs[h.Seq+uint64(i)] { // the decoder stamps the frame's origin
			s.t.Errorf("record %d: context %+v want %+v", h.Seq+uint64(i), got, s.ctxs[h.Seq+uint64(i)])
			break
		}
	}
	if h.Seq > s.count {
		if !c.partial {
			s.t.Errorf("gap: frame at %d, %d accepted", h.Seq, s.count)
		}
		return
	}
	switch s.rng.Intn(4) {
	case 0: // accepted, the ack lost
		s.count = max(s.count, end)
		return
	case 1: // accepted in part
		cut := h.Seq + uint64(s.rng.Intn(slab.Len()+1))
		s.count, c.partial = max(s.count, cut), c.partial || cut < end
	default:
		s.count = max(s.count, end)
	}
	c.acked = s.count
	c.out = AppendAck(c.out, s.count, 0)
}

func (c *ackConn) Close() error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.dead = true
	return nil
}

func (c *ackConn) SetReadDeadline(time.Time) error  { return nil }
func (c *ackConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzClientAcks drives a client through an in-memory server under
// seeded acks — whole, inside a frame, or none — with cut links,
// refused dials, server restarts and trace-lane downgrades between
// Sends and Flushes. Every frame the server reads must hold exactly
// the records and contexts of its stream indices, and the first one
// after a hello must start at the hello's count, so resent bytes are
// exactly the unacked records. After Close, Sent = Delivered + Lost and
// OnLost saw exactly the abandoned records, in order. A seed with bit 32
// set drives a forwarding client instead, which arms no linger, stamps
// nothing and is offered some runs without contexts: those must arrive
// with zero contexts even inside a traced frame.
func FuzzClientAcks(f *testing.F) {
	f.Add(uint64(1), []byte{0, 40, 1, 3, 3, 0, 0, 9, 5, 0, 0, 20, 4, 0, 2, 0})
	f.Add(uint64(2), []byte{0, 7, 0, 7, 2, 0, 5, 0, 0, 30, 3, 0, 6, 2, 0, 25, 2, 0})
	f.Add(uint64(3), []byte{5, 0, 1, 39, 1, 39, 3, 0, 1, 12, 4, 0, 1, 5})
	f.Add(uint64(1<<32|4), []byte{0, 3, 2, 0, 1, 2, 0, 3, 2, 0, 1, 20, 0, 30, 3, 0, 2, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		s := &ackServer{t: t, rng: rand.New(rand.NewSource(int64(seed)))}
		if seed&(1<<32) != 0 {
			s.origin = 0xF0
		}
		var lost []Record
		c, err := NewClient(ClientConfig{
			Dial: s.dial, Seed: seed | 1, MaxBatch: 8, MaxAttempts: 3,
			Sleep: func(time.Duration) {},
			Trace: true, ForwardOrigin: s.origin,
			OnLost: func(rs []Record) { lost = append(lost, rs...) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for len(ops) >= 2 && len(s.recs) < 2000 {
			op, arg := ops[0], int(ops[1])
			ops = ops[2:]
			switch op % 7 {
			case 0, 1: // Send arg%40+1 records; every third context is zero
				bare := op%7 == 1 && s.origin != 0 // a forwarded run without contexts
				s.mu.Lock()
				at := len(s.recs)
				for i := at; i <= at+arg%40; i++ {
					s.recs = append(s.recs, Record{T: eventq.Time(i), MF: uint16(i), Victim: topology.NodeID(i % 61)})
					ctx := TraceContext{ID: uint64(i)<<8 | 1, Sent: int64(i)}
					if s.origin != 0 {
						ctx.Routed = int64(i) + 1
					}
					if i%3 == 0 || bare {
						ctx = TraceContext{}
					}
					s.ctxs = append(s.ctxs, ctx)
				}
				recs, ctxs := s.recs[at:], s.ctxs[at:]
				s.mu.Unlock()
				if bare {
					ctxs = nil
				}
				c.SendTraced(recs, ctxs)
			case 2:
				c.Flush()
			case 3:
				s.cut()
			case 4: // the server restarts with an empty session table
				s.mu.Lock()
				s.count = 0
				s.mu.Unlock()
				s.cut()
			case 5:
				s.mu.Lock()
				s.noTrace = !s.noTrace
				s.mu.Unlock()
			case 6:
				s.mu.Lock()
				s.fails = arg % 4
				s.mu.Unlock()
			}
		}
		c.Close()
		sent, delivered := c.Sent(), c.Delivered()
		if sent != uint64(len(s.recs)) || sent != delivered+c.Lost() {
			t.Fatalf("sent %d of %d records, delivered %d + lost %d", sent, len(s.recs), delivered, c.Lost())
		}
		if !slices.Equal(lost, s.recs[delivered:]) {
			t.Fatalf("OnLost saw %d records, want the %d past the %d delivered", len(lost), sent-delivered, delivered)
		}
	})
}
