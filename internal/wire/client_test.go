package wire

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// sessionServer is a minimal in-process implementation of the daemon's
// session protocol: hello → ack, sealed → dedup + ack, with optional
// connection kills to force the client through its reconnect path.
type sessionServer struct {
	t  *testing.T
	ln net.Listener

	killEveryFrames int // close each conn after this many sealed frames (0 = never)

	mu    sync.Mutex
	count uint64
	got   []Record
	conns int
	live  map[net.Conn]struct{}
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
			c := s.count
			s.mu.Unlock()
			scratch = AppendAck(scratch[:0], c, 0)
			if _, err := conn.Write(scratch); err != nil {
				return
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
		BackoffBase: 1, BackoffMax: 1,
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
	c, err := NewClient(ClientConfig{Addr: ln.Addr().String(), Seed: 9, MaxBatch: batch, AckTimeout: time.Minute})
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
		BackoffBase:   1, BackoffMax: 1,
		Sleep:  func(time.Duration) {},
		OnLost: func(rs []Record) { lost = append(lost, rs...) },
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
		BackoffBase: 1, BackoffMax: 1,
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
