package pipeline

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

func startDaemon(t *testing.T, cfg ServerConfig) *Daemon {
	t.Helper()
	if cfg.Pipeline.Net == nil {
		cfg.Pipeline.Net = topology.NewMesh2D(4)
	}
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Shutdown(context.Background()) })
	return d
}

func waitIngested(t *testing.T, d *Daemon, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.Pipeline().C.Ingested.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d", d.Pipeline().C.Ingested.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// decodeErrors reads ddpmd_decode_errors_total off the daemon's
// /metrics document.
func decodeErrors(t *testing.T, d *Daemon) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	d.handleMetrics(rec, nil)
	m := regexp.MustCompile(`(?m)^ddpmd_decode_errors_total (\d+)$`).FindStringSubmatch(rec.Body.String())
	if m == nil {
		t.Fatalf("no ddpmd_decode_errors_total on /metrics:\n%s", rec.Body.String())
	}
	n, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func daemonRecords(d *Daemon, n int) []wire.Record {
	recs := make([]wire.Record, n)
	for i := range recs {
		recs[i] = wire.Record{T: 1, Topo: d.Pipeline().TopoID(), Victim: topology.NodeID(i % 16)}
	}
	return recs
}

// TestPlainStreamSurvivesMidStreamCorruption is the acceptance test for
// server-side resync: garbage in the middle of a legacy TCP stream used
// to kill the connection and everything after it.
func TestPlainStreamSurvivesMidStreamCorruption(t *testing.T) {
	d := startDaemon(t, ServerConfig{TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	conn, err := net.Dial("tcp", d.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	recs := daemonRecords(d, 8)
	var b []byte
	b = wire.AppendFrame(b, recs[:4])
	b = append(b, 0xDE, 0xAD, 0xBE, 0xEF, 0x42) // mid-stream garbage, no 0xD0
	// A well-formed forwarded frame on a hello-less stream is refused —
	// its records must not be flattened into plain ingest — but not
	// silently: it is one decode error, like the resync skip above.
	b = wire.AppendForwarded(b, 0xF00D, 0, recs[:3])
	b = wire.AppendFrame(b, recs[4:])
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, d, 8)
	if got := decodeErrors(t, d); got != 2 {
		t.Errorf("decode errors = %d, want 2 (one resync skip, one refused forwarded frame)", got)
	}
	if got := d.Pipeline().C.Ingested.Load(); got != 8 {
		t.Errorf("ingested %d records, want 8 (forwarded records leaked into plain ingest)", got)
	}
	if _, body := httpGet(t, d, "/metrics"); !strings.Contains(body, "ddpmd_resync_skipped_bytes_total 5") {
		t.Errorf("metrics missing skipped-bytes counter:\n%s", body)
	}
}

// TestSessionIngestDeduplicatesRetransmits drives the session protocol
// by hand: a retransmitted sealed frame (the client's view after a lost
// ack) must advance nothing, and the ack must repeat the count.
func TestSessionIngestDeduplicatesRetransmits(t *testing.T) {
	d := startDaemon(t, ServerConfig{TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	conn, err := net.Dial("tcp", d.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := wire.NewReader(conn)
	readAck := func(want uint64) {
		t.Helper()
		for {
			ftype, payload, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("reading ack: %v", err)
			}
			if ftype != wire.TypeAck {
				continue
			}
			count, _, err := wire.ParseAck(payload)
			if err != nil {
				t.Fatal(err)
			}
			if count != want {
				t.Fatalf("ack %d, want %d", count, want)
			}
			return
		}
	}

	recs := daemonRecords(d, 20)
	if _, err := conn.Write(wire.AppendHello(nil, 0xBEEF, 0, 0)); err != nil {
		t.Fatal(err)
	}
	readAck(0)
	if _, err := conn.Write(wire.AppendSealed(nil, 0, recs[:10])); err != nil {
		t.Fatal(err)
	}
	readAck(10)
	// Retransmit the same batch — a client that never saw the ack.
	if _, err := conn.Write(wire.AppendSealed(nil, 0, recs[:10])); err != nil {
		t.Fatal(err)
	}
	readAck(10)
	// Overlapping batch: first half already accepted, second half new.
	if _, err := conn.Write(wire.AppendSealed(nil, 5, recs[5:20])); err != nil {
		t.Fatal(err)
	}
	readAck(20)

	waitIngested(t, d, 20)
	if got := d.Pipeline().C.Ingested.Load(); got != 20 {
		t.Errorf("ingested %d records, want 20 (dedup failed)", got)
	}
	if got := d.sessionRecs.Load(); got != 20 {
		t.Errorf("session records %d, want 20", got)
	}
	if _, body := httpGet(t, d, "/metrics"); !strings.Contains(body, "ddpmd_sessions_total 1") {
		t.Errorf("metrics missing session counter:\n%s", body)
	}
}

// writeSessionBurst dials d and sends a hello for stream plus frames in
// one write, so the daemon's first read holds them all, and returns the
// conn's reader after checking the hello ack.
func writeSessionBurst(t *testing.T, d *Daemon, stream uint64, frames []byte) (net.Conn, *wire.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", d.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(append(wire.AppendHello(nil, stream, 0, 0), frames...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := wire.NewReader(conn)
	ftype, payload, err := r.ReadFrame()
	if err != nil || ftype != wire.TypeAck {
		t.Fatalf("hello ack: type %d, err %v", ftype, err)
	}
	if count, _, err := wire.ParseAck(payload); err != nil || count != 0 {
		t.Fatalf("hello ack %d, err %v; want 0", count, err)
	}
	return conn, r
}

// TestSessionBurstOneCumulativeAck: five sealed frames behind a hello in
// one write — a whole-frame retransmit and a retransmitted prefix that
// ends mid-frame among them — are one burst: one cumulative ack, and
// every record counted exactly once.
func TestSessionBurstOneCumulativeAck(t *testing.T) {
	d := startDaemon(t, ServerConfig{TCPAddr: "127.0.0.1:0"})
	recs := daemonRecords(d, 30)
	var b []byte
	b = wire.AppendSealed(b, 0, recs[:10])
	b = wire.AppendSealed(b, 0, recs[:10])  // retransmitted whole
	b = wire.AppendSealed(b, 5, recs[5:15]) // retransmitted prefix ends mid-frame
	b = wire.AppendSealed(b, 15, recs[15:22])
	b = wire.AppendSealed(b, 22, recs[22:30])
	conn, r := writeSessionBurst(t, d, 0xB0B5, b)

	ftype, payload, err := r.ReadFrame()
	if err != nil || ftype != wire.TypeAck {
		t.Fatalf("burst ack: type %d, err %v", ftype, err)
	}
	if count, _, err := wire.ParseAck(payload); err != nil || count != 30 {
		t.Fatalf("burst ack %d, err %v; want 30", count, err)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if ftype, _, err := r.ReadFrame(); err == nil {
		t.Fatalf("a second frame (type %d) after the burst's ack; want exactly one ack", ftype)
	}
	waitIngested(t, d, 30)
	if got := d.Pipeline().C.Ingested.Load(); got != 30 {
		t.Errorf("ingested %d records, want 30", got)
	}
	if got := d.sessionRecs.Load(); got != 30 {
		t.Errorf("session records %d, want 30", got)
	}
	if got := decodeErrors(t, d); got != 0 {
		t.Errorf("decode errors %d, want 0", got)
	}
}

// TestSessionBurstGapIngestsPrefix: a sequence gap in a burst's third
// frame still submits the two frames before it, then drops the conn
// unacked and counts one decode error.
func TestSessionBurstGapIngestsPrefix(t *testing.T) {
	d := startDaemon(t, ServerConfig{TCPAddr: "127.0.0.1:0"})
	recs := daemonRecords(d, 50)
	var b []byte
	b = wire.AppendSealed(b, 0, recs[:10])
	b = wire.AppendSealed(b, 10, recs[10:20])
	b = wire.AppendSealed(b, 25, recs[25:30]) // records 20–24 never sent
	b = wire.AppendSealed(b, 30, recs[30:40])
	b = wire.AppendSealed(b, 40, recs[40:50])
	_, r := writeSessionBurst(t, d, 0xB0B6, b)

	if ftype, _, err := r.ReadFrame(); err == nil {
		t.Fatalf("read a type-%d frame after a gapped burst; want the conn dropped", ftype)
	}
	waitIngested(t, d, 20)
	if got := d.Pipeline().C.Ingested.Load(); got != 20 {
		t.Errorf("ingested %d records, want 20 (frames 1–2)", got)
	}
	if got := d.sessionRecs.Load(); got != 20 {
		t.Errorf("session records %d, want 20", got)
	}
	if got := decodeErrors(t, d); got != 1 {
		t.Errorf("decode errors %d, want 1", got)
	}
}

// TestSessionCreditShedsNothing: one session flooding far more than its
// shard queues hold (QueueLen 4, each element up to a slab) is paced by
// slab credit instead of shed: nothing dropped, never more than
// sessionSlabs slabs out, every record processed, every slab returned.
func TestSessionCreditShedsNothing(t *testing.T) {
	d := startDaemon(t, ServerConfig{
		TCPAddr:  "127.0.0.1:0",
		Pipeline: Config{Net: topology.NewMesh2D(4), Shards: 2, QueueLen: 4},
	})
	p := d.Pipeline()
	stop := make(chan struct{})
	maxOut := make(chan int64)
	go func() {
		var hi int64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				hi = max(hi, p.SlabsOutstanding())
			case <-stop:
				maxOut <- hi
				return
			}
		}
	}()

	const total = 200_000 // ≈ 18 × QueueLen × SlabCap
	c, err := wire.NewClient(wire.ClientConfig{Addr: d.TCPAddr().String(), Seed: 5, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	recs := daemonRecords(d, 1024)
	for sent := 0; sent < total; sent += len(recs) {
		if err := c.Send(recs); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for p.C.Processed.Load()+p.C.Dropped.Load() < c.Delivered() || p.SlabsOutstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d of %d, %d slabs outstanding", p.C.Processed.Load(), c.Delivered(), p.SlabsOutstanding())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	hi := <-maxOut
	if c.Delivered() != c.Sent() || c.Sent() < total {
		t.Fatalf("client delivered %d of %d sent", c.Delivered(), c.Sent())
	}
	if got := p.C.Dropped.Load(); got != 0 {
		t.Errorf("dropped %d records under a compliant exporter, want 0", got)
	}
	if got := p.C.Processed.Load(); got != c.Sent() {
		t.Errorf("processed %d records, want %d", got, c.Sent())
	}
	if hi > sessionSlabs {
		t.Errorf("%d slabs outstanding at a sample, want at most %d", hi, sessionSlabs)
	}
}

// TestSessionHelloFastForwardsRestartedServer: a fresh daemon greeted
// with a non-zero base must ack it rather than demanding history it
// never saw.
func TestSessionHelloFastForwardsRestartedServer(t *testing.T) {
	d := startDaemon(t, ServerConfig{TCPAddr: "127.0.0.1:0"})
	conn, err := net.Dial("tcp", d.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendHello(nil, 0xBEEF, 500, 0)); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(conn)
	ftype, payload, err := r.ReadFrame()
	if err != nil || ftype != wire.TypeAck {
		t.Fatalf("ack read: type=%d err=%v", ftype, err)
	}
	count, _, err := wire.ParseAck(payload)
	if err != nil || count != 500 {
		t.Fatalf("ack %d err=%v, want 500", count, err)
	}
}

// TestIdleTimeoutShedsSlowPeer: a peer that sends half a header and
// stalls must be cut and counted, not hold a connection slot forever.
func TestIdleTimeoutShedsSlowPeer(t *testing.T) {
	d := startDaemon(t, ServerConfig{TCPAddr: "127.0.0.1:0", IdleTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", d.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xD0, 0x5E, 0x01}); err != nil { // half a header, then silence
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.idleTimeouts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slowloris peer never shed")
		}
		time.Sleep(time.Millisecond)
	}
	// The server really closed the conn: our read sees EOF/reset.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection still open after idle timeout")
	}
}

// TestUDPDatagramWithMultipleFrames: every frame packed into one
// datagram counts; trailing garbage is rejected without voiding the
// frames before it.
func TestUDPDatagramWithMultipleFrames(t *testing.T) {
	d := startDaemon(t, ServerConfig{UDPAddr: "127.0.0.1:0"})
	conn, err := net.Dial("udp", d.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	recs := daemonRecords(d, 6)
	var b []byte
	b = wire.AppendFrame(b, recs[:2])
	b = wire.AppendFrame(b, recs[2:5])
	b = wire.AppendFrame(b, recs[5:])
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, d, 6)

	// Valid frame then garbage in the same datagram: frame counts,
	// garbage is one decode error.
	errsBefore := decodeErrors(t, d)
	b = wire.AppendFrame(nil, recs[:2])
	b = append(b, "trailing junk"...)
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, d, 8)
	deadline := time.Now().Add(10 * time.Second)
	for decodeErrors(t, d) == errsBefore {
		if time.Now().After(deadline) {
			t.Fatal("trailing datagram garbage not counted")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdminPlaneFailureSurfaces is the regression test for the silently
// discarded http.Serve error: when the admin listener dies under the
// daemon, the error must reach Err and the Errors channel instead of
// vanishing.
func TestAdminPlaneFailureSurfaces(t *testing.T) {
	d := startDaemon(t, ServerConfig{HTTPAddr: "127.0.0.1:0"})
	if err := d.Err(); err != nil {
		t.Fatalf("daemon unhealthy at start: %v", err)
	}
	d.httpLn.Close() // the admin plane dies out from under the daemon
	select {
	case err := <-d.Errors():
		if err == nil {
			t.Fatal("nil error delivered")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("admin serve failure never surfaced")
	}
	if d.Err() == nil {
		t.Error("Err() nil after admin plane failure")
	}
}

// TestHealthzReportsFailure: a daemon with a recorded fatal error must
// fail readiness even though the handler itself still answers.
func TestHealthzReportsFailure(t *testing.T) {
	d := startDaemon(t, ServerConfig{HTTPAddr: "127.0.0.1:0"})
	if code, _ := httpGet(t, d, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while healthy: %d", code)
	}
	d.fail(errTest)
	if code, body := httpGet(t, d, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "failed") {
		t.Fatalf("healthz after failure: %d %q", code, body)
	}
}

var errTest = net.ErrClosed
