package pipeline

import (
	"context"
	"net"
	"net/http"
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
	if got := d.DecodeErrors(); got != 2 {
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
	errsBefore := d.DecodeErrors()
	b = wire.AppendFrame(nil, recs[:2])
	b = append(b, "trailing junk"...)
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, d, 8)
	deadline := time.Now().Add(10 * time.Second)
	for d.DecodeErrors() == errsBefore {
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
