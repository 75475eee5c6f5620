package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

func httpGet(t *testing.T, d *Daemon, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", d.HTTPAddr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestGracefulShutdownDrainsWithoutLossAndHealthzFlips(t *testing.T) {
	topo := topology.NewMesh2D(4)
	gate := make(chan struct{})
	var released atomic.Bool
	d, err := Start(ServerConfig{
		Pipeline: Config{
			Net: topo, Shards: 1, QueueLen: 4096,
			Now: func() int64 {
				if !released.Load() {
					<-gate // hold the worker so records stay queued
				}
				return 0
			},
		},
		TCPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		DrainGrace: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	if code, body := httpGet(t, d, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz before shutdown: %d %q", code, body)
	}

	// Stream records and close the conn so the handler finishes.
	conn, err := net.Dial("tcp", d.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	const N = 500
	recs := make([]wire.Record, N)
	topoID := d.Pipeline().TopoID()
	for i := range recs {
		recs[i] = wire.Record{T: 1, Topo: topoID, Victim: topology.NodeID(i % 16), MF: 0}
	}
	if _, err := conn.Write(wire.AppendFrame(nil, recs)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Wait until every record is ingested (queued, worker stalled).
	deadline := time.Now().Add(10 * time.Second)
	for d.Pipeline().C.Ingested.Load() < N {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d records ingested", d.Pipeline().C.Ingested.Load(), N)
		}
		time.Sleep(time.Millisecond)
	}

	// SIGTERM path: Shutdown must flip /healthz to draining while the
	// queue empties, and lose nothing.
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- d.Shutdown(context.Background()) }()

	for {
		code, body := httpGet(t, d, "/healthz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, "draining") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to draining")
		}
		time.Sleep(time.Millisecond)
	}

	released.Store(true)
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	c := &d.Pipeline().C
	if c.Dropped.Load() != 0 {
		t.Errorf("%d records dropped during drain", c.Dropped.Load())
	}
	if got := c.Processed.Load(); got != N {
		t.Errorf("processed %d of %d queued records — drain lost data", got, N)
	}
}

func TestDaemonUDPIngestAndDecodeErrors(t *testing.T) {
	topo := topology.NewMesh2D(4)
	d, err := Start(ServerConfig{
		Pipeline: Config{Net: topo, Shards: 2},
		UDPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	conn, err := net.Dial("udp", d.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	recs := []wire.Record{
		{T: 1, Topo: d.Pipeline().TopoID(), Victim: 3, MF: 0},
		{T: 2, Topo: d.Pipeline().TopoID(), Victim: 7, MF: 0},
	}
	if _, err := conn.Write(wire.AppendFrame(nil, recs)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("definitely not a frame")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Pipeline().C.Ingested.Load() < 2 || decodeErrors(t, d) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("udp ingest stuck: ingested=%d decodeErrs=%d",
				d.Pipeline().C.Ingested.Load(), decodeErrors(t, d))
		}
		time.Sleep(time.Millisecond)
	}
	if _, body := httpGet(t, d, "/metrics"); !strings.Contains(body, "ddpmd_decode_errors_total 1") {
		t.Errorf("metrics missing decode error counter:\n%s", body)
	}
}

func TestBlocklistAdminEndpoint(t *testing.T) {
	topo := topology.NewMesh2D(4)
	var clock atomic.Int64
	var journal bytes.Buffer
	d, err := Start(ServerConfig{
		Pipeline: Config{Net: topo, Now: func() int64 { return clock.Load() }, Journal: NewJournal(&journal, 64)},
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	post := func(body string) int {
		resp, err := http.Post(fmt.Sprintf("http://%s/blocklist", d.HTTPAddr()), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"node":5,"ttl_ms":1000}`); code != http.StatusNoContent {
		t.Fatalf("block POST: %d", code)
	}
	if code := post(`{"node":3}`); code != http.StatusNoContent {
		t.Fatalf("permanent block POST: %d", code)
	}
	if code := post(`{"node":99}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node POST: %d, want 400", code)
	}
	// A TTL whose deadline wraps int64 nanoseconds would block nothing.
	if code := post(`{"node":6,"ttl_ms":9223372036855}`); code != http.StatusBadRequest {
		t.Fatalf("overflowing ttl_ms POST: %d, want 400", code)
	}
	if d.Pipeline().Blocklist().Len() != 2 {
		t.Fatalf("overflowing ttl_ms POST changed the blocklist: %d entries", d.Pipeline().Blocklist().Len())
	}
	_, body := httpGet(t, d, "/blocklist")
	if !strings.Contains(body, `"node":3`) || !strings.Contains(body, `"node":5`) {
		t.Fatalf("blocklist GET missing entries: %s", body)
	}
	if !d.Pipeline().Blocklist().BlockedAt(5, clock.Load()) {
		t.Error("TTL block not in force")
	}
	// TTL lapse via the fake clock: entry disappears from GET.
	clock.Add((2 * time.Second).Nanoseconds())
	_, body = httpGet(t, d, "/blocklist")
	if strings.Contains(body, `"node":5`) {
		t.Errorf("lapsed TTL entry still listed: %s", body)
	}
	if !strings.Contains(body, `"node":3`) {
		t.Errorf("permanent entry vanished: %s", body)
	}
	// Unblock.
	if code := post(`{"node":3,"unblock":true}`); code != http.StatusNoContent {
		t.Fatalf("unblock POST: %d", code)
	}
	if d.Pipeline().Blocklist().Len() != 0 {
		t.Error("unblock left entries behind")
	}
	// The GET above pruned node 5 before any scrape saw it lapse; the
	// audit trail must still close the block with exactly one expiry.
	d.Pipeline().Snapshot()
	if err := d.Shutdown(context.Background()); err != nil { // flushes the journal
		t.Fatalf("shutdown: %v", err)
	}
	expiries := 0
	for _, ev := range decodeEvents(t, journal.Bytes()) {
		if ev.Type == EventBlockExpired && ev.Source == 5 {
			expiries++
		}
	}
	if expiries != 1 {
		t.Errorf("journal holds %d block_expired events for node 5, want 1:\n%s", expiries, journal.String())
	}
}

func TestVictimsEndpointAndPprofGate(t *testing.T) {
	topo := topology.NewMesh2D(4)
	d, err := Start(ServerConfig{
		Pipeline:    Config{Net: topo, Shards: 2},
		HTTPAddr:    "127.0.0.1:0",
		EnablePprof: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	p := d.Pipeline()
	for _, v := range []topology.NodeID{9, 2} {
		if !submit(p, wire.Record{T: 1, Topo: p.TopoID(), Victim: v, MF: 0}) {
			t.Fatal("submit shed")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.C.Processed.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("records never processed")
		}
		time.Sleep(time.Millisecond)
	}

	code, body := httpGet(t, d, "/victims?k=2")
	if code != http.StatusOK {
		t.Fatalf("GET /victims: %d %s", code, body)
	}
	var reports []VictimReport
	if err := json.Unmarshal([]byte(body), &reports); err != nil {
		t.Fatalf("bad /victims JSON %q: %v", body, err)
	}
	if len(reports) != 2 || reports[0].Node != 2 || reports[1].Node != 9 {
		t.Fatalf("reports = %+v, want nodes [2 9] sorted", reports)
	}
	// MF 0 identifies src == victim: one tallied top source each.
	if len(reports[0].TopSources) != 1 || reports[0].TopSources[0].Node != 2 {
		t.Errorf("victim 2 top sources = %+v", reports[0].TopSources)
	}
	if reports[0].Alarmed || reports[0].Identified != 1 {
		t.Errorf("victim 2 report = %+v", reports[0])
	}

	// An absurd k is "everything", not an allocation size.
	if code, all := httpGet(t, d, "/victims?k=1099511627776"); code != http.StatusOK || len(all) > 2*len(body) {
		t.Errorf("GET /victims?k=2^40: %d, %d-byte body (k=2 gave %d bytes)", code, len(all), len(body))
	}
	if code, body := httpGet(t, d, "/victims?k=junk"); code != http.StatusBadRequest {
		t.Errorf("bad k: %d %s, want 400", code, body)
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/victims", d.HTTPAddr()), "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /victims: %d, want 405", resp.StatusCode)
	}
	if code, _ := httpGet(t, d, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof enabled but /debug/pprof/cmdline = %d", code)
	}

	// pprof stays off unless asked: a second daemon without the opt-in.
	d2, err := Start(ServerConfig{Pipeline: Config{Net: topo}, HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown(context.Background())
	if code, _ := httpGet(t, d2, "/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("pprof reachable without opt-in: %d", code)
	}
}

func TestShutdownFlushesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewMesh2D(4)
	d, err := Start(ServerConfig{
		Pipeline: Config{Net: topo, Journal: j},
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{T: 1, Type: EventResync, Victim: -1, Source: -1, Detail: "test"})
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Shutdown closed the journal: the event is on disk and late emits shed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"stream_resync"`) {
		t.Errorf("journal file missing flushed event: %q", data)
	}
	if j.Emit(Event{Type: EventResync}) {
		t.Error("emit after daemon shutdown reported success")
	}
}
