package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

// syncBuffer is a locked bytes.Buffer: the SIGQUIT dump goroutine
// writes while the test reads, and the race detector watches both.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestTracesEndpointFiltersAndErrors(t *testing.T) {
	d, err := Start(ServerConfig{
		Pipeline: Config{Net: topology.NewMesh2D(4), Shards: 1, TraceSampleN: 1},
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	fr := d.Pipeline().Recorder()
	commit := func(id uint64, victim int64, out Outcome) {
		tr := Trace{
			ID: id, Start: 1000, Victim: victim, Source: 3, Shard: 0, Outcome: out,
			Wire: 10, Ingest: 20, Identify: 30, Detect: 40, Block: 50,
		}
		commitOne(fr, tr)
	}
	commit(0xabc, 5, OutcomeIdentified)
	commit(0xdef, 6, OutcomeBlock)

	get := func(path string) (int, []TraceJSON) {
		t.Helper()
		code, body := httpGet(t, d, path)
		if code != http.StatusOK {
			return code, nil
		}
		var out []TraceJSON
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
		}
		return code, out
	}

	if _, out := get("/debug/traces"); len(out) != 2 || out[0].ID != "0000000000000def" {
		t.Fatalf("unfiltered: %+v", out)
	}
	if _, out := get("/debug/traces?outcome=block"); len(out) != 1 || out[0].Outcome != "block" {
		t.Fatalf("outcome filter: %+v", out)
	}
	if _, out := get("/debug/traces?victim=5"); len(out) != 1 || out[0].Victim != 5 {
		t.Fatalf("victim filter: %+v", out)
	}
	if _, out := get("/debug/traces?id=abc"); len(out) != 1 || out[0].ID != "0000000000000abc" {
		t.Fatalf("id filter: %+v", out)
	}
	if _, out := get("/debug/traces?limit=1"); len(out) != 1 {
		t.Fatalf("limit filter: %+v", out)
	}
	if _, out := get("/debug/traces?victim=99"); len(out) != 0 {
		t.Fatalf("non-matching victim returned traces: %+v", out)
	}
	// TotalNS excludes the cross-clock wire span.
	if _, out := get("/debug/traces?id=abc"); out[0].TotalNS != 20+30+40+50 {
		t.Fatalf("TotalNS = %d, want %d", out[0].TotalNS, 20+30+40+50)
	}

	for _, bad := range []string{
		"/debug/traces?victim=abc",
		"/debug/traces?source=x",
		"/debug/traces?outcome=nope",
		"/debug/traces?id=zz",
		"/debug/traces?id=0",
		"/debug/traces?limit=-1",
	} {
		if code, _ := httpGet(t, d, bad); code != http.StatusBadRequest {
			t.Errorf("GET %s: code %d, want 400", bad, code)
		}
	}
	resp, err := http.Post("http://"+d.HTTPAddr().String()+"/debug/traces", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: code %d, want 405", resp.StatusCode)
	}
}

func TestTracesEndpointWhenTracingDisabled(t *testing.T) {
	d, err := Start(ServerConfig{
		Pipeline: Config{Net: topology.NewMesh2D(4), Shards: 1, TraceBuffer: -1},
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	if code, body := httpGet(t, d, "/debug/traces"); code != http.StatusNotFound {
		t.Fatalf("disabled tracing: code %d body %q, want 404", code, body)
	}
	// The SIGQUIT dump still brackets its (empty) answer with markers.
	var buf bytes.Buffer
	if err := d.DumpTraces(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "=== ddpmd trace dump: 0 traces ===\n=== end trace dump ===\n" {
		t.Fatalf("disabled dump = %q", got)
	}
}

// TestSIGQUITDumpAndTracesUnderConcurrentIngest is the -race half of
// the admin-plane contract: dumps triggered by a real SIGQUIT and
// /debug/traces scrapes must both be safe while shard workers are
// committing traces at full speed.
func TestSIGQUITDumpAndTracesUnderConcurrentIngest(t *testing.T) {
	net := topology.NewMesh2D(4)
	d, err := Start(ServerConfig{
		Pipeline: Config{
			Net: net, Shards: 2, QueueLen: 1 << 12,
			TraceBuffer: 1 << 12, TraceSampleN: 1, // retain every trace
			LatencySampleEvery: 4, // exemplar stamping races too
		},
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	var dump syncBuffer
	stop := d.WatchDumpSignal(&dump, syscall.SIGQUIT)
	defer stop()

	// Even writers submit record-at-a-time (groups of one), odd writers
	// 16-record slabs: both shapes commit through the same group pass.
	const writers, perWriter = 4, 2000
	mf := mkMF(t, net, 9, 5)
	p := d.Pipeline()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.GetSlab()
			for i := 0; i < perWriter; i++ {
				s.AppendTraced(wire.TracedRecord{
					Record: wire.Record{Topo: p.TopoID(), Victim: 5, MF: mf},
					Ctx: wire.TraceContext{
						ID:   wire.SplitMix64(uint64(w*perWriter + i + 1)),
						Sent: time.Now().UnixNano(),
					},
				})
				if w%2 == 0 || s.Len() == 16 || i == perWriter-1 {
					p.SubmitSlab(s)
					s = p.GetSlab()
				}
			}
			s.Release()
		}(w)
	}

	// Hammer the readers while the writers run: JSON scrapes and real
	// SIGQUITs against our own process.
	for i := 0; i < 20; i++ {
		code, body := httpGet(t, d, "/debug/traces?limit=25")
		if code != http.StatusOK {
			t.Fatalf("GET /debug/traces: code %d body %q", code, body)
		}
		var out []TraceJSON
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("mid-ingest scrape is not JSON: %v", err)
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	// Every submitted record is traced and must get exactly one ending:
	// processed, shed, or rejected — the recorder observes them all.
	deadline := time.Now().Add(10 * time.Second)
	for p.Recorder().Observed() < writers*perWriter {
		if time.Now().After(deadline) {
			t.Fatalf("recorder observed %d of %d traces", p.Recorder().Observed(), writers*perWriter)
		}
		time.Sleep(time.Millisecond)
	}

	// One more SIGQUIT now that ingest is quiet, then wait for its dump
	// (earlier coalesced signals may still be draining).
	footers := func() int { return strings.Count(dump.String(), "=== end trace dump ===") }
	before := footers()
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	for footers() <= before {
		if time.Now().After(deadline) {
			t.Fatal("final SIGQUIT never produced a dump")
		}
		time.Sleep(time.Millisecond)
	}

	// The accumulated stream must be well-formed: matching markers, and
	// every non-marker line a valid trace with a known outcome.
	text := dump.String()
	headers := strings.Count(text, "=== ddpmd trace dump:")
	if headers == 0 || headers < footers() {
		t.Fatalf("dump markers unbalanced: %d headers, %d footers", headers, footers())
	}
	traces := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "=== ") {
			continue
		}
		var tr TraceJSON
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("bad dump line %q: %v", line, err)
		}
		if _, ok := OutcomeFromString(tr.Outcome); !ok {
			t.Fatalf("dump line carries unknown outcome %q", tr.Outcome)
		}
		traces++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if traces == 0 {
		t.Fatal("no traces in any dump despite retain-everything sampling")
	}

	// stop() detaches the handler: a later SIGQUIT must not write.
	stop()
	len0 := len(dump.String())
	time.Sleep(10 * time.Millisecond)
	if got := len(dump.String()); got != len0 {
		t.Fatalf("dump grew after stop(): %d -> %d bytes", len0, got)
	}
}
