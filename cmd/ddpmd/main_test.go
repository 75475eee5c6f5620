package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// TestEffectiveBlockTTL: the serve flag promises "0 or negative =
// permanent", but pipeline.Config treats 0 as "use the 60s default" —
// the CLI must translate, or -block-ttl 0 silently means one minute.
// (pipeline's TestBlockTTLPermanentNegative covers the other side: a
// negative BlockTTL survives applyDefaults and blocks permanently.)
func TestEffectiveBlockTTL(t *testing.T) {
	cases := []struct {
		in, want time.Duration
	}{
		{0, -1},
		{-time.Second, -1},
		{time.Minute, time.Minute},
		{5 * time.Second, 5 * time.Second},
	}
	for _, c := range cases {
		if got := effectiveBlockTTL(c.in); got != c.want {
			t.Errorf("effectiveBlockTTL(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestAdminGet: the client commands' one admin-plane read decodes a 200
// into the daemon's type, hands back a non-200's status and body with
// an error naming the path without its query, and reports no status
// when nothing answered.
func TestAdminGet(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/victims":
			fmt.Fprint(w, `[{"node":63,"alarmed":true,"identified":7,"top_sources":[{"node":5,"count":7}],"added_later":1}]`)
		case "/garbled":
			fmt.Fprint(w, `{`)
		default:
			http.Error(w, "no cluster tier", http.StatusNotFound)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var reports []pipeline.VictimReport
	if code, _, err := adminGet(client, addr, "/victims?k=5", &reports); code != http.StatusOK || err != nil {
		t.Fatalf("/victims: %d, %v", code, err)
	}
	want := []pipeline.VictimReport{{Node: 63, Alarmed: true, Identified: 7, TopSources: []pipeline.SourceCount{{Node: 5, Count: 7}}}}
	if !reflect.DeepEqual(reports, want) {
		t.Fatalf("decoded %+v, want %+v", reports, want)
	}

	code, body, err := adminGet(client, addr, "/cluster?x=1", &reports)
	if code != http.StatusNotFound || string(body) != "no cluster tier\n" || err == nil || err.Error() != "GET /cluster: 404: no cluster tier" {
		t.Fatalf("/cluster: %d %q %v", code, body, err)
	}
	if _, _, err := adminGet(client, addr, "/garbled", &reports); err == nil || !strings.HasPrefix(err.Error(), "bad /garbled response: ") {
		t.Fatalf("/garbled: %v", err)
	}
	srv.Close()
	if code, _, err := adminGet(client, addr, "/victims", &reports); code != 0 || err == nil {
		t.Fatalf("closed server: %d, %v", code, err)
	}
}

// TestDeliverAccountsForEveryRecord: loadgen's one delivery path, over
// in-process daemons. With one target and with two, every record is
// acked and the daemons together process exactly what was sent; a
// closed listener's address gets every record counted lost, the exit-1
// case a fire-and-forget stream could not report.
func TestDeliverAccountsForEveryRecord(t *testing.T) {
	res, err := loadgen.Generate(loadgen.Scenario{
		Topo: core.TopoSpec{Kind: "torus", Dims: []int{4, 4}}, Victim: -1,
		Zombies: 2, Seed: 5, Warmup: 300, Attack: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	net2, err := buildNet("torus", "4x4")
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(res.Records))
	for _, targets := range []int{1, 2} {
		daemons := make([]*pipeline.Daemon, targets)
		addrs := make([]string, targets)
		for i := range daemons {
			d, err := pipeline.Start(pipeline.ServerConfig{Pipeline: pipeline.Config{Net: net2}, TCPAddr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			daemons[i], addrs[i] = d, d.TCPAddr().String()
		}
		sent, delivered, lost, err := deliver(res, addrs, wire.ClientConfig{Seed: 3, MaxBatch: 64})
		if err != nil || sent != n || delivered != n || lost != 0 {
			t.Fatalf("%d targets: sent %d, delivered %d, lost %d of %d records (%v)", targets, sent, delivered, lost, n, err)
		}
		var processed uint64
		for _, d := range daemons {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := d.Shutdown(ctx)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			processed += d.Pipeline().Snapshot().Processed
		}
		if processed != n {
			t.Fatalf("%d targets: daemons processed %d of %d records", targets, processed, n)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	sent, delivered, lost, err := deliver(res, []string{closed}, wire.ClientConfig{Seed: 3, MaxAttempts: 1, MaxBatch: 64})
	if err != nil || sent != n || delivered != 0 || lost != n {
		t.Fatalf("closed listener: sent %d, delivered %d, lost %d of %d records (%v)", sent, delivered, lost, n, err)
	}
}
