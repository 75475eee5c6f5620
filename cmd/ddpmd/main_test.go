package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
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
