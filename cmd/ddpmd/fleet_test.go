package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pipeline"
)

// TestFleetTraceMerges runs the fleet trace fan-out against httptest
// members: the spans of every alive member come back in start order
// whichever member held them, a member without a gossiped admin address
// and one answering 500 each cost one error entry, a dead member is not
// asked, and the detection latency is read off the block span, not the
// forwarded one that also carries the send stamp.
func TestFleetTraceMerges(t *testing.T) {
	const id = 0xab
	member := func(spans []pipeline.TraceJSON) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/debug/traces" || r.URL.Query().Get("id") != "00000000000000ab" {
				t.Errorf("member asked for %s", r.URL)
			}
			if spans == nil {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			json.NewEncoder(w).Encode(spans)
		}))
		t.Cleanup(srv.Close)
		return strings.TrimPrefix(srv.URL, "http://")
	}
	fwd := pipeline.TraceJSON{Outcome: pipeline.OutcomeForwarded.String(), StartNS: 150, SentNS: 100, TotalNS: 5}
	early := pipeline.TraceJSON{Outcome: pipeline.OutcomeIdentified.String(), StartNS: 100}
	block := pipeline.TraceJSON{Outcome: pipeline.OutcomeBlock.String(), StartNS: 200, SentNS: 100, TotalNS: 30}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("dead member asked for %s", r.URL)
	}))
	defer dead.Close()

	roster := []cluster.MemberStatus{
		{Addr: "a:1", ID: 0xa, Alive: true, AdminAddr: member([]pipeline.TraceJSON{fwd, early})},
		{Addr: "b:1", ID: 0xb, Alive: true, AdminAddr: member([]pipeline.TraceJSON{block})},
		{Addr: "c:1", ID: 0xc, Alive: true},
		{Addr: "d:1", ID: 0xd, Alive: true, AdminAddr: member(nil)},
		{Addr: "e:1", ID: 0xe, AdminAddr: strings.TrimPrefix(dead.URL, "http://")},
	}
	doc := fleetTrace(http.DefaultClient, roster, id)

	if doc.ID != "00000000000000ab" {
		t.Errorf("id %q", doc.ID)
	}
	want := []FleetSpan{
		{Node: "a:1", MemberID: "a", TraceJSON: early},
		{Node: "a:1", MemberID: "a", TraceJSON: fwd},
		{Node: "b:1", MemberID: "b", TraceJSON: block},
	}
	if !reflect.DeepEqual(doc.Spans, want) {
		t.Errorf("spans %+v, want %+v in start order", doc.Spans, want)
	}
	wantErrs := []string{
		"c:1: admin address not yet gossiped",
		"d:1: GET /debug/traces: 500: boom",
	}
	if !reflect.DeepEqual(doc.Errors, wantErrs) {
		t.Errorf("errors %q, want %q", doc.Errors, wantErrs)
	}
	if doc.DetectionLatencyNS != 130 {
		t.Errorf("detection latency %d, want 130 (block span: start 200 + total 30 - sent 100)", doc.DetectionLatencyNS)
	}
}
