package pipeline

// Admin-plane surface of the flight recorder: the /debug/traces JSON
// endpoint, the SIGQUIT dump, and the shared JSON shape `ddpmd trace`
// renders as timelines.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
)

// TraceJSON is the wire shape of one retained trace on /debug/traces
// and in SIGQUIT dumps. The id is hex (a uint64 would lose precision in
// JSON consumers that parse numbers as float64); span durations are
// nanoseconds with -1 meaning the record never reached that stage.
type TraceJSON struct {
	ID      string `json:"id"`
	Outcome string `json:"outcome"`
	Victim  int64  `json:"victim"`
	Source  int64  `json:"source"`
	Shard   int32  `json:"shard"`
	StartNS int64  `json:"start_unix_nano"`
	SentNS  int64  `json:"sent_unix_nano,omitempty"`
	Origin  string `json:"origin,omitempty"` // forwarding member id (hex) when the record crossed a hop

	WireNS     int64 `json:"wire_ns"`
	ForwardNS  int64 `json:"forward_ns"`
	IngestNS   int64 `json:"ingest_ns"`
	IdentifyNS int64 `json:"identify_ns"`
	DetectNS   int64 `json:"detect_ns"`
	BlockNS    int64 `json:"block_ns"`
	TotalNS    int64 `json:"total_ns"`
}

// ToJSON converts a recorder trace to its admin-plane shape.
func (t *Trace) ToJSON() TraceJSON {
	j := TraceJSON{
		ID:      fmt.Sprintf("%016x", t.ID),
		Outcome: t.Outcome.String(),
		Victim:  t.Victim,
		Source:  t.Source,
		Shard:   t.Shard,
		StartNS: t.Start,
		SentNS:  t.Sent,

		WireNS:     t.Wire,
		ForwardNS:  t.Forward,
		IngestNS:   t.Ingest,
		IdentifyNS: t.Identify,
		DetectNS:   t.Detect,
		BlockNS:    t.Block,
		TotalNS:    t.Total(),
	}
	if t.Origin != 0 {
		j.Origin = fmt.Sprintf("%x", t.Origin)
	}
	return j
}

// parseTraceFilter builds a recorder filter from /debug/traces query
// parameters: victim, source (node ids; -1 matches stream-level
// events), outcome (a name from the outcome set), id (16-hex-digit
// trace id) and limit.
func parseTraceFilter(q map[string][]string) (TraceFilter, error) {
	f := AllTraces()
	get := func(k string) string {
		if vs := q[k]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	if v := get("victim"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return f, fmt.Errorf("bad victim %q", v)
		}
		f.Victim = n
	}
	if v := get("source"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return f, fmt.Errorf("bad source %q", v)
		}
		f.Source = n
	}
	if v := get("outcome"); v != "" {
		o, ok := OutcomeFromString(v)
		if !ok {
			return f, fmt.Errorf("unknown outcome %q", v)
		}
		f.Outcome, f.HasOut = o, true
	}
	if v := get("id"); v != "" {
		// Id 0 marks an untraced record, so no trace has it; read as
		// "no filter" it would answer with every retained trace.
		id, err := strconv.ParseUint(v, 16, 64)
		if err != nil || id == 0 {
			return f, fmt.Errorf("bad trace id %q", v)
		}
		f.ID = id
	}
	if v := get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad limit %q", v)
		}
		f.Limit = n
	}
	return f, nil
}

// handleTraces serves retained traces as a JSON array, newest first.
// Filters: ?victim=N ?source=N ?outcome=block ?id=hex ?limit=N.
func (d *Daemon) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	fr := d.p.Recorder()
	if fr == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	f, err := parseTraceFilter(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	traces := fr.Snapshot(f)
	out := make([]TraceJSON, 0, len(traces))
	for i := range traces {
		out = append(out, traces[i].ToJSON())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// DumpTraces writes every retained trace to w as JSON lines, newest
// first, bracketed by marker lines so a dump is findable in a shared
// stderr stream. The no-recorder and empty cases still write the
// markers: a dump that says "0 traces" answers the operator's question.
func (d *Daemon) DumpTraces(w io.Writer) error {
	fr := d.p.Recorder()
	var traces []Trace
	if fr != nil {
		traces = fr.Snapshot(AllTraces())
	}
	if _, err := fmt.Fprintf(w, "=== ddpmd trace dump: %d traces ===\n", len(traces)); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i := range traces {
		if err := enc.Encode(traces[i].ToJSON()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "=== end trace dump ===")
	return err
}

// WatchDumpSignal dumps the flight recorder to w whenever one of sigs
// arrives (ddpmd wires SIGQUIT) and returns a stop function. Installing
// a handler replaces Go's default die-with-stacks SIGQUIT behavior —
// deliberate: a live daemon answering SIGQUIT with traces instead of
// dying is the point.
func (d *Daemon) WatchDumpSignal(w io.Writer, sigs ...os.Signal) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				if err := d.DumpTraces(w); err != nil {
					return
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}
