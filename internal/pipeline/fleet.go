package pipeline

// Fleet aggregation plane: the /cluster/traces endpoint fans a trace
// query out to every alive member's admin plane and merges the per-node
// spans into one timeline — the server side of `ddpmd fleet trace`.
// The pipeline stays cluster-agnostic: the member list comes from the
// daemon's ClusterNode, and each member is queried over plain HTTP
// against the admin address gossip revealed for it.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// FleetMember is one known cluster member as the fleet plane sees it:
// ingest address, member id, liveness, and the admin-plane HTTP address
// learned from gossip ("" until the member has advertised one).
type FleetMember struct {
	Addr      string
	ID        uint64
	Alive     bool
	AdminAddr string
}

// FleetSpan is one member's half of a cross-node timeline: a retained
// trace tagged with the node that holds it.
type FleetSpan struct {
	Node     string `json:"node"`      // ingest address of the member holding the span
	MemberID string `json:"member_id"` // hex member id
	TraceJSON
}

// FleetTrace is the merged /cluster/traces document: every span any
// alive member retained under the queried id, ordered by start time,
// plus the end-to-end detection latency when the timeline ends in a
// block and the exporter send stamp survived the hops.
type FleetTrace struct {
	ID                 string      `json:"id"`
	Spans              []FleetSpan `json:"spans"`
	Errors             []string    `json:"errors,omitempty"` // members that could not be queried
	DetectionLatencyNS int64       `json:"detection_latency_ns,omitempty"`
}

// fleetQueryTimeout bounds each member query: a wedged peer delays the
// merged answer by at most this, and its absence is reported in Errors
// rather than failing the whole document.
const fleetQueryTimeout = 2 * time.Second

// handleFleetTraces serves GET /cluster/traces?id=hex: local spans from
// this node's recorder plus, in parallel, every alive peer's
// /debug/traces answer for the same id, merged into one FleetTrace.
func (d *Daemon) handleFleetTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if d.cluster == nil {
		http.Error(w, "no cluster tier", http.StatusNotFound)
		return
	}
	fr := d.p.Recorder()
	if fr == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	idHex := r.URL.Query().Get("id")
	if idHex == "" {
		http.Error(w, "missing ?id=", http.StatusBadRequest)
		return
	}
	id, err := strconv.ParseUint(idHex, 16, 64)
	if err != nil || id == 0 {
		http.Error(w, fmt.Sprintf("bad trace id %q", idHex), http.StatusBadRequest)
		return
	}

	out := FleetTrace{ID: fmt.Sprintf("%016x", id)}
	members := d.cluster.FleetMembers()
	self := members[0]
	for _, t := range fr.Snapshot(TraceFilter{ID: id, Victim: MatchAny, Source: MatchAny}) {
		out.Spans = append(out.Spans, FleetSpan{Node: self.Addr, MemberID: fmt.Sprintf("%x", self.ID), TraceJSON: t.ToJSON()})
	}

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	client := &http.Client{Timeout: fleetQueryTimeout}
	for _, m := range members[1:] {
		if !m.Alive {
			continue
		}
		if m.AdminAddr == "" {
			mu.Lock()
			out.Errors = append(out.Errors, fmt.Sprintf("%s: admin address not yet gossiped", m.Addr))
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(m FleetMember) {
			defer wg.Done()
			spans, err := queryMemberTraces(client, m.AdminAddr, idHex)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				out.Errors = append(out.Errors, fmt.Sprintf("%s: %v", m.Addr, err))
				return
			}
			mid := fmt.Sprintf("%x", m.ID)
			for _, s := range spans {
				out.Spans = append(out.Spans, FleetSpan{Node: m.Addr, MemberID: mid, TraceJSON: s})
			}
		}(m)
	}
	wg.Wait()

	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].StartNS < out.Spans[j].StartNS })
	sort.Strings(out.Errors)
	// End-to-end detection latency: exporter send to the block decision,
	// read off the span that consulted the blocklist (BlockNS >= 0) and
	// still carries the original send stamp across the hops.
	for i := len(out.Spans) - 1; i >= 0; i-- {
		s := &out.Spans[i]
		if s.Outcome == OutcomeBlock.String() && s.SentNS > 0 {
			out.DetectionLatencyNS = s.StartNS + s.TotalNS - s.SentNS
			break
		}
	}

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// queryMemberTraces fetches one member's retained spans for a trace id
// from its admin plane.
func queryMemberTraces(client *http.Client, adminAddr, idHex string) ([]TraceJSON, error) {
	resp, err := client.Get("http://" + adminAddr + "/debug/traces?id=" + idHex)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var spans []TraceJSON
	err = json.NewDecoder(resp.Body).Decode(&spans)
	return spans, err
}
