package main

// ddpmd fleet — fleet-wide observability commands. Each starts from a
// single member's admin plane, discovers the roster (and every
// member's gossiped admin address) from its /cluster, then asks each
// member for its own answer and merges them client-side: the daemon
// itself never calls another member's admin plane. Like every client
// command they decode the daemon's own exported types (cluster.Status,
// pipeline.VictimReport, pipeline.TraceJSON) and keep no mirror of
// them; FleetTrace is this command's own merge of those.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipeline"
)

func runFleet(args []string) {
	if len(args) < 1 {
		fleetUsage()
	}
	switch args[0] {
	case "trace":
		runFleetTrace(args[1:])
	case "status":
		runFleetStatus(args[1:])
	case "victims":
		runFleetVictims(args[1:])
	default:
		fleetUsage()
	}
}

func fleetUsage() {
	fmt.Fprintln(os.Stderr, "usage: ddpmd fleet trace <id> | status | victims [-http addr]")
	os.Exit(2)
}

// FleetSpan is one member's half of a cross-node timeline: a retained
// trace tagged with the node that holds it.
type FleetSpan struct {
	Node     string `json:"node"`      // ingest address of the member holding the span
	MemberID string `json:"member_id"` // hex member id
	pipeline.TraceJSON
}

// FleetTrace is the merged `fleet trace -json` document: every span any
// alive member retained under the queried id, ordered by start time,
// plus the end-to-end detection latency when the timeline ends in a
// block and the exporter send stamp survived the hops.
type FleetTrace struct {
	ID                 string      `json:"id"`
	Spans              []FleetSpan `json:"spans"`
	Errors             []string    `json:"errors,omitempty"` // members that could not be queried
	DetectionLatencyNS int64       `json:"detection_latency_ns,omitempty"`
}

// runFleetTrace renders one record's cross-node timeline: every span
// any alive member retained under the id, merged and ordered by start
// time, with the end-to-end send-to-block latency when the timeline
// ends in a block decision.
func runFleetTrace(args []string) {
	// Accept the id as the leading positional argument (`fleet trace
	// <id> -http ...`) since flag parsing stops at the first non-flag.
	var idArg string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		idArg, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("ddpmd fleet trace", flag.ExitOnError)
	var (
		httpAddr = fs.String("http", "127.0.0.1:7421", "admin plane address of any fleet member")
		id       = fs.String("id", "", "trace id in hex (or pass it as the first argument)")
		minSpans = fs.Int("min", 0, "exit nonzero unless at least this many spans merged")
		timeout  = fs.Duration("timeout", 5*time.Second, "HTTP timeout per member")
		jsonOut  = fs.Bool("json", false, "emit the merged timeline as JSON instead of the table")
	)
	fs.Parse(args)
	if idArg != "" {
		*id = idArg
	}
	if *id == "" {
		fatal(fmt.Errorf("fleet trace: a trace id is required (hex, e.g. off a /metrics exemplar)"))
	}
	// Id 0 marks an untraced record: no member retains a trace with it.
	n, err := strconv.ParseUint(*id, 16, 64)
	if err != nil || n == 0 {
		fatal(fmt.Errorf("fleet trace: bad trace id %q", *id))
	}

	client := &http.Client{Timeout: *timeout}
	doc := fleetTrace(client, fleetRoster(client, *httpAddr), n)

	if *jsonOut {
		json.NewEncoder(os.Stdout).Encode(doc)
	} else {
		nodes := map[string]bool{}
		for _, s := range doc.Spans {
			nodes[s.Node] = true
		}
		fmt.Printf("trace %s — %d spans across %d nodes\n", doc.ID, len(doc.Spans), len(nodes))
		if doc.DetectionLatencyNS > 0 {
			fmt.Printf("detection latency %s (exporter send → block decision)\n",
				fmtSpan(doc.DetectionLatencyNS))
		}
		if len(doc.Spans) > 0 {
			tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "  node\tmember\t"+traceHeader)
			for i := range doc.Spans {
				s := &doc.Spans[i]
				fmt.Fprintf(tw, "  %s\t%s\t%s\n", s.Node, s.MemberID, traceCells(&s.TraceJSON))
			}
			tw.Flush()
		}
	}
	for _, e := range doc.Errors {
		fmt.Fprintf(os.Stderr, "fleet trace: %s\n", e)
	}
	if len(doc.Spans) < *minSpans {
		fmt.Fprintf(os.Stderr, "fleet trace: %d spans merged, wanted at least %d\n", len(doc.Spans), *minSpans)
		os.Exit(1)
	}
}

// fleetTrace asks every alive member of roster for the spans it
// retained under id and merges them into one timeline. A member that
// cannot be asked (no gossiped admin address yet, no answer, a non-200)
// costs an error entry, not the timeline.
func fleetTrace(client *http.Client, roster []cluster.MemberStatus, id uint64) FleetTrace {
	out := FleetTrace{ID: fmt.Sprintf("%016x", id)}
	for _, m := range roster {
		if !m.Alive {
			continue
		}
		if m.AdminAddr == "" {
			out.Errors = append(out.Errors, fmt.Sprintf("%s: admin address not yet gossiped", m.Addr))
			continue
		}
		var spans []pipeline.TraceJSON
		if _, _, err := adminGet(client, m.AdminAddr, "/debug/traces?id="+out.ID, &spans); err != nil {
			out.Errors = append(out.Errors, fmt.Sprintf("%s: %v", m.Addr, err))
			continue
		}
		mid := fmt.Sprintf("%x", m.ID)
		for _, s := range spans {
			out.Spans = append(out.Spans, FleetSpan{Node: m.Addr, MemberID: mid, TraceJSON: s})
		}
	}

	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].StartNS < out.Spans[j].StartNS })
	// End-to-end detection latency: exporter send to the block decision,
	// read off the span that consulted the blocklist and still carries
	// the original send stamp across the hops.
	for i := len(out.Spans) - 1; i >= 0; i-- {
		s := &out.Spans[i]
		if s.Outcome == pipeline.OutcomeBlock.String() && s.SentNS > 0 {
			out.DetectionLatencyNS = s.StartNS + s.TotalNS - s.SentNS
			break
		}
	}
	return out
}

// fleetRoster returns the fleet roster as the member at httpAddr sees
// it, self included. The queried member is alive, and answers on the
// address we used even before its own gossip round advertised it.
func fleetRoster(client *http.Client, httpAddr string) []cluster.MemberStatus {
	var st cluster.Status
	code, _, err := adminGet(client, httpAddr, "/cluster", &st)
	if code == http.StatusNotFound {
		fatal(fmt.Errorf("fleet: ddpmd at %s is not in cluster mode", httpAddr))
	}
	if err != nil {
		fatal(fmt.Errorf("fleet: %w", err))
	}
	for i := range st.Members {
		if m := &st.Members[i]; m.Self {
			if m.AdminAddr == "" {
				m.AdminAddr = httpAddr
			}
			m.Alive = true
		}
	}
	return st.Members
}

// runFleetStatus aggregates every member's own /cluster document into
// one per-member table: each row is a member's view of itself.
func runFleetStatus(args []string) {
	fs := flag.NewFlagSet("ddpmd fleet status", flag.ExitOnError)
	var (
		httpAddr = fs.String("http", "127.0.0.1:7421", "admin plane address of any fleet member")
		timeout  = fs.Duration("timeout", 5*time.Second, "HTTP timeout per member")
	)
	fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	roster := fleetRoster(client, *httpAddr)
	fmt.Printf("fleet of %d members (roster from %s)\n", len(roster), *httpAddr)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  member\taddr\tadmin\talive\tring\towned victims\tfwd out\tfwd in\tblocklist seq\tnote")
	for _, m := range roster {
		row := func(ring, owned, fwdOut, fwdIn, blSeq, note string) {
			fmt.Fprintf(tw, "  %x\t%s\t%s\t%v\t%s\t%s\t%s\t%s\t%s\t%s\n",
				m.ID, m.Addr, m.AdminAddr, m.Alive, ring, owned, fwdOut, fwdIn, blSeq, note)
		}
		if m.AdminAddr == "" {
			row("-", "-", "-", "-", "-", "admin address not yet gossiped")
			continue
		}
		var doc cluster.Status
		if _, _, err := adminGet(client, m.AdminAddr, "/cluster", &doc); err != nil {
			row("-", "-", "-", "-", "-", err.Error())
			continue
		}
		row(fmt.Sprintf("v%d", doc.RingVersion), fmt.Sprint(doc.OwnedVictims),
			fmt.Sprint(doc.ForwardedOut), fmt.Sprint(doc.ForwardedIn), fmt.Sprint(doc.BlocklistSeq), "")
	}
	tw.Flush()
}

// runFleetVictims merges every member's /victims report into one
// fleet-wide view. A victim appears once even when ownership moved
// mid-attack: tallies sum across the members that held state for it.
func runFleetVictims(args []string) {
	fs := flag.NewFlagSet("ddpmd fleet victims", flag.ExitOnError)
	var (
		httpAddr = fs.String("http", "127.0.0.1:7421", "admin plane address of any fleet member")
		topK     = fs.Int("k", 5, "top sources per victim")
		timeout  = fs.Duration("timeout", 5*time.Second, "HTTP timeout per member")
	)
	fs.Parse(args)

	type victimRow struct {
		Node        int64
		Alarmed     bool
		Identified  int64
		Undecodable int64
		Sources     map[int64]int64
		ReportedBy  []string
	}
	client := &http.Client{Timeout: *timeout}
	roster := fleetRoster(client, *httpAddr)
	merged := map[int64]*victimRow{}
	for _, m := range roster {
		if m.AdminAddr == "" || !m.Alive {
			continue
		}
		var reports []pipeline.VictimReport
		if _, _, err := adminGet(client, m.AdminAddr, fmt.Sprintf("/victims?k=%d", *topK), &reports); err != nil {
			fmt.Fprintf(os.Stderr, "fleet victims: %s: %v\n", m.Addr, err)
			continue
		}
		mid := fmt.Sprintf("%x", m.ID)
		for _, r := range reports {
			row := merged[r.Node]
			if row == nil {
				row = &victimRow{Node: r.Node, Sources: map[int64]int64{}}
				merged[r.Node] = row
			}
			row.Alarmed = row.Alarmed || r.Alarmed
			row.Identified += r.Identified
			row.Undecodable += r.Undecodable
			for _, s := range r.TopSources {
				row.Sources[s.Node] += s.Count
			}
			row.ReportedBy = append(row.ReportedBy, mid)
		}
	}

	rows := make([]*victimRow, 0, len(merged))
	for _, r := range merged {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Identified != rows[j].Identified {
			return rows[i].Identified > rows[j].Identified
		}
		return rows[i].Node < rows[j].Node
	})
	fmt.Printf("%d victims with materialized state across the fleet\n", len(rows))
	if len(rows) == 0 {
		return
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  victim\talarmed\tidentified\tundecodable\ttop sources\treported by")
	for _, r := range rows {
		srcs := make([]pipeline.SourceCount, 0, len(r.Sources))
		for n, c := range r.Sources {
			srcs = append(srcs, pipeline.SourceCount{Node: n, Count: c})
		}
		sort.Slice(srcs, func(i, j int) bool {
			if srcs[i].Count != srcs[j].Count {
				return srcs[i].Count > srcs[j].Count
			}
			return srcs[i].Node < srcs[j].Node
		})
		if len(srcs) > *topK {
			srcs = srcs[:*topK]
		}
		parts := make([]string, len(srcs))
		for i, s := range srcs {
			parts[i] = fmt.Sprintf("%d(%d)", s.Node, s.Count)
		}
		top := strings.Join(parts, " ")
		if top == "" {
			top = "-"
		}
		fmt.Fprintf(tw, "  %d\t%v\t%d\t%d\t%s\t%s\n",
			r.Node, r.Alarmed, r.Identified, r.Undecodable, top, strings.Join(r.ReportedBy, " "))
	}
	tw.Flush()
}
