package cluster

// Fleet-observability unit tests: the per-peer forward-session lag
// surfaced through StatusJSON, and the trace-lane downgrade against a
// forward-only (pre-trace) peer — records must still arrive exactly,
// with the downgrade recorded in the audit journal.

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestStatusForwardSessionLag: /cluster's member entries carry the
// local forward-session lag toward each peer (queued/delivered/lost),
// the age of the last completed gossip exchange (-1 = never), the
// gossiped admin address, and are sorted by member id.
func TestStatusForwardSessionLag(t *testing.T) {
	var now atomic.Int64
	now.Store(int64(time.Second))
	addrs := []string{"10.7.0.1:1", "10.7.0.2:1", "10.7.0.3:1"}
	a, pa := newTestNode(t, addrs[0], []string{addrs[1], addrs[2]}, &now)
	b, _ := newTestNode(t, addrs[1], []string{addrs[0], addrs[2]}, &now)

	// Route a slab: records for peer-owned victims land in the peers'
	// forward queues, counted per peer as queued.
	ring := a.ring.Load()
	s := pa.GetSlab()
	wantQueued := map[uint64]uint64{}
	for i := 0; i < 256; i++ {
		v := topology.NodeID(i % 64)
		s.Append(wire.Record{Victim: v, MF: uint16(i), Topo: pa.TopoID()})
		if owner := ring.Owner(v); owner != a.self {
			wantQueued[owner]++
		}
	}
	a.Route(s)

	// The same slab with a trace lane: every context gets exactly one
	// ending on this node — a worker trace for the records a owns, an
	// origin-side forwarded span for the rest — and the lane changes
	// nothing about who owns or queues what.
	s = pa.GetSlab()
	owned := uint64(0)
	for i := 0; i < 256; i++ {
		v := topology.NodeID(i % 64)
		s.AppendTraced(wire.TracedRecord{
			Record: wire.Record{Victim: v, MF: uint16(i), Topo: pa.TopoID()},
			Ctx:    wire.TraceContext{ID: uint64(i) + 1, Sent: now.Load() - 1000},
		})
		if owner := ring.Owner(v); owner != a.self {
			wantQueued[owner]++
		} else {
			owned++
		}
	}
	a.Route(s)
	fr := pa.Recorder()
	for deadline := time.Now().Add(5 * time.Second); fr.Observed() < 256; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("recorder observed %d endings for 256 traced records", fr.Observed())
		}
	}
	fwd := pipeline.AllTraces()
	fwd.Outcome, fwd.HasOut = pipeline.OutcomeForwarded, true
	if got := uint64(len(fr.Snapshot(fwd))); fr.Observed() != 256 || got != 256-owned {
		t.Fatalf("%d endings, %d forwarded spans; want 256 and %d", fr.Observed(), got, 256-owned)
	}

	// One completed gossip exchange with b (which has advertised an
	// admin address), none with c; then let 250ms pass.
	b.SetAdminAddr("10.7.0.2:7421")
	exchange(t, a, b)
	now.Add(int64(250 * time.Millisecond))

	body, err := json.Marshal(a.StatusJSON())
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("StatusJSON does not round-trip: %v", err)
	}
	if len(st.Members) != 3 {
		t.Fatalf("%d members, want 3", len(st.Members))
	}
	for i := 1; i < len(st.Members); i++ {
		if st.Members[i-1].ID > st.Members[i].ID {
			t.Fatalf("members not sorted by id: %x before %x", st.Members[i-1].ID, st.Members[i].ID)
		}
	}
	byID := map[uint64]MemberStatus{}
	for _, m := range st.Members {
		byID[m.ID] = m
	}
	mb, mc := byID[MemberID(addrs[1])], byID[MemberID(addrs[2])]
	if mb.LastGossipMs != 250 {
		t.Fatalf("b last_gossip_ms = %d, want 250", mb.LastGossipMs)
	}
	if mb.AdminAddr != "10.7.0.2:7421" {
		t.Fatalf("b admin_addr = %q, want the gossiped one", mb.AdminAddr)
	}
	if mc.LastGossipMs != -1 {
		t.Fatalf("c last_gossip_ms = %d, want -1 (never exchanged)", mc.LastGossipMs)
	}
	if mc.AdminAddr != "" {
		t.Fatalf("c admin_addr = %q, want empty", mc.AdminAddr)
	}
	for _, addr := range addrs[1:] {
		id := MemberID(addr)
		m := byID[id]
		if m.Queued != wantQueued[id] {
			t.Fatalf("peer %s forward_queued = %d, want %d", addr, m.Queued, wantQueued[id])
		}
		// No forwarder has stepped: nothing can have been acked, and
		// nothing was shed at the (empty) queues.
		if m.Delivered != 0 {
			t.Fatalf("peer %s forward_delivered = %d before any forwarder step", addr, m.Delivered)
		}
	}
}

// TestForwardTraceDowngradeInterop: forwarding traced records to a peer
// that negotiates HelloFlagForward but not HelloFlagTrace (a pre-trace
// build) must deliver every record exactly — as plain forwarded frames,
// contexts shed — and mark the downgrade on the counter and in the
// audit journal.
func TestForwardTraceDowngradeInterop(t *testing.T) {
	const peerAddr = "10.8.0.2:1"
	fwd := &fwdPeer{} // forward-only: echoes the forward flag, never the trace flag
	netFor(t).up(peerAddr, fwd)

	var jbuf bytes.Buffer
	j := pipeline.NewJournal(&jbuf, 64)
	n, p := newTestNodeWith(t, pipeline.Config{
		Net: topology.NewTorus2D(8), Shards: 2, QueueLen: 1 << 12,
		BlockThreshold: 1 << 30, BlockTTL: time.Hour,
		Journal: j, TraceBuffer: 256, TraceSampleN: 1,
	}, Config{Self: "10.8.0.1:1", Peers: []string{peerAddr}, FailAfter: time.Hour, Logf: t.Logf})

	// Traced records for peer-owned victims only, so everything in the
	// slab crosses the downgraded forward session.
	ring := n.ring.Load()
	peerID := MemberID(peerAddr)
	s := p.GetSlab()
	sent := 0
	for i := 0; sent < 40 && i < 256; i++ {
		v := topology.NodeID(i % 64)
		if ring.Owner(v) != peerID {
			continue
		}
		s.AppendTraced(wire.TracedRecord{
			Record: wire.Record{Victim: v, MF: uint16(i), Topo: p.TopoID()},
			Ctx:    wire.TraceContext{ID: uint64(i + 1), Sent: int64(1000 + i)},
		})
		sent++
	}
	if sent == 0 {
		t.Fatal("peer owns nothing")
	}
	if got := n.Route(s); got != sent {
		t.Fatalf("Route accepted %d of %d", got, sent)
	}

	if err := n.forwardStep(n.members.Load().byID[peerID], nil); err != nil {
		t.Fatal(err)
	}
	if got := fwd.received(); got != uint64(sent) {
		t.Fatalf("peer received %d of %d records", got, sent)
	}
	if got := fwd.tracedFrames.Load(); got != 0 {
		t.Fatalf("%d traced frames reached a peer that refused the trace lane", got)
	}
	if got := n.traceDowngrades.Load(); got != 1 {
		t.Fatalf("traceDowngrades = %d, want 1 (once per established connection)", got)
	}

	// The journal carries the downgrade, attributed to the peer.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, line := range bytes.Split(jbuf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev pipeline.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if ev.Type == pipeline.EventTraceDowngrade {
			found = true
			if ev.Detail != peerAddr || ev.Stream != peerID {
				t.Fatalf("downgrade event misattributed: %+v", ev)
			}
		}
	}
	if !found {
		t.Fatal("no trace_downgraded event in the journal")
	}
}
