package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/topology"
)

// The correctness gate. It runs inside the runner after every workload;
// one failure makes the run invalid. What it reads on the way (snapshots,
// cluster status, the journals) is also what the per-layer counters are
// taken from.

// observed is what finish reads off the system and its journals.
type observed struct {
	failures       []string
	lags           []lag // every triggered and blocked probe, ascending by lag
	unblocked      int   // triggered probes with no block event
	shed           int64
	sentTotal      int64
	snaps          []pipeline.Snapshot // per member, at the drain
	status         cluster.Status      // the ingest member's; zero outside a fleet
	stageP50       [4]float64          // the ingest member's live stage histograms, ns
	retained       uint64              // flight-recorder traces, fleet-wide
	journalDropped uint64
	resent         uint64
	reconnects     uint64
	lost           uint64
}

func (ob *observed) fail(format string, args ...any) {
	ob.failures = append(ob.failures, fmt.Sprintf(format, args...))
}

// finish runs the gate and collects the run's counters: the system is
// drained but alive on entry, shut down on return.
func (in *instance) finish() (observed, error) {
	var ob observed
	ob.sentTotal = in.rs.sent.Load()
	ob.shed = in.shed()
	if n := in.rs.errs.Load(); n > 0 {
		ob.fail("%d Client.Send calls failed", n)
	}
	in.conservation(&ob)
	attacked := in.exactness(&ob)

	for _, c := range in.clients {
		ob.resent += c.Resent()
		ob.reconnects += c.Reconnects()
	}
	if err := in.closeClients(); err != nil {
		ob.fail("closing exporter sessions: %v", err)
	}
	for _, c := range in.clients {
		ob.lost += c.Lost()
	}
	if ob.lost != 0 {
		ob.fail("clients lost %d records", ob.lost)
	}
	// Shutting down closes the journals, which flushes them.
	if err := in.fl.stop(); err != nil {
		ob.fail("shutdown: %v", err)
	}
	err := in.outcome(&ob, attacked)
	return ob, err
}

// conservation: every record sent is processed, shed or rejected as
// expected, per member and fleet-wide, and nothing was shed.
func (in *instance) conservation(ob *observed) {
	var processed, rejected uint64
	for i, m := range in.fl.members {
		s := m.p.Snapshot()
		ob.snaps = append(ob.snaps, s)
		processed += s.Processed
		rejected += s.BadVictim + s.TopoMismatch
		if s.Ingested != s.Processed+s.Dropped+s.TopoMismatch+s.BadVictim+s.RejectedClosed {
			ob.fail("member %d: ingested %d != processed %d + dropped %d + rejected %d",
				i, s.Ingested, s.Processed, s.Dropped, s.TopoMismatch+s.BadVictim+s.RejectedClosed)
		}
		if fr := m.p.Recorder(); fr != nil {
			ob.retained += fr.Retained()
		}
	}
	expected := in.rs.rejects.Load()
	if ob.sentTotal != int64(processed)+ob.shed+expected {
		ob.fail("sent %d != processed %d + shed %d + expected rejects %d", ob.sentTotal, processed, ob.shed, expected)
	}
	if ob.shed != 0 {
		ob.fail("%d records shed", ob.shed)
	}
	if int64(rejected) != expected {
		ob.fail("daemon rejected %d records, stream carries %d out-of-fabric ids", rejected, expected)
	}
	m0 := in.fl.members[0]
	if m0.node != nil {
		ob.status, _ = m0.node.StatusJSON().(cluster.Status)
		if got := ob.snaps[0].Ingested + ob.status.ForwardedOut + ob.status.ForwardDropped; int64(got) != ob.sentTotal {
			ob.fail("ingest member: local %d + forwarded %d + forward-dropped %d != sent %d",
				ob.snaps[0].Ingested, ob.status.ForwardedOut, ob.status.ForwardDropped, ob.sentTotal)
		}
		var peers uint64
		for _, s := range ob.snaps[1:] {
			peers += s.Ingested
		}
		if peers != ob.status.ForwardedOut {
			ob.fail("peers ingested %d, ingest member forwarded %d", peers, ob.status.ForwardedOut)
		}
	}
	for i := range ob.stageP50 {
		if hist, _ := m0.p.StageLatency(i); hist != nil && hist.N() > 0 {
			ob.stageP50[i] = math.Exp2(hist.Percentile(50))
		}
	}
	if in.st.mix.scanRecs > 0 {
		if states, limit := ob.snaps[0].VictimStates, shards*heavyHitters; states > limit {
			ob.fail("victim states %d exceed shards x heavy hitters = %d", states, limit)
		}
	}
}

// exactness: every attacked victim's tallies on its ring owner equal,
// source by source, what the generator counted while emitting; no benign
// victim's alarm is latched. It returns the attacked set.
func (in *instance) exactness(ob *observed) map[topology.NodeID]bool {
	attacked := make(map[topology.NodeID]bool)
	for e, x := range in.exp {
		truth := x.truth()
		for vi, v := range x.xs.attacked {
			attacked[v] = true
			snap, ok := in.fl.owner(v).p.ExportVictim(v)
			if !ok {
				ob.fail("exporter %d: attacked victim %d has no state on its owner", e, v)
				continue
			}
			got := make([]int64, len(truth[vi]))
			for _, sc := range snap.Sources {
				got[sc.Node] = sc.Count
			}
			bad := 0
			for src := range got {
				if got[src] != truth[vi][src] {
					if bad == 0 {
						ob.fail("victim %d source %d: daemon tallied %d, generator emitted %d", v, src, got[src], truth[vi][src])
					}
					bad++
				}
			}
			if bad > 1 {
				ob.fail("victim %d: %d sources' tallies differ", v, bad)
			}
			if snap.Undecodable != 0 {
				ob.fail("victim %d: %d undecodable records", v, snap.Undecodable)
			}
		}
		for _, v := range x.xs.benign {
			if in.fl.owner(v).p.AlarmLatched(v) {
				ob.fail("benign victim %d alarmed", v)
			}
		}
	}
	return attacked
}

// outcome, from the flushed journals: alarms on exactly the attacked
// victims, each journaled by its owner; blocks on exactly the base zombies
// and the probes that sent their last record. It also pairs every such
// probe with its block event for the lag.
func (in *instance) outcome(ob *observed, attacked map[topology.NodeID]bool) error {
	blockedAt := make(map[topology.NodeID]int64) // source → its first block event's T
	alarmed := make(map[topology.NodeID]bool)
	for i, m := range in.fl.members {
		ob.journalDropped += m.journal.Dropped()
		evs, err := m.sink.events()
		if err != nil {
			return err
		}
		for _, ev := range evs {
			switch ev.Type {
			case pipeline.EventAlarm:
				alarmed[topology.NodeID(ev.Victim)] = true
				if in.fl.owner(topology.NodeID(ev.Victim)) != m {
					ob.fail("member %d alarmed for victim %d it does not own", i, ev.Victim)
				}
			case pipeline.EventBlock:
				if t, ok := blockedAt[topology.NodeID(ev.Source)]; !ok || ev.T < t {
					blockedAt[topology.NodeID(ev.Source)] = ev.T
				}
			}
		}
	}
	if ob.journalDropped != 0 {
		ob.fail("journal dropped %d events", ob.journalDropped)
	}
	for v := range alarmed {
		if !attacked[v] {
			ob.fail("alarm on victim %d, which is not attacked", v)
		}
	}
	for v := range attacked {
		if !alarmed[v] {
			ob.fail("attacked victim %d never alarmed", v)
		}
	}
	legal := make(map[topology.NodeID]bool)
	for _, z := range in.st.zombies {
		legal[z] = true
		if _, ok := blockedAt[z]; !ok {
			ob.fail("zombie %d never blocked", z)
		}
	}
	for _, x := range in.exp {
		for i, sentAt := range x.probeSent {
			if sentAt == 0 {
				continue
			}
			p := x.xs.probes[i]
			legal[p.src] = true
			if t, ok := blockedAt[p.src]; ok {
				ob.lags = append(ob.lags, lag{sentAt: sentAt, ns: t - sentAt})
			} else {
				ob.unblocked++
			}
		}
	}
	if ob.unblocked > 0 {
		ob.fail("%d probes sent their %d records and were never blocked", ob.unblocked, probeRecords)
	}
	for src := range blockedAt {
		if !legal[src] {
			ob.fail("source %d blocked: neither a zombie nor a completed probe", src)
		}
	}
	sort.Slice(ob.lags, func(i, j int) bool { return ob.lags[i].ns < ob.lags[j].ns })
	return nil
}
