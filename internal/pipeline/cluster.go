package pipeline

// Cluster hook: the seam between the single-instance daemon and the
// internal/cluster scale-out tier, kept as an interface so the
// pipeline package never imports cluster (which imports pipeline).
// When ServerConfig.NewCluster is set, Start builds the node right
// after the pipeline and routes every ingest slab through it; the node
// decides once per victim per slab whether this instance owns it (submit
// locally) or a peer does (re-export over a forwarding session).
//
// Victim-state handoff rides the same shard queues as records:
// SeedVictim and DetachVictim enqueue a control batch to the owning
// shard, so the mutation is ordered against records — a seed enqueued
// before a record batch is applied before it. Reads (ExportVictim) take
// the shard lock instead and never wait on a worker.

import (
	"io"

	"repro/internal/topology"
	"repro/internal/wire"
)

// ClusterNode is what the daemon needs from a cluster tier.
type ClusterNode interface {
	// Route takes ownership of a filled slab (the SubmitSlab contract):
	// records owned locally are submitted to the pipeline, foreign ones
	// are queued for forwarding. Returns how many records were accepted
	// locally or queued for a peer.
	Route(s *wire.Slab) int

	// NoteForwardedIn accounts records that arrived on a forwarding
	// session from the named origin instance (post-dedup).
	NoteForwardedIn(origin uint64, accepted int)

	// HandleGossip processes one anti-entropy request body and returns
	// the response body (both inner gossip payloads, already unframed).
	HandleGossip(req []byte) ([]byte, error)

	// StatusJSON is the /cluster admin document.
	StatusJSON() any

	// SetAdminAddr records where the admin plane listens, once bound;
	// gossip advertises it and /cluster lists it, so the `ddpmd fleet`
	// commands can reach every member from any one.
	SetAdminAddr(addr string)

	// WriteMetrics appends the node's Prometheus series to /metrics.
	WriteMetrics(w io.Writer)

	// Close stops gossip and flushes the forwarding queues.
	Close()
}

// VictimSnapshot is one victim's replicable identification state: the
// per-source tallies plus the alarm latch, everything a successor
// needs so blocking thresholds continue rather than restart. Detector
// windows are deliberately not carried — they are sliding-window state
// over recent arrivals, and the alarm latch is what gates blocking.
//
// Expired marks the final snapshot of a victim the TTL sweep retired:
// gossiped as a tombstone so replicas on other instances drop their
// copy instead of re-seeding a detector the owner deliberately let go.
type VictimSnapshot struct {
	Victim      topology.NodeID
	Alarmed     bool
	Expired     bool
	Undecodable int64
	Sources     []SourceCount
}

// Identified sums the snapshot's per-source tallies.
func (vs *VictimSnapshot) Identified() int64 {
	var n int64
	for _, sc := range vs.Sources {
		n += sc.Count
	}
	return n
}

// NumNodes reports the configured fabric's node count (victim and
// source ids are dense below it) — the cluster tier's validity bound.
func (p *Pipeline) NumNodes() int { return p.cfg.Net.NumNodes() }

// ExportVictim snapshots one victim's replicable state; ok is false
// when the pipeline holds no state for it.
func (p *Pipeline) ExportVictim(v topology.NodeID) (snap VictimSnapshot, ok bool) {
	ok = p.read(v, func(st *victimState) { snap = snapshotState(v, st) })
	return snap, ok
}

// snapshotState copies one victim's replicable state. The caller holds
// the shard lock.
func snapshotState(v topology.NodeID, st *victimState) VictimSnapshot {
	snap := VictimSnapshot{Victim: v, Alarmed: st.alarmed, Undecodable: st.ident.Undecodable()}
	st.ident.EachSource(func(src topology.NodeID, count int64) {
		snap.Sources = append(snap.Sources, SourceCount{Node: int64(src), Count: count})
	})
	return snap
}

// control hands fn to the worker that owns victim v as a control
// batch: fn runs on that worker, after every batch enqueued before it
// and before every batch enqueued after. Returns false when the victim
// is out of range or the pipeline is closed.
func (p *Pipeline) control(v topology.NodeID, fn func(*shard)) bool {
	if v < 0 || int(v) >= p.cfg.Net.NumNodes() {
		return false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.shards[int(v)%len(p.shards)].ch <- batch{ctl: fn}
	return true
}

// SeedVictim merges a replica snapshot into the owning shard's victim
// state, creating it if absent. The merge is additive, which is exact
// when ownership transfers are exclusive: the replica covers records
// the dead owner processed, the live state covers records processed
// here after takeover, and the two sets are disjoint. The seed travels
// through the shard queue, so it orders before any record batch
// submitted after it. Returns false when the pipeline is closed or the
// victim is out of range.
func (p *Pipeline) SeedVictim(snap VictimSnapshot) bool {
	return p.control(snap.Victim, func(s *shard) {
		s.mu.Lock()
		defer s.mu.Unlock()
		st := s.victims[snap.Victim]
		if st == nil {
			if p.schemeErr != nil {
				return // unbuildable scheme; nothing to seed into
			}
			// Seeds bypass the admission gate: a replica handed over on
			// takeover is evidence the victim was already hot on its owner.
			st = p.materialize(s, snap.Victim)
		}
		for _, sc := range snap.Sources {
			st.ident.AddTally(topology.NodeID(sc.Node), sc.Count)
		}
		st.ident.AddUndecodable(snap.Undecodable)
		if snap.Alarmed {
			// Inherit the latch without counting a fresh alarm: the dead
			// owner already counted (and journaled) this attack.
			st.alarmed = true
		}
	})
}

// DetachVictim removes one victim's exact state from the pipeline and
// hands its final snapshot to fn — the ownership-transfer primitive a
// cluster node uses when a membership change moves a victim to another
// instance. Like SeedVictim it rides the owning shard's queue, so every
// record submitted before the detach is tallied into the snapshot; fn
// runs on the shard worker with no pipeline locks held (keep it
// non-blocking). fn's second argument is false when the pipeline held
// no state for the victim (fn still runs, so callers can sequence
// against the queue either way). Returns false when the pipeline is
// closed or the victim is out of range.
func (p *Pipeline) DetachVictim(v topology.NodeID, fn func(VictimSnapshot, bool)) bool {
	if fn == nil {
		return false
	}
	return p.control(v, func(s *shard) {
		snap := VictimSnapshot{Victim: v}
		s.mu.Lock()
		st := s.victims[v]
		if st != nil {
			snap = snapshotState(v, st)
			delete(s.victims, v)
			p.C.VictimsDetached.Add(1)
		}
		s.mu.Unlock()
		fn(snap, st != nil)
	})
}
