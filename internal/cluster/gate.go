package cluster

// Forwarding sketch gate: the cluster tier runs the same sketch.Gate
// the pipeline's shards admit victims with, over the records this
// instance does NOT own. Without it, a scan sweeping millions of
// destination ids against a non-owner turns 1:1 into forwarded frames —
// the forwarding tier amplifies exactly the traffic pattern the daemon
// exists to suppress. With the gate armed, an unowned destination must
// earn its forward the same way an owned one earns exact state.
//
// Exactness: while a destination is below threshold its records are
// buffered in its gate slot, and on admission the buffered prefix is
// replayed into the forward queue ahead of the crossing record. The
// owner therefore tallies every record of an admitted victim
// bit-for-bit — suppression only ever drops records of destinations
// that never got hot, which is the same contract the pipeline's own
// gate provides locally.
//
// Unlike the pipeline's per-shard instances, each guarded by its
// shard's lock, Route is called from many daemon connection goroutines,
// so the gate is one mutex-guarded instance. That is acceptable because
// the gate only sees unowned records (a 1/N slice of traffic), and a
// victim holding a pass takes it about once per slab, not per record.

import (
	"sync"

	"repro/internal/sketch"
	"repro/internal/topology"
	"repro/internal/wire"
)

// fwGate decides, per unowned record, whether it is forwarded to its
// owner or suppressed (tallied sketch-only): a sketch.Gate at the shared
// default sizing plus what a node-level instance needs around it — the
// mutex guarding it all (see the package comment for why not per-shard),
// a wholesale reset on ring change, and the map of victims holding a pass.
type fwGate struct {
	mu    sync.Mutex
	admit int

	ringVer uint64 // ring generation the gate was built under
	gate    *sketch.Gate[wire.Record]

	// admitted maps victims that earned a forward to the gate's decay
	// count at their most recent record, so entries idle for two full
	// decay windows age out instead of pinning the map forever.
	admitted map[topology.NodeID]uint64
}

func newFwGate(admit int) *fwGate {
	g := &fwGate{admit: admit}
	g.resetLocked(0)
	return g
}

// resetLocked rebuilds the gate for a new ring generation. A ring
// change re-partitions ownership, so counts earned against the old
// partition say nothing about the new one; restarting clean costs at
// most one re-earn per hot victim.
func (g *fwGate) resetLocked(ringVer uint64) {
	g.ringVer = ringVer
	g.gate = sketch.NewGate[wire.Record](sketch.DefaultWidth, sketch.DefaultDepth,
		sketch.DefaultSlots, g.admit, sketch.DefaultDecayEvery)
	g.admitted = make(map[topology.NodeID]uint64)
}

// filter runs one unowned record through the gate. pass reports
// whether the record should be forwarded; replay holds the earlier
// buffered records of a victim admitted by this very record (forward
// them to the owner ahead of rec — rec itself is never in replay);
// admitted reports that this very record crossed the threshold, so the
// caller can emit the admission event exactly once per earn; gen is the
// decay count a pass is now stamped with.
func (g *fwGate) filter(ringVer uint64, rec wire.Record) (pass bool, replay []wire.Record, admitted bool, gen uint64) {
	v := rec.Victim
	g.mu.Lock()
	defer g.mu.Unlock()
	if ringVer != g.ringVer {
		g.resetLocked(ringVer)
	}
	gen = g.gate.Decays()
	if _, ok := g.admitted[v]; ok {
		g.admitted[v] = gen
		return true, nil, false, gen
	}
	prefix, hot := g.gate.Offer(uint64(v), rec)
	if now := g.gate.Decays(); now != gen {
		gen = now
		for av, agen := range g.admitted {
			if gen-agen >= 2 {
				delete(g.admitted, av)
			}
		}
	}
	if !hot {
		return false, nil, false, gen
	}
	// Copy the prefix out: it aliases the slot Admit is about to recycle.
	if len(prefix) > 0 {
		replay = append(make([]wire.Record, 0, len(prefix)), prefix...)
	}
	g.gate.Admit(uint64(v))
	g.admitted[v] = gen
	return true, replay, true, gen
}

// admittedCount reports how many victims currently hold a forwarding
// pass (status/metrics).
func (g *fwGate) admittedCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.admitted)
}
