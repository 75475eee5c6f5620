package pipeline

import (
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestAdminReadsRaceWorkers reads every admin-plane view while the
// workers write behind them: a slab flood over 64 victims through an
// armed gate, a detach → seed loop, and TTL sweeps on an advancing fake
// clock. The victim-expired hook and DetachVictim's fn re-enter the
// pipeline on their own shard, so a worker that still held shard.mu
// when it called them would hang the test. It must finish, be
// race-clean, account for every record, and end with every exactly
// processed record in exactly one tally — the serial answer.
func TestAdminReadsRaceWorkers(t *testing.T) {
	net := topology.NewTorus2D(8)
	const victims, zombies = 64, 4
	var mfs [victims][zombies]uint16 // victim v is flooded by nodes v+1 … v+4
	for v := range mfs {
		for z := range mfs[v] {
			mfs[v][z] = mkMF(t, net, topology.NodeID((v+1+z)%victims), topology.NodeID(v))
		}
	}
	const ttl = time.Second
	var clock atomic.Int64
	j := NewJournal(io.Discard, 0)
	defer j.Close()
	p, err := New(Config{
		Net: net, Shards: 2, QueueLen: 16, SketchAdmit: 4,
		CUSUMWindow: 100, CUSUMSlack: 2, CUSUMThreshold: 20,
		BlockThreshold: 20, VictimTTL: ttl,
		Journal: j, Now: clock.Load,
	})
	if err != nil {
		t.Fatal(err)
	}

	// What a callback may do: read the shard it is running on.
	reenter := func(v topology.NodeID) {
		p.Victims()
		p.ExportVictim(v)
		p.Snapshot()
	}
	var expiredTally atomic.Int64
	p.SetVictimExpiredHook(func(snap VictimSnapshot) {
		reenter(snap.Victim)
		expiredTally.Add(snap.Identified() + snap.Undecodable)
	})

	var churn, others sync.WaitGroup
	stop := make(chan struct{}) // closed when the churn is done

	others.Add(1)
	go func() { // the flood, for as long as the churn lasts: a sparse baseline, then dense
		defer others.Done()
		rnd := rand.New(rand.NewSource(7))
		T := eventq.Time(0)
		for slab := 0; ; slab++ {
			select {
			case <-stop:
				return
			default:
			}
			s := p.GetSlab()
			for i := 0; i < 256; i++ {
				v := i % victims
				s.Append(wire.Record{T: T, Topo: p.TopoID(), Victim: topology.NodeID(v), MF: mfs[v][rnd.Intn(zombies)]})
			}
			p.SubmitSlab(s)
			// Stay a few slabs ahead of the workers, no more: a queue that
			// never empties never lets a worker's P run anything else.
			for p.C.Ingested.Load()-p.C.Dropped.Load()-p.C.Processed.Load() > 4*256 {
				runtime.Gosched()
			}
			if T += 10; slab < 50 {
				T += 190
			}
		}
	}()
	churn.Add(2)
	go func() { // ownership churn: detach, then hand the state straight back
		defer churn.Done()
		got := make(chan VictimSnapshot, 1) // one detach in flight at a time
		for i := 0; i < 2*victims; i++ {
			v := topology.NodeID(i) % victims
			if !p.DetachVictim(v, func(snap VictimSnapshot, _ bool) {
				reenter(v)
				got <- snap
			}) || !p.SeedVictim(<-got) {
				t.Error("detach/seed refused on an open pipeline")
				return
			}
		}
	}()
	go func() { // expiry: whatever the flood has not touched since the last jump goes
		defer churn.Done()
		for i := 0; i < 32; i++ {
			clock.Add(2 * ttl.Nanoseconds())
			sweepAll(p)
		}
	}()

	for r := 0; r < 3; r++ {
		others.Add(1)
		go func(r int) {
			defer others.Done()
			for v := topology.NodeID(r); ; v = (v + 3) % victims {
				select {
				case <-stop:
					return
				default:
				}
				p.VictimReports(3)
				p.Victims()
				p.ExportVictim(v)
				p.TopSources(v, 3)
				p.SourcesAbove(v, 5)
				p.Alarmed(v)
				p.AlarmLatched(v)
				p.Snapshot()
				p.WritePrometheus(io.Discard, time.Second)
				runtime.Gosched() // three spinning readers on a small box would starve the writers
			}
		}(r)
	}

	done := make(chan struct{})
	go func() {
		churn.Wait()
		close(stop)
		others.Wait()
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: writers, readers or Close never finished (is shard.mu held across a callback?)")
	}

	snap := p.Snapshot()
	if snap.Ingested != snap.Processed+snap.Dropped {
		t.Errorf("ingested %d != processed %d + dropped %d", snap.Ingested, snap.Processed, snap.Dropped)
	}
	// Every record the exact path identified or rejected sits in one
	// live tally or one expired snapshot: detach → seed moves tallies
	// without changing their sum, and reads never disturb them.
	tallied := expiredTally.Load()
	for _, v := range p.Victims() {
		vs, _ := p.ExportVictim(v)
		tallied += vs.Identified() + vs.Undecodable
	}
	if want := int64(snap.Identified + snap.Undecodable); tallied != want {
		t.Errorf("tallies hold %d records, the counters say %d were identified or undecodable", tallied, want)
	}
	t.Logf("processed %d, dropped %d, admitted %d, expired %d, detached %d, alarms %d, blocks %d",
		snap.Processed, snap.Dropped, snap.VictimsAdmitted, snap.VictimsExpired, snap.VictimsDetached, snap.Alarms, snap.Blocks)
}
