package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/sketch"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// The layer walk: after a traced run, one goroutine pushes the
// workload's own record set through each public function a record
// crosses between exporter and block decision, in path order, timing
// the calls from outside. Every timed batch of calls is a span under
// the walk's span. Nothing here reaches into a package: a row is either
// the wall time of public calls or a public counter.

const (
	walkBatches = 5                     // timed batches per row; the row is their median
	walkBatch   = 20 * time.Millisecond // target length of one timed batch
)

type walker struct {
	w      workload
	mix    mix
	seed   uint64
	batch  time.Duration
	spans  *spanLog
	parent int32
	rows   map[string]float64
}

// measure times run, which handles units items per call, and returns
// the median ns per item over walkBatches batches. prep, when given, runs
// untimed before every call.
func (lw *walker) measure(name string, units int, prep, run func()) float64 {
	once := func() time.Duration {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		run()
		return time.Since(t0)
	}
	reps := 1
	if d := once(); d < lw.batch {
		reps = int(lw.batch/max(d, time.Microsecond)) + 1
	}
	per := make([]float64, 0, walkBatches)
	for b := 0; b < walkBatches; b++ {
		start := time.Now()
		var acc time.Duration
		for r := 0; r < reps; r++ {
			acc += once()
		}
		lw.spans.add(name, lw.parent, start, acc)
		per = append(per, float64(acc.Nanoseconds())/float64(reps*units))
	}
	sort.Float64s(per)
	lw.rows[name] = per[len(per)/2]
	return lw.rows[name]
}

// frames cuts both exporters' cycles into frames of n records.
func frames(st *stream, n int) [][]wire.Record {
	var out [][]wire.Record
	for _, xs := range st.exp {
		for off := 0; off+n <= len(xs.cycle); off += n {
			out = append(out, xs.cycle[off:off+n])
		}
	}
	return out
}

// decodeRow times Reader.ReadFrame over an in-memory byte stream plus
// the slab decoder for one frame type.
func (lw *walker) decodeRow(name string, encoded []byte, records int, decode func(*wire.Slab, []byte) error) error {
	slab := wire.NewSlabPool(1).Get()
	var failed error
	lw.measure(name, records, nil, func() {
		rd := wire.NewReader(bytes.NewReader(encoded))
		for {
			_, payload, err := rd.ReadFrame()
			if err != nil {
				if err != io.EOF {
					failed = err
				}
				return
			}
			slab.Reset()
			if err := decode(slab, payload); err != nil {
				failed = err
				return
			}
		}
	})
	if failed != nil {
		return fmt.Errorf("bench: %s: %w", name, failed)
	}
	return nil
}

func (lw *walker) wireRows(st *stream) error {
	fs := frames(st, lw.w.frame)
	records := len(fs) * lw.w.frame

	var buf []byte
	lw.measure("wire.encode_sealed.ns_per_rec", records, nil, func() {
		for i, f := range fs {
			buf = wire.AppendSealed(buf[:0], uint64(i*lw.w.frame), f)
		}
	})

	var sealed, traced, forwarded []byte
	trs := make([]wire.TracedRecord, lw.w.frame)
	fwd := min(lw.w.frame, 512) // cluster.Config's default ForwardBatch
	for i, f := range fs {
		seq := uint64(i * lw.w.frame)
		sealed = wire.AppendSealed(sealed, seq, f)
		for k := range f {
			trs[k] = wire.TracedRecord{Record: f[k], Ctx: wire.TraceContext{ID: seq + uint64(k) + 1, Sent: 1}}
		}
		traced = wire.AppendTracedSealed(traced, seq, trs)
		for off := 0; off < len(f); off += fwd {
			forwarded = wire.AppendForwarded(forwarded, 1, seq+uint64(off), f[off:off+fwd])
		}
	}
	if err := lw.decodeRow("wire.decode_sealed.ns_per_rec", sealed, records, func(s *wire.Slab, p []byte) error {
		_, err := s.AppendSealedPayload(p)
		return err
	}); err != nil {
		return err
	}
	if err := lw.decodeRow("wire.decode_traced.ns_per_rec", traced, records, func(s *wire.Slab, p []byte) error {
		_, err := s.AppendTracedSealedPayload(p)
		return err
	}); err != nil {
		return err
	}
	if err := lw.decodeRow("wire.decode_forwarded.ns_per_rec", forwarded, records, func(s *wire.Slab, p []byte) error {
		_, _, err := s.AppendForwardedPayload(p)
		return err
	}); err != nil {
		return err
	}

	// Partition reorders a slab in place, so every timed call needs a
	// freshly filled slab; 64 of them are filled untimed per call batch.
	partition := func(name string, n, per int) {
		pool := wire.NewSlabPool(64)
		pf := frames(st, n)
		var slabs []*wire.Slab
		next := 0
		lw.measure(name, 64*per, func() {
			for _, s := range slabs {
				s.Release()
			}
			slabs = slabs[:0]
			for i := 0; i < 64; i++ {
				s := pool.Get()
				for _, rec := range pf[next%len(pf)] {
					s.Append(rec)
				}
				next++
				slabs = append(slabs, s)
			}
		}, func() {
			for _, s := range slabs {
				s.Partition(st.topoID, st.net.NumNodes(), shards)
			}
		})
	}
	partition("wire.partition.ns_per_rec", lw.w.frame, lw.w.frame)
	partition("wire.partition.ns_per_call_16", 16, 1)

	pool := wire.NewSlabPool(shards*4 + 8) // the pipeline's pool size
	lw.measure("wire.slabpool.get_release_ns", 1024, nil, func() {
		for i := 0; i < 1024; i++ {
			pool.Get().Release()
		}
	})
	return nil
}

// localSystem is an in-process pipeline (no sockets, no daemon) warmed
// by replaying the workload's warm-up, with the two exporter cursors
// that feed it.
type localSystem struct {
	st  *stream
	fl  *fleet
	rs  *runState
	exp [exporters]*exporter
	// held collects the slabs the exporters fill while hold is set,
	// instead of submitting them.
	hold bool
	held []*wire.Slab
	seq  uint64
}

func (lw *walker) newLocal(frame int, traced bool) (*localSystem, error) {
	st, err := generate(lw.mix, lw.seed, 1)
	if err != nil {
		return nil, err
	}
	sink := &memSink{}
	p, err := pipeline.New(serveDefaults(st.net, pipeline.NewJournal(sink, journalDepth)))
	if err != nil {
		return nil, err
	}
	ls := &localSystem{st: st, fl: &fleet{members: []*member{{p: p}}}}
	ls.rs = &runState{fl: ls.fl}
	submit := func(recs []wire.Record) error {
		// Paced by SlabsOutstanding, as a socket paces a real exporter,
		// so the pooled slabs recycle.
		for !ls.hold && p.SlabsOutstanding() >= 20 {
			runtime.Gosched()
		}
		s := p.GetSlab()
		for _, rec := range recs {
			if traced {
				ls.seq++
				s.AppendTraced(wire.TracedRecord{Record: rec, Ctx: wire.TraceContext{ID: ls.seq, Sent: 1}})
			} else {
				s.Append(rec)
			}
		}
		if ls.hold {
			ls.held = append(ls.held, s)
			return nil
		}
		p.SubmitSlab(s)
		return nil
	}
	for e := range ls.exp {
		ls.exp[e] = newExporter(st.exp[e], ls.rs, frame, submit)
	}
	for !ls.exp[0].warm(st.mix.warmCycles) {
		for _, x := range ls.exp {
			x.step()
		}
	}
	ls.wait()
	for _, x := range ls.exp {
		x.resetPhase()
	}
	return ls, nil
}

func (ls *localSystem) wait() {
	for ls.rs.outstanding() > 0 || !ls.fl.idle() {
		runtime.Gosched()
	}
}

func (ls *localSystem) close() {
	p := ls.fl.members[0].p
	p.Close()
	if j := p.Journal(); j != nil {
		j.Close()
	}
}

// drainRow replays cycles through the local pipeline and reports wall
// time to drain per record: the worker side (gate, identify, detect,
// block) with the submitting goroutine alongside.
func (lw *walker) drainRow(name string, ls *localSystem) {
	perCycle := exporters * len(ls.st.exp[0].cycle)
	lw.measure(name, perCycle, nil, func() {
		for done := false; !done; {
			for _, x := range ls.exp {
				done = x.step()
			}
		}
		ls.wait()
		for _, x := range ls.exp {
			x.resetPhase()
		}
	})
}

// submitRow times Pipeline.SubmitSlab alone: 16 slabs are filled
// untimed, then submitted back to back into idle queues.
func (lw *walker) submitRow(name string, ls *localSystem, units int) {
	p := ls.fl.members[0].p
	lw.measure(name, units, func() {
		ls.wait()
		ls.hold, ls.held = true, ls.held[:0]
		for len(ls.held) < 16 {
			for _, x := range ls.exp {
				x.step()
				x.resetPhase()
			}
		}
		ls.hold = false
	}, func() {
		for _, s := range ls.held {
			p.SubmitSlab(s)
		}
	})
	ls.wait()
}

func (lw *walker) pipelineRows() error {
	ls, err := lw.newLocal(lw.w.frame, false)
	if err != nil {
		return err
	}
	lw.drainRow("pipeline.drain.ns_per_rec", ls)
	lw.submitRow("pipeline.submit.ns_per_rec", ls, 16*lw.w.frame)
	if lw.w.frame == 16 {
		lw.rows["pipeline.submit.ns_per_call_16"] = lw.rows["pipeline.submit.ns_per_rec"] * 16
	}
	ls.close()
	runtime.GC()

	if lw.w.frame != 16 {
		if ls, err = lw.newLocal(16, false); err != nil {
			return err
		}
		lw.submitRow("pipeline.submit.ns_per_call_16", ls, 16)
		ls.close()
		runtime.GC()
	}

	if ls, err = lw.newLocal(lw.w.frame, true); err != nil {
		return err
	}
	lw.drainRow("pipeline.traced_drain.ns_per_rec", ls)
	ls.close()
	runtime.GC()

	// Journal.Emit with a block event's payload, into a queue the
	// writer has emptied.
	j := pipeline.NewJournal(io.Discard, journalDepth)
	ev := pipeline.Event{Type: pipeline.EventBlock, Victim: 1, Source: 2, Count: probeRecords, Until: 1, Top: make([]pipeline.SourceCount, 5)}
	var emitted uint64
	lw.measure("pipeline.journal.emit_ns", 256, func() {
		for j.Written()+j.Dropped() < emitted {
			runtime.Gosched()
		}
	}, func() {
		for i := 0; i < 256; i++ {
			j.Emit(ev)
		}
		emitted += 256
	})
	return j.Close()
}

// stateRows times the per-record state machines a worker runs, each on
// the records of the stream that reach it in the daemon.
func (lw *walker) stateRows(st *stream) {
	type hot struct {
		idx int
		mf  uint16
		t   eventq.Time
		src packet.Addr
	}
	var idents []*traceback.DDPMIdentifier
	var cusums []*detect.CUSUM
	var entropies []*detect.EntropyDetector
	var exact, benign []hot // records to victims holding exact state; of those, the benign ones
	var keys []uint64
	var sources []topology.NodeID
	for _, xs := range st.exp {
		index := make(map[topology.NodeID]int)
		isBenign := make(map[topology.NodeID]bool)
		for _, v := range append(append([]topology.NodeID(nil), xs.attacked...), xs.benign...) {
			index[v] = len(idents)
			idents = append(idents, traceback.NewDDPMIdentifier(st.scheme, v))
			cusums = append(cusums, detect.NewCUSUM(windowTicks, 4, 40))
			entropies = append(entropies, detect.NewEntropyDetector(windowTicks, 1.5))
		}
		for _, v := range xs.benign {
			isBenign[v] = true
		}
		for pos, rec := range xs.cycle {
			keys = append(keys, uint64(rec.Victim))
			if s := xs.source[pos]; s >= 0 {
				sources = append(sources, topology.NodeID(s))
			}
			if i, ok := index[rec.Victim]; ok {
				h := hot{idx: i, mf: rec.MF, t: rec.T, src: rec.Src}
				exact = append(exact, h)
				if isBenign[rec.Victim] {
					benign = append(benign, h)
				}
			}
		}
	}

	lw.measure("traceback.observe_mf.ns_per_rec", len(exact), nil, func() {
		for _, h := range exact {
			idents[h.idx].ObserveMF(h.mf)
		}
	})
	var pk packet.Packet
	var epoch eventq.Time
	lw.measure("detect.cusum_observe.ns_per_rec", len(benign), func() { epoch += windowTicks }, func() {
		for _, h := range benign {
			cusums[h.idx].Observe(h.t+epoch, &pk)
		}
	})
	epoch = 0
	lw.measure("detect.entropy_observe.ns_per_rec", len(benign), func() { epoch += windowTicks }, func() {
		for _, h := range benign {
			pk.Hdr.Src = h.src
			entropies[h.idx].Observe(h.t+epoch, &pk)
		}
	})

	// The sketch gate's two structures over the destination sequence,
	// halved on the gate's schedule.
	cm := sketch.NewCountMin(1<<15, 4)
	hh := sketch.NewSpaceSaving[wire.Record](heavyHitters, sketchAdmit)
	ests := make([]uint32, len(keys))
	gated := 0
	lw.measure("sketch.countmin_add.ns", len(keys), func() {
		if gated += len(keys); gated >= 1<<20 {
			gated = 0
			cm.Halve()
		}
	}, func() {
		for i, k := range keys {
			ests[i] = cm.Add(k)
		}
	})
	lw.measure("sketch.spacesaving_touch.ns", len(keys), func() {
		if gated += len(keys); gated >= 1<<20 {
			gated = 0
			hh.Halve()
		}
	}, func() {
		for i, k := range keys {
			hh.Touch(k, ests[i], wire.Record{})
		}
	})

	// The blocklist at the size the probes grow it to.
	bl := filter.NewTTLBlocklist()
	until := time.Now().Add(time.Hour).UnixNano()
	for i := 0; i < 1000; i++ {
		bl.BlockUntilFor(topology.NodeID(i*st.net.NumNodes()/1000), until, 0)
	}
	now := time.Now().UnixNano()
	lw.measure("filter.blocked_at.ns", len(sources), nil, func() {
		for _, s := range sources {
			bl.BlockedAt(s, now)
		}
	})
	var fresh *filter.Blocklist
	lw.measure("filter.block_until.ns", 1000, func() { fresh = filter.NewTTLBlocklist() }, func() {
		for i := 0; i < 1000; i++ {
			fresh.BlockUntilFor(topology.NodeID(i), until, 0)
		}
	})
}

// clusterRows times Node.Route on the ingest member of a live
// three-member fleet, with the stream's victims balanced over the ring
// so two thirds of every slab is foreign, and Ring.Owner alone.
func (lw *walker) clusterRows() error {
	st, err := generate(lw.mix, lw.seed, 3)
	if err != nil {
		return err
	}
	fl, err := startFleet(st.net, 3)
	if err != nil {
		return err
	}
	defer func() { _ = fl.stop() }() // a throwaway fleet; the row's own checks have run by then
	m0 := fl.members[0]
	fs := frames(st, lw.w.frame)
	// quiesced reports that everything Route queued for a peer has been
	// acked by it and processed there. (Counting records would not do:
	// the forward gate holds back a destination's first records until it
	// has seen enough of them.)
	quiesced := func() bool {
		status, ok := m0.node.StatusJSON().(cluster.Status)
		if !ok || status.ForwardQueue != 0 {
			return false
		}
		for _, ms := range status.Members {
			if !ms.Self && ms.Queued != ms.Delivered+ms.Lost {
				return false
			}
		}
		return fl.idle()
	}
	var slabs []*wire.Slab
	next := 0
	lw.measure("cluster.route.ns_per_rec", 16*lw.w.frame, func() {
		// Let the forward queues empty, or Route would shed into them.
		for !quiesced() {
			runtime.Gosched()
		}
		slabs = slabs[:0]
		for i := 0; i < 16; i++ {
			s := m0.p.GetSlab()
			for _, rec := range fs[next%len(fs)] {
				s.Append(rec)
			}
			next++
			slabs = append(slabs, s)
		}
	}, func() {
		for _, s := range slabs {
			m0.node.Route(s)
		}
	})
	if status, ok := m0.node.StatusJSON().(cluster.Status); ok && status.ForwardDropped > 0 {
		return fmt.Errorf("bench: route row shed %d records into full forward queues", status.ForwardDropped)
	}

	var victims []topology.NodeID
	for _, f := range fs {
		for _, rec := range f {
			if int(rec.Victim) < st.net.NumNodes() {
				victims = append(victims, rec.Victim)
			}
		}
	}
	lw.measure("cluster.ring_owner.ns", len(victims), nil, func() {
		for _, v := range victims {
			fl.ring.Owner(v)
		}
	})
	return nil
}

// generatorRow runs the exporter loop against a discard sink: the cost
// of walking the cycle, filling probe slots and advancing T.
func (lw *walker) generatorRow() error {
	st, err := generate(lw.mix, lw.seed, 1)
	if err != nil {
		return err
	}
	rs := &runState{fl: &fleet{}}
	// The sink consumes a frame at once, so the window never fills.
	discard := func(recs []wire.Record) error {
		rs.sent.Add(-int64(len(recs)))
		return nil
	}
	var exp [exporters]*exporter
	for e := range exp {
		exp[e] = newExporter(st.exp[e], rs, lw.w.frame, discard)
		exp[e].stage, exp[e].probesOn = stageCycle, true
	}
	lw.measure("bench.generator.ns_per_rec", exporters*len(st.exp[0].cycle), nil, func() {
		rs.rejects.Store(0)
		for done := false; !done; {
			for _, x := range exp {
				done = x.step()
				x.resetPhase()
			}
		}
		for _, x := range exp {
			x.next = 0 // the pool never runs dry here
		}
	})
	return nil
}

// layerWalk fills in every row measured outside the run itself.
func layerWalk(w workload, cfg runConfig, spans *spanLog, parent int32) (map[string]float64, error) {
	lw := &walker{w: w, mix: cfg.mixFor(w), seed: cfg.seed, batch: walkBatch, spans: spans, rows: make(map[string]float64)}
	if cfg.walkBatch > 0 {
		lw.batch = cfg.walkBatch
	}
	lw.parent = spans.begin("layer_walk", parent)
	defer spans.end(lw.parent)
	runtime.GC() // the run's system is garbage by now; keep its collection out of the rows
	st, err := generate(lw.mix, lw.seed, 1)
	if err != nil {
		return nil, err
	}
	if err := lw.generatorRow(); err != nil {
		return nil, err
	}
	if err := lw.wireRows(st); err != nil {
		return nil, err
	}
	lw.stateRows(st)
	if err := lw.pipelineRows(); err != nil {
		return nil, err
	}
	if err := lw.clusterRows(); err != nil {
		return nil, err
	}
	return lw.rows, nil
}
