package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/packet"
	"repro/internal/wire"
)

// window is the load model's bound on records sent but not yet consumed
// by a shard worker, fleet-wide. ddpmd acks a frame once it is enqueued,
// not once it is processed, so an exporter that only waits for acks can
// overrun the shard queues and make the daemon shed; with the window the
// measured rate is the sustainable one.
const window = 16384

// workload is one benchmark workload.
type workload struct {
	name    string
	why     string
	mix     func() mix
	frame   int   // records per sealed frame (wire.ClientConfig.MaxBatch)
	traced  bool  // wire.ClientConfig.Trace: the daemon's per-record trace lane
	fleet   int   // daemons
	records int64 // timed-phase size when run by record count (the issue's sizing)
}

var workloads = []workload{
	{"flood_dense", "1024-record frames, one daemon: per-record decode, partition, identify, detect and blocklist cost dominates",
		denseMix, 1024, false, 1, 100e6},
	{"frames_small", "the same stream in 16-record frames: per-frame cost (syscalls, ack, slab get/put, partition set-up, hand-off) dominates",
		denseMix, 16, false, 1, 12e6},
	{"flood_traced", "the same stream with the trace lane on: traced frames, the per-record process path and the flight recorder",
		denseMix, 1024, true, 1, 20e6},
	{"scan_carpet", "hypercube-16 sweep of every id plus out-of-fabric ids: sketch gate, validation and bounded victim state do the work",
		scanMix, 1024, false, 1, 80e6},
	{"fleet3_forward", "three clustered daemons, all ingest on one: two thirds of records take route, forward session and owner ingest",
		denseMix, 1024, false, 3, 60e6},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runState is what the exporters of one run share.
type runState struct {
	fl      *fleet
	sent    atomic.Int64 // records handed to Client.Send, all phases
	rejects atomic.Int64 // of those, records the daemon must reject (out-of-fabric ids)
	errs    atomic.Int64 // Send calls that returned an error
	slice   atomic.Int32 // the current phase's slice number, advanced by its ticker
	spans   *spanLog     // nil while benchmark tracing is off
	parent  int32        // span the exporters' send spans hang under
}

// outstanding is the window's measure: records sent that no shard worker
// has consumed and the daemon will not reject.
func (rs *runState) outstanding() int64 {
	return rs.sent.Load() - int64(rs.fl.processed()) - rs.rejects.Load()
}

// exporter is one closed-loop exporter: one goroutine walking its share
// of the stream, one full frame per send. In a run the sink is an acked
// wire.Client session's Send; the layer walk plugs in others.
type exporter struct {
	xs    *exporterStream
	rs    *runState
	send  func([]wire.Record) error
	frame int

	stage  int   // what is being sent: stageWave, stageTrain, then stageCycle for good
	pos    int   // next position in the current stage's records
	slot   int   // next probe slot of the current cycle
	cycles int64 // template cycles completed, the training cycle not counted

	probesOn  bool
	cur       int     // probe being sent, index into xs.probes; -1 = none
	curSent   int     // records of cur sent so far
	next      int     // next unused probe
	probeSent []int64 // wall clock (unix ns) read just before the trigger frame's Send; 0 = not triggered
	triggers  []int   // scratch: probes whose last record is in the frame being sent

	slotTruth [][]int64 // per attacked victim and source: records emitted in probe slots
	frames    int64     // frames sent in the current phase
	records   int64     // records sent in the current phase
	acks      []int32   // ns per Send in the current phase
	ackSlice  []uint8   // the slice each of those Sends began in
}

func newExporter(xs *exporterStream, rs *runState, frame int, send func([]wire.Record) error) *exporter {
	x := &exporter{
		xs: xs, rs: rs, send: send, frame: frame, cur: -1,
		probeSent: make([]int64, len(xs.probes)),
		slotTruth: make([][]int64, len(xs.attacked)),
	}
	for i := range x.slotTruth {
		x.slotTruth[i] = make([]int64, len(xs.cycleTruth[i]))
	}
	if len(xs.wave) == 0 {
		x.stage = stageTrain
	}
	return x
}

const (
	stageWave = iota
	stageTrain
	stageCycle
)

// resetPhase forgets the per-phase counts and Send times.
func (x *exporter) resetPhase() {
	x.frames, x.records, x.acks, x.ackSlice = 0, 0, x.acks[:0], x.ackSlice[:0]
}

// warmUp sends the training cycle and the rest of the mix's warm-up
// cycles.
func (x *exporter) warmUp(cycles int) {
	for !x.warm(cycles) {
		x.step()
	}
}

// warm reports whether the wave, the training cycle and cycles-1 more
// have been sent.
func (x *exporter) warm(cycles int) bool {
	return x.stage == stageCycle && x.cycles >= int64(cycles-1)
}

// fillSlot writes the record a probe slot carries this time round: the
// next record of the current probe while probes are on and the pool
// lasts, a flood record otherwise.
func (x *exporter) fillSlot(rec *wire.Record, pos int32) {
	if x.probesOn && x.cur < 0 && x.next < len(x.xs.probes) {
		x.cur, x.curSent = x.next, 0
		x.next++
	}
	if !x.probesOn || x.cur < 0 {
		x.slotTruth[x.xs.victimIdx[pos]][x.xs.source[pos]]++
		return // the slot still holds, or was restored to, its flood record
	}
	p := x.xs.probes[x.cur]
	rec.Victim, rec.MF, rec.Src = x.xs.attacked[p.victim], p.mf, packet.Addr(p.src)
	x.slotTruth[p.victim][p.src]++
	if x.curSent++; x.curSent == probeRecords {
		x.triggers = append(x.triggers, x.cur)
		x.cur = -1
	}
}

// step sends the next frame and reports whether it completed a cycle.
func (x *exporter) step() (cycleDone bool) {
	src := [...][]wire.Record{x.xs.wave, x.xs.train, x.xs.cycle}[x.stage]
	recs := src[x.pos : x.pos+x.frame]
	for x.rs.outstanding() >= window {
		// The daemon has a window's worth queued: sleeping costs no
		// throughput and, unlike spinning, no CPU that would be charged
		// to the path.
		time.Sleep(50 * time.Microsecond)
	}
	x.triggers = x.triggers[:0]
	for end := int32(x.pos + x.frame); x.stage != stageWave && x.slot < len(x.xs.probeSlots) && x.xs.probeSlots[x.slot] < end; x.slot++ {
		pos := x.xs.probeSlots[x.slot]
		rec := &recs[int(pos)-x.pos]
		// Restore the flood record first; a probe overwrites it.
		def := x.xs.train[pos]
		rec.Victim, rec.MF, rec.Src = def.Victim, def.MF, def.Src
		x.fillSlot(rec, pos)
	}
	n := int64(len(recs))
	x.rs.sent.Add(n)
	if x.stage != stageWave {
		if oof := x.xs.oofPrefix[x.pos+x.frame] - x.xs.oofPrefix[x.pos]; oof > 0 {
			x.rs.rejects.Add(int64(oof))
		}
	}
	t0 := time.Now()
	for _, p := range x.triggers {
		x.probeSent[p] = t0.UnixNano()
	}
	if err := x.send(recs); err != nil {
		x.rs.errs.Add(1)
	}
	d := time.Since(t0)
	if x.rs.spans != nil {
		x.rs.spans.add("wire.client.send", x.rs.parent, t0, d)
	}
	x.acks = append(x.acks, int32(min(d, time.Duration(1<<31-1))))
	x.ackSlice = append(x.ackSlice, uint8(min(x.rs.slice.Load(), 255)))
	x.frames++
	x.records += n
	if x.stage == stageCycle {
		for i := range recs {
			recs[i].T += windowTicks
		}
	}
	if x.pos += x.frame; x.pos < len(src) {
		return false
	}
	x.pos, x.slot = 0, 0
	if x.stage == stageCycle {
		x.cycles++
	} else {
		x.stage++
	}
	return true
}

// truth returns, per attacked victim, every record this exporter has
// emitted to it by identified source: whole cycles from the template's
// tallies, the current partial cycle by walking it, probe slots from the
// per-emission count.
func (x *exporter) truth() [][]int64 {
	out := make([][]int64, len(x.xs.attacked))
	whole := x.cycles
	if x.stage == stageCycle {
		whole++ // the training cycle carries the same records
	}
	isSlot := make(map[int32]bool, len(x.xs.probeSlots))
	for _, s := range x.xs.probeSlots {
		isSlot[s] = true
	}
	for v := range out {
		out[v] = make([]int64, len(x.xs.cycleTruth[v]))
		for src, c := range x.xs.cycleTruth[v] {
			out[v][src] = c*whole + x.slotTruth[v][src]
			if x.xs.waveTruth != nil && x.stage != stageWave {
				out[v][src] += x.xs.waveTruth[v][src]
			}
		}
	}
	for pos := 0; pos < x.pos && x.stage != stageWave; pos++ {
		if v := x.xs.victimIdx[pos]; v >= 0 && !isSlot[int32(pos)] {
			out[v][x.xs.source[pos]]++
		}
	}
	return out
}

// segment is the length of the slices a phase is cut into. A shared host
// slows this benchmark in episodes (memory latency and loopback round
// trips rise together for seconds to minutes); a statistic over slices
// can set the disturbed ones aside, a whole-run mean cannot.
const segment = 500 * time.Millisecond

// mark is the running totals at a slice boundary.
type mark struct {
	t       time.Time
	cpu     time.Duration // process user+sys
	handled int64         // records consumed by a shard worker or rejected as expected
}

// phaseStats is what one measured phase yields.
type phaseStats struct {
	records, frames int64
	wall            time.Duration // first Send until the last record is consumed
	cpu             time.Duration // process user+sys
	mallocs         uint64        // runtime.MemStats.Mallocs over the phase
	gcPause         time.Duration
	gcCycles        uint32
	marks           []mark    // slice boundaries, the phase's start and drain included
	acks            [][]int32 // ns per Send by slice, both exporters, each slice sorted
	heapLive        uint64    // HeapAlloc after a GC at the drain, the system still up

	// 10 ms gauges, sampled only when asked for.
	goroutinesMax int
	depthMax      int
	depthMean     float64
	fwdQueueMax   int
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (in *instance) mark() mark {
	return mark{t: time.Now(), cpu: processCPU(), handled: int64(in.fl.processed()) + in.rs.rejects.Load()}
}

// instance is one set-up system with its exporters, ready to be driven.
type instance struct {
	w       workload
	st      *stream
	fl      *fleet
	rs      *runState
	exp     [exporters]*exporter
	clients [exporters]*wire.Client
	heap0   uint64 // HeapAlloc after GC, stream allocated, before any daemon
	setupS  float64
}

// setUp generates the stream, starts the system and runs the warm-up:
// sessions established, slab pool filled, attacked victims admitted
// through the gate and alarmed, base zombies blocked.
func setUp(w workload, cfg runConfig, spans *spanLog, parent int32) (*instance, error) {
	t0 := time.Now()
	sp := spans.begin("setup", parent)
	defer spans.end(sp)

	g := spans.begin("setup.generate", sp)
	m := cfg.mixFor(w)
	st, err := generate(m, cfg.seed, w.fleet)
	spans.end(g)
	if err != nil {
		return nil, err
	}
	inst := &instance{w: w, st: st}
	// The heap baseline: everything the benchmark itself holds is
	// allocated (the stream, room for one Send time per frame at twice
	// today's rates), nothing of the daemon is.
	var acks [exporters][]int32
	for e := range acks {
		acks[e] = make([]int32, 0, int(cfg.seconds*6e6)/w.frame+1024)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	inst.heap0 = ms.HeapAlloc

	s := spans.begin("setup.start", sp)
	inst.fl, err = startFleet(st.net, w.fleet)
	spans.end(s)
	if err != nil {
		return nil, err
	}
	inst.rs = &runState{fl: inst.fl}
	for e := range inst.exp {
		c, err := wire.NewClient(wire.ClientConfig{
			Addr: inst.fl.ingestAddr(), Seed: cfg.seed*exporters + uint64(e) + 1,
			MaxBatch: w.frame, Trace: w.traced,
		})
		if err != nil {
			inst.discard()
			return nil, err
		}
		inst.clients[e] = c
		inst.exp[e] = newExporter(st.exp[e], inst.rs, w.frame, c.Send)
		inst.exp[e].acks, inst.exp[e].ackSlice = acks[e], make([]uint8, 0, cap(acks[e]))
	}

	wu := spans.begin("setup.warmup", sp)
	var wg sync.WaitGroup
	for _, x := range inst.exp {
		wg.Add(1)
		go func(x *exporter) {
			defer wg.Done()
			x.warmUp(m.warmCycles)
		}(x)
	}
	wg.Wait()
	err = inst.drain(30 * time.Second)
	if err == nil {
		err = inst.warm()
	}
	spans.end(wu)
	if err != nil {
		inst.discard()
		return nil, err
	}
	for _, x := range inst.exp {
		x.probesOn = true
	}
	inst.setupS = time.Since(t0).Seconds()
	return inst, nil
}

// warm checks the warm-up did its job: every attacked victim's alarm is
// latched and every base zombie is blocked on the member that will see
// its records.
func (in *instance) warm() error {
	now := time.Now().UnixNano()
	for _, xs := range in.st.exp {
		for vi, v := range xs.attacked {
			o := in.fl.owner(v)
			if !o.p.AlarmLatched(v) {
				return fmt.Errorf("bench: warm-up left attacked victim %d unalarmed", v)
			}
			for _, z := range xs.zombiesOf[vi] {
				if !o.p.Blocklist().BlockedAt(z, now) {
					return fmt.Errorf("bench: warm-up left zombie %d unblocked at victim %d's owner", z, v)
				}
			}
		}
	}
	return nil
}

// shed counts records lost between Send and a shard worker: dropped at
// a full shard queue, at a full forward queue, or on a forward session.
func (in *instance) shed() int64 {
	var n uint64
	for _, m := range in.fl.members {
		n += m.p.C.Dropped.Load() + m.p.C.RejectedClosed.Load()
		if m.node != nil {
			if st, ok := m.node.StatusJSON().(cluster.Status); ok {
				n += st.ForwardDropped + st.ForwardLost
			}
		}
	}
	for _, c := range in.clients {
		if c != nil {
			n += c.Lost()
		}
	}
	return int64(n)
}

// drain waits until every record sent is consumed, rejected as expected,
// or counted shed, and every slab is back in its pool.
func (in *instance) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i := 0; ; i++ {
		if in.rs.outstanding() <= 0 && in.fl.idle() {
			return nil
		}
		if i%64 == 63 {
			if in.rs.outstanding() <= in.shed() && in.fl.idle() {
				return nil // what is missing was shed; the gate reports it
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: %d records still outstanding after %v", in.rs.outstanding(), timeout)
			}
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// phase drives both exporters for one measured phase: until the deadline
// or, with records > 0, for exactly that many records (whole frames,
// split evenly), then waits for the drain. A ticker cuts the phase into
// slices as it runs.
func (in *instance) phase(name string, seconds float64, records int64, gauges bool, spans *spanLog, parent int32) (phaseStats, error) {
	sp := spans.begin(name, parent)
	defer spans.end(sp)
	in.rs.spans, in.rs.parent = spans, sp
	in.rs.slice.Store(0)
	for _, x := range in.exp {
		x.resetPhase()
	}
	perExp := (records/exporters + int64(in.w.frame) - 1) / int64(in.w.frame) * int64(in.w.frame)

	var ps phaseStats
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if gauges {
		bg.Add(1)
		go func() {
			defer bg.Done()
			in.sampleGauges(&ps, stop, spans, sp)
		}()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := make(chan struct{})
	var wg sync.WaitGroup
	var deadline time.Time
	for _, x := range in.exp {
		wg.Add(1)
		go func(x *exporter) {
			defer wg.Done()
			<-start
			for {
				if records > 0 {
					if x.records >= perExp {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				x.step()
			}
		}(x)
	}
	first := in.mark()
	ps.marks = append(ps.marks, first)
	deadline = first.t.Add(time.Duration(seconds * float64(time.Second)))
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(segment)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				ps.marks = append(ps.marks, in.mark())
				in.rs.slice.Add(1)
			}
		}
	}()
	close(start)
	wg.Wait()
	dw := spans.begin("drain_wait", sp)
	err := in.drain(60 * time.Second)
	spans.end(dw)
	close(stop)
	bg.Wait()
	last := in.mark()
	ps.marks = append(ps.marks, last)
	ps.wall, ps.cpu = last.t.Sub(first.t), last.cpu-first.cpu
	runtime.ReadMemStats(&m1)
	in.rs.spans = nil
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	ps.heapLive = live.HeapAlloc

	ps.mallocs = m1.Mallocs - m0.Mallocs
	ps.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.acks = make([][]int32, len(ps.marks)-1)
	for _, x := range in.exp {
		ps.records += x.records
		ps.frames += x.frames
		for i, d := range x.acks {
			k := min(int(x.ackSlice[i]), len(ps.acks)-1)
			ps.acks[k] = append(ps.acks[k], d)
		}
	}
	for _, a := range ps.acks {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	}
	return ps, err
}

// sampleGauges reads the queue depths, the forward queue and the
// goroutine count every 10 ms until stopped.
func (in *instance) sampleGauges(ps *phaseStats, stop <-chan struct{}, spans *spanLog, parent int32) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var sum, n int
	for {
		select {
		case <-stop:
			if n > 0 {
				ps.depthMean = float64(sum) / float64(n)
			}
			return
		case <-tick.C:
			t0 := time.Now()
			for _, m := range in.fl.members {
				for _, d := range m.p.Snapshot().QueueDepths {
					ps.depthMax = max(ps.depthMax, d)
					sum += d
					n++
				}
				if m.node != nil {
					if st, ok := m.node.StatusJSON().(cluster.Status); ok {
						ps.fwdQueueMax = max(ps.fwdQueueMax, st.ForwardQueue)
					}
				}
			}
			ps.goroutinesMax = max(ps.goroutinesMax, runtime.NumGoroutine())
			if spans != nil {
				spans.add("gauge_sample", parent, t0, time.Since(t0))
			}
		}
	}
}

// closeClients ends the exporter sessions; nothing is buffered by then.
func (in *instance) closeClients() error {
	var first error
	for _, c := range in.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
