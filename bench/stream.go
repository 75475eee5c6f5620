package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/cluster"
	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The stream is one seeded record sequence per exporter, built straight
// from the DDPM codec (no simulator run, like loadgen.GenerateSparse).
// It is periodic: one cycle is exactly one detector window (500 ticks of
// record time T), and every cycle carries the same records, so a benign
// victim sees an exactly constant per-window count and source mix and
// must never alarm. The exporter replays the cycle, advancing T by one
// window per pass, and overwrites the cycle's probe slots with onset
// probes as it goes.
//
// Victims are partitioned between the exporters (an exporter stands for
// the NICs of its victims), so each victim's records reach its shard in
// generator order whatever the interleaving of the two connections.

const (
	exporters      = 2   // fixed, not scaled with nproc
	windowTicks    = 500 // ddpmd's default CUSUM and entropy window
	blockThreshold = 100 // ddpmd's default; a probe sends blockThreshold+1 records
	probeRecords   = blockThreshold + 1

	// trainWindows is how many low-rate windows the attack records of
	// the first cycle are spread over, so the CUSUM baseline trains on
	// a quiet rate before the step to the flood rate.
	trainWindows = 20

	denseFrames = 64 // 1024-record frames per exporter per cycle (dense stream)
	scanFrames  = 45 // the same for scan_carpet: one sweep of half the fabric plus 28 % other traffic
)

// mix sizes one exporter's cycle.
type mix struct {
	fabric     func() topology.Network
	cycle      int // records per exporter per cycle, a multiple of 1024
	attacked   int // attacked victims per exporter
	benign     int // benign victims per exporter
	zombies    int // base zombies, shared out evenly among the attacked victims
	legitPer   int // legitimate sources per benign victim
	zombieRecs int // flood records per cycle
	legitRecs  int // legitimate records per cycle
	probeEvery int // one probe slot in every probeEvery-th 1024-record block
	scanRecs   int // one-record-per-destination sweep records per cycle (0 = none)
	oofRecs    int // records naming destinations outside the fabric
	scanners   int // scan source nodes
	decoys     int // destinations an earlier wave made hot, per exporter (see scanMix)
	warmCycles int // cycles sent before timing starts, the training cycle included
}

// denseMix is the issue's traffic mix: 50 % flood, 49.9 % legitimate,
// 0.1 % probe slots, on a 64x64 torus with 16 attacked and 48 benign
// victims, 64 zombies and 2 880 legitimate sources.
func denseMix() mix {
	const cycle = denseFrames * 1024
	return mix{
		fabric: func() topology.Network { return topology.NewTorus2D(64) },
		cycle:  cycle, attacked: 8, benign: 24, zombies: 64, legitPer: 60,
		zombieRecs: cycle / 2, legitRecs: cycle/2 - denseFrames, probeEvery: 1,
		warmCycles: 3,
	}
}

// scanMix is scan_carpet: on hypercube-16 each exporter sweeps its half
// of the 65 536 ids once per cycle (71 % of records), sends 8 % to ids
// outside the fabric, and keeps a 21 % dense-style mix against 4
// attacked and 4 benign victims.
//
// Left to the sweep alone, how many swept destinations the sketch gate
// admits, and when, depends on count-min collisions and on which side of
// a decay the 64th sweep falls: after ten seconds one seed holds 370 MB
// of victim state, the next 1.5 GB. So the warm-up opens with an earlier
// wave: 64 back-to-back records to each of 1 016 decoy destinations per
// exporter, 254 per shard, which with the 4 real victims per shard fills
// ddpmd's 512 victim states per shard exactly. From the first timed
// record the state is at its bound: every later admission is deferred,
// the decoys' one record per sweep takes the exact path, the rest of the
// sweep stays in the sketch.
func scanMix() mix {
	const cycle = scanFrames * 1024
	m := mix{
		fabric: func() topology.Network { return topology.NewHypercube(16) },
		cycle:  cycle, attacked: 4, benign: 4, zombies: 64, legitPer: 60,
		probeEvery: 5, scanRecs: 1 << 15, oofRecs: cycle * 8 / 100, scanners: 16,
		decoys: shards*heavyHitters/exporters - 8, warmCycles: 6,
	}
	rest := cycle - m.scanRecs - m.oofRecs - scanFrames/m.probeEvery
	m.zombieRecs = rest / 2
	m.legitRecs = rest - m.zombieRecs
	return m
}

// probe is one onset probe: a never-before-seen source that sends
// exactly probeRecords records to one alarmed victim.
type probe struct {
	victim int32 // index into exporterStream.attacked
	src    topology.NodeID
	mf     uint16
}

// exporterStream is one exporter's share of the stream.
type exporterStream struct {
	wave  []wire.Record // sent once, first: the earlier wave that made the decoys hot (scan_carpet only)
	train []wire.Record // cycle 0: attack records spread over trainWindows low-rate windows
	cycle []wire.Record // cycle 1 onward; the exporter adds windowTicks to a frame's T after sending it

	// Per cycle position: the attacked-victim index the record goes to
	// (-1 for any other destination) and the source its MF names.
	victimIdx []int16
	source    []int32

	probeSlots []int32 // cycle positions the exporter may overwrite with a probe
	attacked   []topology.NodeID
	zombiesOf  [][]topology.NodeID // per attacked victim, the zombies flooding it
	benign     []topology.NodeID
	probes     []probe // pool, consumed in order
	oofPrefix  []int32 // oofPrefix[i] = out-of-fabric records in cycle[:i]

	// waveTruth[v][src] is what the wave adds to attacked victim v's
	// tally (nil without a wave); cycleTruth[v][src] is what one full cycle adds to attacked victim
	// v's tally for src, probe slots excluded (those are counted one by
	// one as they are emitted).
	waveTruth  [][]int64
	cycleTruth [][]int64
}

// stream is the whole generated input of one workload run.
type stream struct {
	net     topology.Network
	scheme  *marking.DDPM
	topoID  uint32
	mix     mix
	exp     [exporters]*exporterStream
	zombies []topology.NodeID
	hash    uint64 // FNV-64a over every generated record and probe, in order
}

// mfFor encodes the marking field a packet from src carries on arrival
// at dst: the accumulated displacement dst − src (XOR on a hypercube).
func mfFor(net topology.Network, scheme *marking.DDPM, src, dst topology.NodeID) (uint16, error) {
	sc, dc := net.CoordOf(src), net.CoordOf(dst)
	dims := net.Dims()
	vec := make(topology.Vector, len(sc))
	for j := range vec {
		vec[j] = dc[j] - sc[j]
		if dims[j] == 2 {
			vec[j] = ((vec[j] % 2) + 2) % 2
		}
	}
	mf, err := scheme.Codec().Encode(vec)
	if err != nil {
		return 0, err
	}
	if got, ok := scheme.IdentifySource(dst, mf); !ok || got != src {
		return 0, fmt.Errorf("bench: MF %#04x for %d->%d identifies %d", mf, src, dst, got)
	}
	return mf, nil
}

// fleetRing is the ownership ring a fleet of n members named by
// memberName builds. Member names, not loopback ports, seed the member
// ids, so ownership is a pure function of n.
func fleetRing(n int) *cluster.Ring {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = cluster.MemberID(memberName(i))
	}
	return cluster.NewRing(1, ids, 0)
}

func memberName(i int) string { return fmt.Sprintf("bench-member-%d", i) }

// pickNodes draws count distinct unused nodes of [lo, hi) in seeded
// order. Victims (spread set) are spread evenly over ddpmd's four shards
// (a victim's shard is its id mod 4) and, with a fleet ring, over the
// members too, the first member, which takes all ingest, getting the
// smallest share. Otherwise how much one shard worker or one forward
// session has to carry would follow where a few dozen ids happen to
// fall, and differ from seed to seed.
func pickNodes(r *rng.Stream, used map[topology.NodeID]bool, lo, hi, count int, spread bool, ring *cluster.Ring) []topology.NodeID {
	var shardQuota [shards]int
	ownerQuota := map[uint64]int{}
	for i := 0; i < count; i++ {
		shardQuota[i%shards]++
	}
	if ring != nil {
		ms := ring.Members()
		ingest := cluster.MemberID(memberName(0))
		for i := 0; i < count; i++ {
			ownerQuota[ms[i%len(ms)]]++
		}
		for _, m := range ms {
			if ownerQuota[m] < ownerQuota[ingest] {
				ownerQuota[m], ownerQuota[ingest] = ownerQuota[ingest], ownerQuota[m]
			}
		}
	}
	out := make([]topology.NodeID, 0, count)
	for len(out) < count {
		v := topology.NodeID(lo + r.Intn(hi-lo))
		if used[v] {
			continue
		}
		if spread {
			if shardQuota[int(v)%shards] == 0 {
				continue
			}
			if ring != nil && ownerQuota[ring.Owner(v)] == 0 {
				continue
			}
			shardQuota[int(v)%shards]--
			if ring != nil {
				ownerQuota[ring.Owner(v)]--
			}
		}
		used[v] = true
		out = append(out, v)
	}
	return out
}

// generate builds the seeded stream for a mix. fleet > 1 balances the
// victims over that many ring members.
func generate(m mix, seed uint64, fleet int) (*stream, error) {
	net := m.fabric()
	scheme, err := marking.NewDDPM(net)
	if err != nil {
		return nil, err
	}
	st := &stream{net: net, scheme: scheme, topoID: wire.TopoID(net.Name()), mix: m}
	nodes := net.NumNodes()
	r := rng.NewStream(seed*0x9E3779B97F4A7C15 + 0xD05E)
	var ring *cluster.Ring
	if fleet > 1 {
		ring = fleetRing(fleet)
	}

	// An exporter's victims come from its own half of the id space: the
	// half it also sweeps in scan_carpet, so a victim never hears from
	// the other exporter.
	used := make(map[topology.NodeID]bool)
	var attacked, benign []topology.NodeID
	for e := 0; e < exporters; e++ {
		lo, hi := e*nodes/exporters, (e+1)*nodes/exporters
		attacked = append(attacked, pickNodes(r, used, lo, hi, m.attacked, true, ring)...)
		benign = append(benign, pickNodes(r, used, lo, hi, m.benign, true, ring)...)
	}
	st.zombies = pickNodes(r, used, 0, nodes, m.zombies, false, nil)
	legit := pickNodes(r, used, 0, nodes, exporters*m.benign*m.legitPer, false, nil)
	scanners := pickNodes(r, used, 0, nodes, m.scanners, false, nil)
	var decoys []topology.NodeID
	for e := 0; e < exporters; e++ {
		decoys = append(decoys, pickNodes(r, used, e*nodes/exporters, (e+1)*nodes/exporters, m.decoys, true, nil)...)
	}
	// Every node left over is a probe source, shared out in seeded order.
	var spare []topology.NodeID
	for _, i := range r.Perm(nodes) {
		if !used[topology.NodeID(i)] {
			spare = append(spare, topology.NodeID(i))
		}
	}

	h := fnv.New64a()
	var enc []byte
	for e := 0; e < exporters; e++ {
		x := &exporterStream{
			attacked: attacked[e*m.attacked : (e+1)*m.attacked],
			benign:   benign[e*m.benign : (e+1)*m.benign],
		}
		myLegit := legit[e*m.benign*m.legitPer : (e+1)*m.benign*m.legitPer]
		if err := st.buildCycle(x, e, r, myLegit, scanners); err != nil {
			return nil, err
		}
		if err := st.buildWave(x, decoys[e*m.decoys:(e+1)*m.decoys], myLegit, scanners); err != nil {
			return nil, err
		}
		for i, src := range spare[e*len(spare)/exporters : (e+1)*len(spare)/exporters] {
			vi := i % len(x.attacked)
			mf, err := mfFor(net, scheme, src, x.attacked[vi])
			if err != nil {
				return nil, err
			}
			x.probes = append(x.probes, probe{victim: int32(vi), src: src, mf: mf})
		}
		for _, recs := range [][]wire.Record{x.wave, x.train, x.cycle} {
			for i := range recs {
				enc = wire.AppendRecord(enc[:0], recs[i])
				h.Write(enc)
			}
		}
		for _, p := range x.probes {
			enc = wire.AppendRecord(enc[:0], wire.Record{Victim: x.attacked[p.victim], MF: p.mf, Src: packet.Addr(p.src)})
			h.Write(enc)
		}
		st.exp[e] = x
	}
	st.hash = h.Sum64()
	return st, nil
}

// buildWave lays out the earlier wave: first the real victims, then one
// decoy after another, the sketch gate's admission threshold of records
// each, all in window 0 with one Src per destination so the wave trips no
// detector, padded with repeats of the last decoy to whole 1024-record
// frames. The real victims go first because the gate keeps evidence only
// from the moment it starts tracking a destination: a victim whose first
// record met a table already full of swept ids would be tallied one
// record short, and which victims that hits depends on which exporter
// reaches its sweep first.
func (st *stream) buildWave(x *exporterStream, decoys, legit, scanners []topology.NodeID) error {
	const admit = sketchAdmit
	if len(decoys) == 0 {
		return nil
	}
	burst := func(from, to topology.NodeID, n int) error {
		mf, err := mfFor(st.net, st.scheme, from, to)
		for k := 0; k < n && err == nil; k++ {
			x.wave = append(x.wave, wire.Record{Topo: st.topoID, Victim: to, MF: mf, Src: packet.Addr(to), Proto: packet.ProtoTCPSYN})
		}
		return err
	}
	x.waveTruth = make([][]int64, len(x.attacked))
	for vi, v := range x.attacked {
		if err := burst(x.zombiesOf[vi][0], v, admit); err != nil {
			return err
		}
		x.waveTruth[vi] = make([]int64, st.net.NumNodes())
		x.waveTruth[vi][x.zombiesOf[vi][0]] = admit
	}
	for bi, v := range x.benign {
		if err := burst(legit[bi*st.mix.legitPer], v, admit); err != nil {
			return err
		}
	}
	for i, d := range decoys {
		n := admit
		if i == len(decoys)-1 {
			n += (1024 - (len(x.wave)+admit)%1024) % 1024
		}
		if err := burst(scanners[i%len(scanners)], d, n); err != nil {
			return err
		}
	}
	return nil
}

// spec is one record of a cycle before it is placed.
type spec struct {
	victim    topology.NodeID
	victimIdx int16
	source    int32
	mf        uint16
	src       packet.Addr
	attack    bool // follows the attack clock (trained low, then stepped)
	oof       bool
}

func (st *stream) buildCycle(x *exporterStream, e int, r *rng.Stream, legit, scanners []topology.NodeID) error {
	m := st.mix
	net, scheme := st.net, st.scheme
	nodes := net.NumNodes()
	attackedIdx := make(map[topology.NodeID]int16, len(x.attacked))
	for i, v := range x.attacked {
		attackedIdx[v] = int16(i)
	}

	// Flood: each attacked victim has its own share of the zombies, all
	// spoofing Src. Were zombies shared, one victim's blocks would filter
	// another's flood before its detectors saw it, and whether that one
	// ever alarmed would depend on scheduling.
	per := len(st.zombies) / (exporters * len(x.attacked))
	zset := make([][]topology.NodeID, len(x.attacked))
	x.zombiesOf = zset
	zmf := make([][]uint16, len(x.attacked))
	for vi, v := range x.attacked {
		first := (e*len(x.attacked) + vi) * per
		zset[vi] = st.zombies[first : first+per]
		for _, z := range zset[vi] {
			mf, err := mfFor(net, scheme, z, v)
			if err != nil {
				return err
			}
			zmf[vi] = append(zmf[vi], mf)
		}
	}
	zombieSpec := func(k int) spec {
		vi, zi := k%len(x.attacked), (k/len(x.attacked))%per
		return spec{
			victim: x.attacked[vi], victimIdx: int16(vi), source: int32(zset[vi][zi]),
			mf: zmf[vi][zi], src: packet.Addr(r.Uint64()), attack: true,
		}
	}
	specs := make([]spec, 0, m.cycle)
	for k := 0; k < m.zombieRecs; k++ {
		specs = append(specs, zombieSpec(k))
	}

	// Legitimate: each benign victim has its own sources, true Src.
	for k := 0; k < m.legitRecs; k++ {
		bi := k % len(x.benign)
		src := legit[bi*m.legitPer+(k/len(x.benign))%m.legitPer]
		mf, err := mfFor(net, scheme, src, x.benign[bi])
		if err != nil {
			return err
		}
		specs = append(specs, spec{victim: x.benign[bi], victimIdx: -1, source: int32(src), mf: mf, src: packet.Addr(src)})
	}

	// Sweep: one record for every id of this exporter's half of the
	// fabric. A swept attacked victim is hit by one of its own zombies
	// (blocked already), so no scan source ever crosses the block
	// threshold.
	if m.scanRecs > 0 {
		lo := e * nodes / exporters
		for k := 0; k < m.scanRecs; k++ {
			d := topology.NodeID(lo + k)
			sp := spec{victim: d, victimIdx: -1, src: packet.Addr(r.Uint64())}
			from := scanners[k%len(scanners)]
			if vi, ok := attackedIdx[d]; ok {
				from = zset[vi][k%per]
				sp.victimIdx, sp.attack = vi, true
			}
			if from == d {
				from = scanners[(k+1)%len(scanners)]
			}
			mf, err := mfFor(net, scheme, from, d)
			if err != nil {
				return err
			}
			sp.source, sp.mf = int32(from), mf
			specs = append(specs, sp)
		}
		for k := 0; k < m.oofRecs; k++ {
			specs = append(specs, spec{
				victim: topology.NodeID(nodes + r.Intn(nodes)), victimIdx: -1, source: -1,
				mf: uint16(r.Uint64()), src: packet.Addr(r.Uint64()), oof: true,
			})
		}
	}

	// Seeded shuffle, then drop the probe slots into the last position
	// of every probeEvery-th 1024-record block. A slot not carrying a
	// probe carries a flood record.
	for i := len(specs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		specs[i], specs[j] = specs[j], specs[i]
	}
	placed := make([]spec, 0, m.cycle)
	next := 0
	for pos := 0; pos < m.cycle; pos++ {
		if block := pos / 1024; pos%1024 == 1023 && block%m.probeEvery == 0 {
			x.probeSlots = append(x.probeSlots, int32(pos))
			placed = append(placed, zombieSpec(block))
			continue
		}
		placed = append(placed, specs[next])
		next++
	}
	if next != len(specs) {
		return fmt.Errorf("bench: cycle of %d records has %d to place", m.cycle, len(specs)+len(x.probeSlots))
	}

	x.cycle = make([]wire.Record, m.cycle)
	x.train = make([]wire.Record, m.cycle)
	x.victimIdx = make([]int16, m.cycle)
	x.source = make([]int32, m.cycle)
	x.oofPrefix = make([]int32, m.cycle+1)
	x.cycleTruth = make([][]int64, len(x.attacked))
	for i := range x.cycleTruth {
		x.cycleTruth[i] = make([]int64, nodes)
	}
	isSlot := make(map[int32]bool, len(x.probeSlots))
	for _, s := range x.probeSlots {
		isSlot[s] = true
	}
	for pos, sp := range placed {
		off := eventq.Time(pos * windowTicks / m.cycle)
		rec := wire.Record{Topo: st.topoID, Victim: sp.victim, MF: sp.mf, Src: sp.src, Proto: packet.ProtoTCPSYN}
		// Cycle 0 is window 0 for benign traffic. Attack records spend
		// it spread over trainWindows windows and so enter cycle 1 at
		// window trainWindows; both clocks then advance one window per
		// cycle.
		rec.T = off
		if sp.attack {
			rec.T = eventq.Time(pos * windowTicks * trainWindows / m.cycle)
		}
		x.train[pos] = rec
		rec.T = windowTicks + off
		if sp.attack {
			rec.T = trainWindows*windowTicks + off
		}
		x.cycle[pos] = rec
		x.victimIdx[pos], x.source[pos] = sp.victimIdx, sp.source
		x.oofPrefix[pos+1] = x.oofPrefix[pos]
		if sp.oof {
			x.oofPrefix[pos+1]++
		}
		if sp.victimIdx >= 0 && !isSlot[int32(pos)] {
			x.cycleTruth[sp.victimIdx][sp.source]++
		}
	}
	return nil
}
