package cluster

// Route's per-call victim memo against the per-record loop it replaced,
// and Route under a ring that changes while sessions route.

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sketch"
	"repro/internal/topology"
	"repro/internal/wire"
)

// routeRef is the per-record reference for split: one ring search per
// record and, for a foreign record with the gate armed, one filter call
// and one suppression count per record.
func routeRef(n *Node, ring *Ring, s *wire.Slab, outs []fwOut) []fwOut {
	ringVer := ring.Version()
	traced := s.Ctxs != nil
	var now int64
	var fr *pipeline.FlightRecorder
	var fwd []pipeline.Trace
	if traced {
		now = n.cfg.Now()
		fr = n.p.Recorder()
	}
	recs := s.Recs
	k := 0
	for i := range recs {
		owner := ring.Owner(recs[i].Victim)
		if owner == n.self {
			recs[k] = recs[i]
			if traced {
				s.Ctxs[k] = s.Ctxs[i]
			}
			k++
			continue
		}
		var replay []wire.Record
		if n.gate != nil {
			pass, buf, admitted, _ := n.gate.filter(ringVer, recs[i])
			if !pass {
				n.forwardSuppress.Add(1)
				continue
			}
			if admitted {
				n.noteGateAdmit(recs[i].Victim, owner, ringVer)
			}
			replay = buf
		}
		j := 0
		for j < len(outs) && outs[j].owner != owner {
			j++
		}
		if j == len(outs) {
			outs = append(outs, fwOut{owner: owner, s: n.p.GetSlab()})
		}
		o := &outs[j]
		for _, r := range replay {
			o.s.Append(r)
		}
		if !traced {
			o.s.Append(recs[i])
			continue
		}
		ctx := s.Ctxs[i]
		if ctx.ID != 0 {
			ctx.Routed = now
			if fr != nil {
				fwd = append(fwd, forwardedTrace(&recs[i], &ctx, owner))
			}
		}
		o.s.AppendTraced(wire.TracedRecord{Record: recs[i], Ctx: ctx})
	}
	s.Recs = recs[:k]
	if traced {
		s.Ctxs = s.Ctxs[:k]
		if len(fwd) > 0 {
			fr.Commit(fwd)
		}
	}
	return outs
}

var routeTwinAddrs = []string{"10.7.0.1:1", "10.7.0.2:1", "10.7.0.3:1"}

// newRouteTwin is one of FuzzRouteMatchesPerRecord's twin nodes: the
// same three-member fleet, clock and gate every time, and a journal
// the caller closes to read the gate_admit events.
func newRouteTwin(t *testing.T, admit int, now *atomic.Int64) (*Node, *pipeline.Journal, *bytes.Buffer) {
	t.Helper()
	jbuf := new(bytes.Buffer)
	j := pipeline.NewJournal(jbuf, 1<<14)
	pcfg := testPipelineConfig()
	pcfg.Shards, pcfg.Journal = 1, j
	p, err := pipeline.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(p, Config{
		Self: routeTwinAddrs[0], Peers: routeTwinAddrs[1:],
		GossipInterval: time.Hour, FailAfter: time.Hour,
		Incarnation: 701, SketchAdmit: admit,
		Dial: func(string) (net.Conn, error) { return nil, errors.New("test: no network") },
		Now:  now.Load,
	})
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		p.Close()
		j.Close()
	})
	return n, j, jbuf
}

// shortDecay does the gate's reset for a new ring version ahead of
// filter, which then finds nothing to reset, and builds the fresh
// gate with a decay window of every offers instead of
// sketch.DefaultDecayEvery, so a fuzz case can put decays inside one
// call without offering a million records first.
func shortDecay(g *fwGate, ringVer uint64, every int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ringVer != ringVer {
		g.resetLocked(ringVer)
		g.gate = sketch.NewGate[wire.Record](g.numNodes,
			sketch.DefaultSlots, g.admit, every)
	}
}

// routePalette is the fuzz target's victim alphabet: ids 0–15 of the
// 8×8 torus (owned by all three members), negative and out-of-fabric
// ids, and at 21–24 an id sharing a memo slot with each of ids 0–3.
func routePalette() []topology.NodeID {
	var vs []topology.NodeID
	for v := topology.NodeID(0); v < 16; v++ {
		vs = append(vs, v)
	}
	vs = append(vs, -1, -2, -(1 << 40), 64, 1<<20)
	for v := topology.NodeID(0); v < 4; v++ {
		w := topology.NodeID(64)
		for memoSlot(w) != memoSlot(v) {
			w++
		}
		vs = append(vs, w)
	}
	return vs
}

// Op bytes of FuzzRouteMatchesPerRecord.
const (
	opFlip  = 0xFD // route the pending slab, then flip whether slabs are traced
	opRing  = 0xFE // route the pending slab, then install a new ring version
	opRoute = 0xFF // route the pending slab
)

// FuzzRouteMatchesPerRecord: split, which decides once per victim per
// call, must do exactly what the per-record loop does. Twin nodes with
// equal rings, gates and clocks get the same slabs, one routed by
// split and one by routeRef; after every call the locally kept records
// and contexts, each owner's forwarded records and contexts, the
// forward_suppressed count and the gate's admitted set (with its decay
// stamps) must be equal, and at the end so must the gate_admit events.
// An op byte below opFlip appends a record: bits 0–5 pick its victim
// from routePalette and bit 6 gives it a nonzero trace context when the
// slab is traced. decay, when nonzero, shrinks the gate's decay window
// to 1–32 offers, so decays fall inside calls.
func FuzzRouteMatchesPerRecord(f *testing.F) {
	rep := func(n int, bs ...byte) []byte {
		var out []byte
		for range n {
			out = append(out, bs...)
		}
		return out
	}
	// Memo-slot collisions: each of ids 0–3 alternating with its partner.
	f.Add(uint8(2), uint8(0), false, rep(12, 0, 21, 1, 22, 2, 23, 3, 24))
	// A cold victim crosses SketchAdmit mid-slab with a replayed prefix,
	// between others that stay suppressed.
	f.Add(uint8(3), uint8(0), false, append(rep(8, 5, 6, 5, 7, 5, 8, 5, 9), opRoute, 5, 5, 6, 6))
	// Suppressed victims only: every id once.
	f.Add(uint8(5), uint8(0), false, rep(2, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, opRoute}...))
	// Negative and out-of-fabric ids, hot enough to be admitted.
	f.Add(uint8(0), uint8(0), false, rep(10, 16, 17, 18, 19, 20))
	// Traced slabs mixing zero and nonzero contexts, then untraced.
	f.Add(uint8(1), uint8(0), true, append(rep(10, 0x41, 2, 0x43, 4, 0x45, 0x46, 7), opFlip, 1, 2, 3, 4))
	// A ring-version change between calls, membership shrinking and back.
	f.Add(uint8(1), uint8(0), true, rep(3, append(rep(6, 0x40, 1, 0x42, 3, 4, 0x45, 6, 7), opRing)...))
	// Decays inside a call, every 6 offers: passes earned, cold offers
	// decay the gate, the passes' holders come back in the same slab.
	cold := []byte{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	f.Add(uint8(0), uint8(5), false, rep(3, append(append([]byte{0, 0, 1, 1, 2, 2, 3, 3}, cold...), 0, 1, 2, 3)...))
	palette := routePalette()
	f.Fuzz(func(t *testing.T, admit, decay uint8, traced bool, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		decayEvery := 0
		if decay > 0 {
			decayEvery = int(decay%32) + 1
		}
		var now atomic.Int64
		now.Store(1)
		memo, mj, mbuf := newRouteTwin(t, int(admit%6)+2, &now)
		ref, rj, rbuf := newRouteTwin(t, int(admit%6)+2, &now)
		members := memo.Ring().Members()
		ring := memo.Ring()
		var pending []wire.TracedRecord
		route := func() {
			build := func(n *Node) *wire.Slab {
				s := n.p.GetSlab()
				for _, tr := range pending {
					if traced {
						s.AppendTraced(tr)
					} else {
						s.Append(tr.Record)
					}
				}
				return s
			}
			if decayEvery > 0 {
				shortDecay(memo.gate, ring.Version(), decayEvery)
				shortDecay(ref.gate, ring.Version(), decayEvery)
			}
			ms, rs := build(memo), build(ref)
			mouts := memo.split(ring, ms, nil)
			routs := routeRef(ref, ring, rs, nil)
			defer func() {
				for _, s := range []*wire.Slab{ms, rs} {
					s.Release()
				}
				for _, o := range append(mouts, routs...) {
					o.s.Release()
				}
			}()
			if !reflect.DeepEqual(ms.Recs, rs.Recs) || !reflect.DeepEqual(ms.Ctxs, rs.Ctxs) {
				t.Fatalf("local records differ:\nmemo %v %v\nref  %v %v", ms.Recs, ms.Ctxs, rs.Recs, rs.Ctxs)
			}
			if len(mouts) != len(routs) {
				t.Fatalf("memo forwards to %d owners, per-record to %d", len(mouts), len(routs))
			}
			for i := range mouts {
				m, r := mouts[i], routs[i]
				if m.owner != r.owner || !reflect.DeepEqual(m.s.Recs, r.s.Recs) || !reflect.DeepEqual(m.s.Ctxs, r.s.Ctxs) {
					t.Fatalf("batch %d differs:\nmemo %x %v %v\nref  %x %v %v", i, m.owner, m.s.Recs, m.s.Ctxs, r.owner, r.s.Recs, r.s.Ctxs)
				}
			}
			if a, b := memo.forwardSuppress.Load(), ref.forwardSuppress.Load(); a != b {
				t.Fatalf("forward_suppressed %d, per-record %d", a, b)
			}
			if !reflect.DeepEqual(memo.gate.admitted, ref.gate.admitted) {
				t.Fatalf("admitted set %v, per-record %v", memo.gate.admitted, ref.gate.admitted)
			}
			pending = pending[:0]
		}
		for i, op := range ops {
			switch op {
			case opFlip:
				route()
				traced = !traced
			case opRing:
				route()
				ms := members
				if ring.Version()%2 == 1 {
					ms = members[:2]
				}
				ring = NewRing(ring.Version()+1, ms, memo.cfg.VNodes)
			case opRoute:
				route()
			default:
				tr := wire.TracedRecord{Record: wire.Record{
					Victim: palette[int(op&0x3F)%len(palette)], MF: uint16(i), Topo: memo.p.TopoID(),
				}}
				if op&0x40 != 0 {
					tr.Ctx = wire.TraceContext{ID: uint64(i + 1), Sent: int64(i)}
				}
				pending = append(pending, tr)
			}
		}
		route()
		for _, j := range []*pipeline.Journal{mj, rj} {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if j.Dropped() != 0 {
				t.Fatalf("journal dropped %d events", j.Dropped())
			}
		}
		if !bytes.Equal(mbuf.Bytes(), rbuf.Bytes()) {
			t.Fatalf("gate_admit events differ:\nmemo %s\nref  %s", mbuf, rbuf)
		}
	})
}

// TestRouteGateSuppressesOutOfFabric: the forward gate counts victims
// over the fabric, so a foreign-owned victim outside it — negative or
// past NumNodes — stays suppressed on the forwarding member however
// many records it sends; the owner would only reject them. An
// in-fabric victim sent as often earns its pass and is forwarded whole.
func TestRouteGateSuppressesOutOfFabric(t *testing.T) {
	const admit, per = 4, 40
	var now atomic.Int64
	now.Store(1)
	n, _, _ := newRouteTwin(t, admit, &now)
	ring := n.Ring()
	var outside []topology.NodeID
	for _, v := range []topology.NodeID{-1, -2, -(1 << 40), 64, 65, 1 << 20} {
		if ring.Owner(v) != n.self {
			outside = append(outside, v)
		}
	}
	inside := topology.NodeID(0)
	for ring.Owner(inside) == n.self {
		inside++
	}
	if len(outside) < 2 {
		t.Fatalf("only %d of the out-of-fabric ids are foreign-owned", len(outside))
	}
	route := func(vs ...topology.NodeID) (forwarded int) {
		s := n.p.GetSlab()
		for i := range per {
			for _, v := range vs {
				s.Append(wire.Record{Victim: v, MF: uint16(i), Topo: n.p.TopoID()})
			}
		}
		outs := n.split(ring, s, nil)
		s.Release()
		for _, o := range outs {
			forwarded += o.s.Len()
			o.s.Release()
		}
		return forwarded
	}
	if got := route(outside...); got != 0 {
		t.Fatalf("%d out-of-fabric records forwarded, want 0", got)
	}
	if got, want := n.forwardSuppress.Load(), uint64(per*len(outside)); got != want {
		t.Fatalf("forward_suppressed %d, want every out-of-fabric record (%d)", got, want)
	}
	if got := route(inside); got != per {
		t.Fatalf("in-fabric victim %d: %d of %d records forwarded", inside, got, per)
	}
	if len(n.gate.admitted) != 1 {
		t.Fatalf("admitted set %v, want victim %d alone", n.gate.admitted, inside)
	}
}

// tracingPeer is a forward-session peer that accepts the trace lane and
// counts the records it receives by whether they carry a context. With
// every offered record traced, a record without one is a gate replay:
// replayed prefixes ride the hop untraced.
func tracingPeer(t *testing.T) (addr string, direct, replayed *atomic.Uint64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	direct, replayed = new(atomic.Uint64), new(atomic.Uint64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				rd := wire.NewReader(conn)
				slab := wire.NewSlabPool(1).Get()
				defer slab.Release()
				var accepted uint64
				for {
					ftype, payload, err := rd.ReadFrame()
					if err != nil {
						return
					}
					if ftype == wire.TypeHello {
						_, _, flags, err := wire.ParseHello(payload)
						if err != nil {
							return
						}
						conn.Write(wire.AppendAck(nil, accepted, flags&(wire.HelloFlagForward|wire.HelloFlagTrace)))
						continue
					}
					slab.Reset()
					if _, err := slab.AppendBatch(ftype, payload); err != nil {
						return
					}
					for i := range slab.Recs {
						if slab.Ctxs != nil && slab.Ctxs[i].ID != 0 {
							direct.Add(1)
						} else {
							replayed.Add(1)
						}
					}
					accepted += uint64(slab.Len())
					conn.Write(wire.AppendAck(nil, accepted, 0))
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), direct, replayed
}

// TestRouteConcurrentRingChange: two sessions route traced slabs over
// shared victims through the armed gate while a third goroutine keeps
// swapping the ring between three and two members. Every offered record
// must end up exactly once: accepted locally, forwarded with its
// context, or suppressed — and a suppressed record reaches a peer at
// most once more, as an untraced replay. Nothing sheds, and every slab
// is back in the pool once the fleet is quiescent. The suppressed count
// is one node-wide counter, so the ledger closes over all calls, not
// per call.
func TestRouteConcurrentRingChange(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	addrA, directA, replayedA := tracingPeer(t)
	addrB, directB, replayedB := tracingPeer(t)
	p, err := pipeline.New(testPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(p, Config{
		Self: "10.7.1.1:1", Peers: []string{addrA, addrB},
		GossipInterval: time.Hour, FailAfter: time.Hour,
		SketchAdmit: 4, ForwardQueue: 1024,
		Now: now.Load,
	})
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	members := n.Ring().Members()
	const sessions, calls, perSlab = 2, 200, 64
	var (
		offered, accepted atomic.Uint64
		routers           sync.WaitGroup
		stop              = make(chan struct{})
		installed         = make(chan uint64)
	)
	go func() {
		ver := n.Ring().Version()
		for {
			select {
			case <-stop:
				installed <- ver
				return
			default:
			}
			ver++
			ms := members
			if ver%2 == 0 {
				ms = members[:2]
			}
			n.ring.Store(NewRing(ver, ms, n.cfg.VNodes))
			time.Sleep(20 * time.Microsecond)
		}
	}()
	for g := range sessions {
		routers.Add(1)
		go func() {
			defer routers.Done()
			for c := range calls {
				s := p.GetSlab()
				for i := range perSlab {
					// Victims 0–31, each session walking them in its own
					// order, so one session's hot victim is cold in the
					// other's slabs.
					v := topology.NodeID((i*(2*g+1) + c) % 32)
					s.AppendTraced(wire.TracedRecord{
						Record: wire.Record{Victim: v, MF: uint16(i), Topo: p.TopoID()},
						Ctx:    wire.TraceContext{ID: uint64(g*calls+c)<<8 | uint64(i+1), Sent: 1},
					})
				}
				offered.Add(perSlab)
				accepted.Add(uint64(n.Route(s)))
			}
		}()
	}
	routers.Wait()
	close(stop)
	if vers := <-installed; vers < 3 {
		t.Fatalf("only %d ring versions installed", vers)
	}
	if d := n.forwardDropped.Load(); d != 0 {
		t.Fatalf("%d forwards shed", d)
	}
	local := p.Snapshot().Accepted
	if d := p.C.Dropped.Load(); d != 0 {
		t.Fatalf("pipeline shed %d records", d)
	}
	var queued uint64
	for _, pr := range n.members.Load().list {
		queued += pr.queued.Load()
	}
	if accepted.Load() != local+queued {
		t.Fatalf("Route returned %d accepted, pipeline took %d and peers were queued %d", accepted.Load(), local, queued)
	}
	received := func() uint64 { return directA.Load() + directB.Load() + replayedA.Load() + replayedB.Load() }
	for deadline := time.Now().Add(10 * time.Second); received() < queued; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("peers received %d of %d forwarded records", received(), queued)
		}
	}
	direct, replayed := directA.Load()+directB.Load(), replayedA.Load()+replayedB.Load()
	suppressed := n.forwardSuppress.Load()
	if received() != queued || local+direct+suppressed != offered.Load() || replayed > suppressed {
		t.Fatalf("offered %d: local %d + forwarded %d + suppressed %d; replayed %d; peers received %d of %d queued",
			offered.Load(), local, direct, suppressed, replayed, received(), queued)
	}
	n.Close()
	p.Close()
	if got := p.SlabsOutstanding(); got != 0 {
		t.Fatalf("%d slabs outstanding at quiescence", got)
	}
}
