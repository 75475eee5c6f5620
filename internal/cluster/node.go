package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Config parameterizes a cluster Node.
type Config struct {
	// Self is this instance's advertised TCP ingest address; Peers are
	// the other instances'. Address strings must be byte-identical
	// fleet-wide (they derive the member ids).
	Self  string
	Peers []string

	// Join, when set, is the address of any live fleet member: the node
	// starts with it as its only hint, learns the rest of the roster
	// from gossip responses, and enters the ring by the same pure
	// function of the alive set every member computes. Composes with
	// Peers (the join target is simply one more initial peer).
	Join string

	// SketchAdmit, when greater than one, arms the sketch admission
	// gate on the forwarding tier: an unowned destination must reach
	// this guaranteed count in a space-saving table fed exact counts
	// (one per fabric node) before its records earn forwards, and the
	// buffered prefix is replayed into the forward queue on admission
	// so the owner's tallies stay exact for every admitted victim. A
	// destination outside the fabric never earns one. At most one means
	// forward every unowned record (the legacy behavior).
	SketchAdmit int

	// VNodes is the virtual nodes per member on the ring (default 64).
	VNodes int

	// GossipInterval paces anti-entropy rounds (default 500ms).
	// FailAfter is how long a peer may stay silent — no gossip
	// exchange, no forwarded frames — before it is declared dead and
	// the ring rebuilt without it (default 4×GossipInterval).
	GossipInterval time.Duration
	FailAfter      time.Duration

	// Dial overrides net.Dial for forwarding and gossip connections
	// (tests, fault injection). Now supplies unix nanos (defaults to
	// time.Now; tests inject) and is the only clock the steps read.
	// Logf, when set, receives membership and rebalance events.
	Dial func(addr string) (net.Conn, error)
	Now  func() int64
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() error {
	if c.Self == "" {
		return errors.New("cluster: Self address required")
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 4 * c.GossipInterval
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// peer is one remote instance: forwarding queue and session, gossip
// connection and liveness state. The peer set grows at runtime (gossip
// rosters and runtime joins) behind an atomically swapped peerSet
// snapshot; a peer, once added, is never removed — a silent one just
// stops being alive. Everything mutable on a peer is either atomic or
// guarded by Node.mu (inc, have, acked, cursor) or Node.outMu
// (attached) or owned by one caller of one step (conn/rd: gossipWith;
// client, dials: forwardStep).
type peer struct {
	addr string
	id   uint64

	queue      chan *wire.Slab
	client     *wire.Client  // the acked forward session
	lastHeard  atomic.Int64  // unix nanos of last proof of life
	lastGossip atomic.Int64  // unix nanos of the last completed gossip exchange (0 = never)
	ringVer    atomic.Uint64 // peer's last self-reported ring version
	queued     atomic.Uint64 // records Route offered this peer's forward queue
	delivered  atomic.Uint64 // records the peer acked on the forward session
	lost       atomic.Uint64 // records shed at this peer's queue or abandoned on its session

	// adminAddr is the peer's admin-plane HTTP address, learned from its
	// gossip messages and listed in /cluster for the `ddpmd fleet`
	// commands. Empty until the first exchange that carries one.
	adminAddr atomic.Pointer[string]

	// Blocklist anti-entropy (DESIGN §12.3): the peer's incarnation as
	// last seen, the version through which we hold its rows, and its last
	// report of how far it holds ours.
	inc, have, acked uint64

	replicaCursor int        // round-robin start into owned victims
	attached      []*handoff // outbox entries the in-flight client request carries

	conn  net.Conn // gossip conn
	rd    *wire.Reader
	dials int // forward-session dials, counted for forwardStep
}

// forwardQueue bounds each peer's outbound batch queue; a full queue
// sheds, counted, never blocks ingest. maxReplicasPerMsg caps the
// victim-state replicas one gossip message carries; a round-robin
// cursor covers the rest over rounds.
const (
	forwardQueue      = 256
	maxReplicasPerMsg = 8
)

// newPeer builds a peer last heard at heard, and its forward session,
// which dials nothing until the first forwardStep. Its retries are
// immediate: the driver, not the step, waits on the wall clock.
func (n *Node) newPeer(addr string, id uint64, heard int64) *peer {
	pr := &peer{addr: addr, id: id, queue: make(chan *wire.Slab, forwardQueue)}
	pr.lastHeard.Store(heard)
	pr.client, _ = wire.NewClient(wire.ClientConfig{
		Dial: func() (net.Conn, error) {
			pr.dials++
			return n.cfg.Dial(addr)
		},
		StreamID:      n.incarnation ^ id,
		Seed:          splitmix64(n.incarnation ^ id),
		MaxBatch:      forwardBatch,
		MaxAttempts:   3,
		Sleep:         func(time.Duration) {},
		ForwardOrigin: n.self,
		// Negotiate the trace lane on every forward session; batches
		// without contexts still ship as plain forwarded frames, so the
		// untraced hot path pays nothing for the offer.
		Trace:            true,
		OnTraceDowngrade: func() { n.noteTraceDowngrade(pr) },
		OnLost: func(recs []wire.Record) {
			n.forwardLost.Add(uint64(len(recs)))
			pr.lost.Add(uint64(len(recs)))
		},
	})
	return pr
}

// peerSet is an immutable snapshot of the known fleet, read lock-free
// by the ingest hot path (Route, NoteForwardedIn) and swapped
// copy-on-write under Node.mu when a member is learned at runtime.
type peerSet struct {
	byID map[uint64]*peer
	list []*peer // sorted by id
}

// Node implements pipeline.ClusterNode: the cluster tier of one ddpmd
// instance.
type Node struct {
	cfg         Config
	p           *pipeline.Pipeline
	bl          *filter.Blocklist
	self        uint64
	incarnation uint64

	ring    atomic.Pointer[Ring]
	members atomic.Pointer[peerSet]
	gate    *fwGate // sketch admission gate on forwards; nil = legacy

	mu          sync.Mutex
	ringVersion uint64
	replicas    map[topology.NodeID]pipeline.VictimSnapshot

	// outMu is a leaf under mu, never held across a pipeline call: the
	// shard workers' hooks take it and nothing else, so no worker ever
	// waits on mu (see outbox.go).
	outMu      sync.Mutex
	outbox     map[outKey]*handoff          // victim state owed to other members
	seeded     map[topology.NodeID][]uint64 // handoff ids seeded this ownership epoch; 0 for a replica
	handoffSeq atomic.Uint64                // handoffs detached here, for their ids

	// adminAddr is this node's own admin-plane HTTP address, set by the
	// daemon once its listener is bound and gossiped to peers, so any
	// member's /cluster names every member's admin plane.
	adminAddr atomic.Pointer[string]

	forwardedOut     atomic.Uint64
	forwardedIn      atomic.Uint64
	forwardDropped   atomic.Uint64
	forwardLost      atomic.Uint64
	forwardSuppress  atomic.Uint64
	gossipRounds     atomic.Uint64
	gossipFails      atomic.Uint64
	seedsApplied     atomic.Uint64
	takeovers        atomic.Uint64
	joins            atomic.Uint64
	handbacksOut     atomic.Uint64
	handbacksIn      atomic.Uint64
	handbackFailures atomic.Uint64
	traceDowngrades  atomic.Uint64

	stop    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	started bool // drivers running; guarded by mu
}

// New builds and starts the cluster tier: one forwarder goroutine per
// peer plus the gossip loop, each a thin driver over a step
// (forwardStep, gossipRound). All configured peers start presumed
// alive (the ring covers the whole fleet immediately); a peer that
// never answers is declared dead FailAfter from now. A Join address
// seeds the roster with one live member; the rest is learned from its
// gossip responses.
func New(p *pipeline.Pipeline, cfg Config) (*Node, error) {
	n, err := build(p, cfg)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.started = true
	for _, pr := range n.members.Load().list {
		n.wg.Add(1)
		go n.forward(pr)
	}
	n.mu.Unlock()
	n.wg.Add(1)
	go n.gossipLoop()
	return n, nil
}

// build is New without the drivers: a node whose steps run only when
// called.
func build(p *pipeline.Pipeline, cfg Config) (*Node, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		p:        p,
		bl:       p.Blocklist(),
		self:     MemberID(cfg.Self),
		replicas: make(map[topology.NodeID]pipeline.VictimSnapshot),
		outbox:   make(map[outKey]*handoff),
		seeded:   make(map[topology.NodeID][]uint64),
		stop:     make(chan struct{}),
	}
	// Derived from the start time, so a restarted instance never
	// collides with its previous life's mutation sequences.
	n.incarnation = splitmix64(n.self ^ uint64(cfg.Now()))
	if n.incarnation == 0 {
		n.incarnation = 1
	}
	if cfg.SketchAdmit > 1 {
		n.gate = newFwGate(cfg.SketchAdmit, p.NumNodes())
	}
	initial := cfg.Peers
	if cfg.Join != "" {
		initial = append(append([]string(nil), cfg.Peers...), cfg.Join)
	}
	n.members.Store(&peerSet{byID: map[uint64]*peer{}})
	members, now := []uint64{n.self}, cfg.Now()
	for _, addr := range initial {
		id := MemberID(addr)
		switch {
		case id == n.self:
			return nil, fmt.Errorf("cluster: peer %q collides with self %q", addr, cfg.Self)
		case n.members.Load().byID[id] == nil:
			n.insertPeer(n.newPeer(addr, id, now))
			members = append(members, id)
		case addr != cfg.Join: // a join target may repeat a configured peer
			return nil, fmt.Errorf("cluster: duplicate peer %q", addr)
		}
	}
	n.ringVersion = 1
	n.ring.Store(NewRing(1, members, cfg.VNodes))
	n.bl.SetOrigin(n.incarnation)
	p.SetVictimExpiredHook(n.noteRetired)
	cfg.Logf("cluster: up self=%s id=%x incarnation=%x members=%d", cfg.Self, n.self, n.incarnation, len(members))
	return n, nil
}

// Close stops gossip, drains and flushes the forwarding queues, and
// closes the peer connections. Safe to call once ingest has stopped,
// on a started node or an unstarted one.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	// Barrier: an addPeer that passed the closed check has finished its
	// wg.Add and goroutine spawn before we wait; one that hasn't will
	// observe closed and no-op.
	n.mu.Lock()
	started := n.started
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	// The drivers are gone: each forwarder closed its own session as it
	// stopped, and the gossip connections are this goroutine's now. An
	// unstarted node's sessions are closed here.
	for _, pr := range n.members.Load().list {
		if !started {
			n.closeSession(pr)
		}
		if pr.conn != nil {
			pr.conn.Close()
		}
	}
}

// addPeer registers a member learned at runtime (a gossip roster entry
// or a previously unknown authenticated sender) and, on a started
// node, starts its forwarder. Returns the existing peer when the
// address is already known, nil for self, an empty address, one longer
// than maxAddrLen or when the node is closing. The new member enters
// the ring at the first membership sweep after this node hears from it
// directly — a completed exchange with it, or an authenticated request
// from it: a roster names members, it does not vouch for them.
func (n *Node) addPeer(addr string) *peer {
	id := MemberID(addr)
	if id == n.self || addr == n.cfg.Self || addr == "" || len(addr) > maxAddrLen {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil
	}
	ps := n.members.Load()
	if pr := ps.byID[id]; pr != nil {
		return pr
	}
	pr := n.newPeer(addr, id, n.cfg.Now()-int64(n.cfg.FailAfter)-1) // not yet heard
	n.insertPeer(pr)
	n.joins.Add(1)
	if n.started {
		n.wg.Add(1)
		go n.forward(pr)
	}
	n.cfg.Logf("cluster: learned member %s id=%x (known fleet=%d)", addr, id, len(ps.list)+2)
	return pr
}

// insertPeer adds pr to the known fleet, copy-on-write. Caller holds
// n.mu, or builds the node.
func (n *Node) insertPeer(pr *peer) {
	ps := n.members.Load()
	next := &peerSet{byID: maps.Clone(ps.byID), list: append(slices.Clone(ps.list), pr)}
	next.byID[pr.id] = pr
	slices.SortFunc(next.list, func(a, b *peer) int { return cmp.Compare(a.id, b.id) })
	n.members.Store(next)
}

// Route partitions one ingest slab by victim ownership: records this
// instance owns stay in the slab (compacted in place) and go to the
// pipeline; foreign records are copied into one pooled slab per owner
// and queued for forwarding. When the forwarding gate is armed, unowned
// destinations must first earn admission in the sketch — records below
// the threshold are absorbed (counted in forward_suppressed), and the
// slot's buffered prefix is replayed into the forward queue the moment
// a destination crosses it, so an admitted victim's owner still sees
// every record. Consumes the slab reference. Returns records accepted
// locally plus records queued for peers (suppressed records are
// neither).
func (n *Node) Route(s *wire.Slab) int {
	ring := n.ring.Load()
	if ring.Size() <= 1 {
		return n.p.SubmitSlab(s)
	}
	ps := n.members.Load()
	// One pooled output slab per owner, searched linearly: a fleet has few
	// members, and up to len(outBuf) owners the array stays on the stack.
	var outBuf [8]fwOut
	outs := n.split(ring, s, outBuf[:0])
	accepted := 0
	if s.Len() > 0 {
		accepted = n.p.SubmitSlab(s)
	} else {
		s.Release()
	}
	for _, o := range outs {
		accepted += n.enqueue(ps.byID[o.owner], o.s)
	}
	return accepted
}

// routeMemo is split's decision for one victim: its owner under the
// call's ring and its pass, if any, stamped at gate decay count gen.
type routeMemo struct {
	victim    topology.NodeID
	owner     uint64
	gen       uint64
	set, pass bool
}

func memoSlot(v topology.NodeID) uint64 { return uint64(v) * 0x9E3779B97F4A7C15 >> 56 }

// split is Route's decision loop: it keeps s's records this instance
// owns under ring and appends the rest to outs, through the gate when
// armed, deciding once per victim per call (DESIGN §12.2).
func (n *Node) split(ring *Ring, s *wire.Slab, outs []fwOut) []fwOut {
	ringVer := ring.Version()
	traced := s.Ctxs != nil
	var now int64
	var fr *pipeline.FlightRecorder
	var fwd []pipeline.Trace // origin-side traces, committed in batches
	if traced {
		// One clock read per slab: the route decision's timestamp, which
		// becomes every forwarded context's Routed stamp and the start of
		// its forward span.
		now = n.cfg.Now()
		fr = n.p.Recorder()
		fwd = make([]pipeline.Trace, 0, 16)
	}
	var memo *[256]routeMemo // nil for a short slab: its repeats would not pay to clear it
	if len(s.Recs) >= 64 {
		memo = new([256]routeMemo)
	}
	var sink routeMemo         // without a memo, decisions land here unread
	var gen, suppressed uint64 // gen: the decay count this call's last filter saw
	recs := s.Recs
	k := 0
	for i := range recs {
		v := recs[i].Victim
		m, held := &sink, false // held: a pass stamped at this call's last filter
		var owner uint64
		if memo == nil {
			owner = ring.Owner(v)
		} else {
			m = &memo[memoSlot(v)]
			if m.victim != v || !m.set {
				*m = routeMemo{victim: v, owner: ring.Owner(v), set: true}
			}
			owner, held = m.owner, m.pass && m.gen == gen
		}
		if owner == n.self {
			if k != i {
				recs[k] = recs[i]
				if traced {
					s.Ctxs[k] = s.Ctxs[i]
				}
			}
			k++
			continue
		}
		var replay []wire.Record
		if n.gate != nil && !held {
			pass, buf, admitted, g := n.gate.filter(ringVer, recs[i])
			gen = g
			if !pass {
				suppressed++
				continue
			}
			m.pass, m.gen = true, g
			if admitted {
				n.noteGateAdmit(v, owner, ringVer)
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
		// Replayed prefix records predate the trace lane being consulted
		// for them; they ride the hop untraced. A gate admit above SlabCap
		// grows the slab past it — one allocation, harmless: the client
		// splits the batch into frames.
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
				if len(fwd) == cap(fwd) {
					fr.Commit(fwd)
					fwd = fwd[:0]
				}
				fwd = append(fwd, forwardedTrace(&recs[i], &ctx, owner))
			}
		}
		o.s.AppendTraced(wire.TracedRecord{Record: recs[i], Ctx: ctx})
	}
	n.forwardSuppress.Add(suppressed)
	s.Recs = recs[:k]
	if traced {
		s.Ctxs = s.Ctxs[:k]
		if len(fwd) > 0 {
			fr.Commit(fwd)
		}
	}
	return outs
}

// fwOut is Route's pending batch for one owner.
type fwOut struct {
	owner uint64
	s     *wire.Slab
}

// forwardedTrace is the origin-side half of a forwarded record's
// timeline: the span from exporter send to the route decision, with the
// owner's member id attached. The owner's ingest then commits the
// other half under the same trace id; `ddpmd fleet trace` stitches both.
func forwardedTrace(rec *wire.Record, ctx *wire.TraceContext, owner uint64) pipeline.Trace {
	t := pipeline.NewTrace(ctx.ID, ctx.Routed, int64(rec.Victim), -1, pipeline.OutcomeForwarded)
	t.Sent, t.Origin = ctx.Sent, owner
	if ctx.Sent > 0 {
		t.Wire = ctx.Routed - ctx.Sent
	}
	return t
}

// noTrace is the outcome of a journal-only cluster event.
const noTrace pipeline.Outcome = 255

// note records one always-retained cluster event twice: the journal
// line ev, and a synthetic flight-recorder trace of outcome under op
// (0 mints a fresh id; noTrace skips the trace). A sink that is off
// costs nothing.
func (n *Node) note(ev pipeline.Event, outcome pipeline.Outcome, op uint64) {
	if fr := n.p.Recorder(); fr != nil && outcome != noTrace {
		if op == 0 {
			op = fr.MintEventID(uint64(ev.Victim) ^ uint64(ev.Count))
		}
		fr.CommitEventWithID(op, outcome, ev.T, ev.Victim)
	}
	if j := n.p.Journal(); j != nil {
		j.Emit(ev)
	}
}

// noteGateAdmit records a fwGate admission, with the owner and ring
// version it happened under.
func (n *Node) noteGateAdmit(victim topology.NodeID, owner, ringVer uint64) {
	n.note(pipeline.Event{
		T: n.cfg.Now(), Type: pipeline.EventGateAdmit,
		Victim: int64(victim), Source: -1,
		Detail: fmt.Sprintf("owner=%x ring=v%d", owner, ringVer),
	}, pipeline.OutcomeGateAdmit, 0)
}

// enqueue offers one pooled batch to a peer's forwarding queue,
// shedding (counted) when the queue is full — ingest never blocks on a
// slow or dead peer. The peer counts the offer as queued either way,
// so its queued − delivered − lost is what is in flight. Consumes the
// slab reference: the queue takes it, or it is released here.
func (n *Node) enqueue(pr *peer, s *wire.Slab) int {
	k := uint64(s.Len())
	if pr == nil {
		n.forwardDropped.Add(k)
		s.Release()
		return 0
	}
	pr.queued.Add(k)
	select {
	case pr.queue <- s:
		n.forwardedOut.Add(k)
		return int(k)
	default:
		n.forwardDropped.Add(k)
		pr.lost.Add(k)
		s.Release()
		return 0
	}
}

// NoteForwardedIn accounts records accepted off a forwarding session;
// a forwarded frame is also proof its origin is alive.
func (n *Node) NoteForwardedIn(origin uint64, accepted int) {
	n.forwardedIn.Add(uint64(accepted))
	if pr := n.members.Load().byID[origin]; pr != nil {
		pr.lastHeard.Store(n.cfg.Now())
	}
}

// forwardBatch caps the records one forwarded frame carries; it must fit
// the traced forwarded frame, the larger per-record layout.
const forwardBatch = 512

// forwardRetryBase and forwardRetryMax bound the forwarder's jittered
// exponential wait after a step that could not reach its peer; Route
// sheds at the full queue meanwhile.
const (
	forwardRetryBase = 5 * time.Millisecond
	forwardRetryMax  = 250 * time.Millisecond
)

// forward is the per-peer forwarder goroutine, a driver over
// forwardStep: it wakes on a queued batch while the session is up, and
// after a failed step waits base·2^(n−1), capped at max, ±50% jitter,
// before a step that retries the session first. It closes the session
// as it stops. Records the session abandons — the client's buffer full
// while the peer stays unreachable, or anything unacked or still
// queued at close — are counted lost, once, on the node and the peer.
func (n *Node) forward(pr *peer) {
	defer n.wg.Done()
	defer n.closeSession(pr)
	for fails := 0; ; {
		var s *wire.Slab
		if fails == 0 {
			select {
			case s = <-pr.queue:
			case <-n.stop:
				return
			}
		} else {
			d := min(forwardRetryBase<<(fails-1), forwardRetryMax)
			select {
			case <-time.After(d/2 + rand.N(d)):
			case <-n.stop:
				return
			}
		}
		if n.forwardStep(pr, s) == nil {
			fails = 0
		} else if fails < 8 {
			fails++
		}
	}
}

var errSessionDown = errors.New("cluster: forward session down")

// forwardStep ships first (nil for none) and everything queued behind
// it on pr's session, then flushes, so forwarding latency stays one
// queue-pass. A step without a first batch retries the session before
// taking one, and a step stops taking batches once a send finds the
// session down — unreachable, refusing the forward hello, or not
// acking: a down session takes nothing more, so Route sheds at the full
// queue until it is back. The client copies the records into
// its unacked buffer, so each slab is free the moment SendTraced
// returns. The caller is pr's only forwarder.
func (n *Node) forwardStep(pr *peer, first *wire.Slab) error {
	var err error
	if first == nil {
		err = pr.client.Flush()
	}
	dials := pr.dials
	for s := first; err == nil && (s != nil || len(pr.queue) > 0); s = nil {
		if s == nil {
			s = <-pr.queue
		}
		pr.client.SendTraced(s.Recs, s.Ctxs)
		s.Release()
		// One redial is a peer that restarted; a second is a session the
		// send's flush could not bring back.
		if pr.dials-dials > 1 {
			err = errSessionDown
		}
	}
	if err == nil {
		err = pr.client.Flush()
	}
	pr.delivered.Store(pr.client.Delivered())
	return err
}

// closeSession ships what pr's queue still holds and closes its
// session. What a down session left queued is counted lost here, and
// what the peer never acknowledged through OnLost as the client
// abandons it.
func (n *Node) closeSession(pr *peer) {
	n.forwardStep(pr, nil)
	for len(pr.queue) > 0 {
		s := <-pr.queue
		n.forwardLost.Add(uint64(s.Len()))
		pr.lost.Add(uint64(s.Len()))
		s.Release()
	}
	pr.client.Close()
	pr.delivered.Store(pr.client.Delivered())
}

// noteTraceDowngrade records that a forward peer's hello did not echo
// the trace flag: contexts for records forwarded there are shed at the
// wire client (delivery is unaffected). Fires once per established
// connection; an always-retained journal line marks the interop
// downgrade so a mixed-version fleet is diagnosable from one node.
func (n *Node) noteTraceDowngrade(pr *peer) {
	n.traceDowngrades.Add(1)
	n.cfg.Logf("cluster: peer %s did not negotiate the trace lane; forwarding untraced", pr.addr)
	n.note(pipeline.Event{
		T: n.cfg.Now(), Type: pipeline.EventTraceDowngrade,
		Victim: -1, Source: -1, Stream: pr.id, Detail: pr.addr,
	}, noTrace, 0)
}

// gossipLoop is the anti-entropy driver: a ticker over gossipRound.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.gossipRound()
		}
	}
}

// gossipRound is one anti-entropy round: exchange one request/response
// with each peer over a persistent connection, then run the membership
// sweep — re-derive the alive set from lastHeard, rebuild the ring if
// it changed, hand off state held for victims owned elsewhere, and
// settle the outbox.
func (n *Node) gossipRound() {
	for _, pr := range n.members.Load().list {
		if err := n.gossipWith(pr); err != nil {
			n.gossipFails.Add(1)
		}
	}
	if round := n.gossipRounds.Add(1); round%gossipJournalEvery == 0 {
		ring := n.ring.Load()
		n.note(pipeline.Event{
			T: n.cfg.Now(), Type: pipeline.EventGossipRound,
			Victim: -1, Source: -1, Count: int64(round),
			Detail: fmt.Sprintf("round=%d alive=%d/%d fails=%d ring=v%d",
				round, ring.Size(), len(n.members.Load().list)+1, n.gossipFails.Load(), ring.Version()),
		}, pipeline.OutcomeGossip, 0)
	}
	n.recomputeMembership()
}

// gossipJournalEvery samples the per-round gossip event 1-in-N: a
// 500ms cadence would write 172k journal lines a day per node if every
// round landed, so the audit trail carries a periodic summary instead
// (round number, alive/known member counts, cumulative failures) —
// enough to bound when anti-entropy last ran without drowning the
// attack events.
const gossipJournalEvery = 16

// gossipWith performs one exchange with a peer: send our digest plus
// the rows, outbox entries and replicas we believe it lacks, read back
// its. Any error tears the connection down; liveness and delivery are
// only credited on a complete exchange.
func (n *Node) gossipWith(pr *peer) error {
	if pr.conn == nil {
		conn, err := n.cfg.Dial(pr.addr)
		if err != nil {
			return err
		}
		pr.conn = conn
		pr.rd = wire.NewReader(conn)
	}
	fail := func(err error) error {
		pr.conn.Close()
		pr.conn, pr.rd = nil, nil
		return err
	}
	req := n.buildMsg(pr, nil)
	frame := wire.AppendGossip(nil, appendGossipMsg(nil, req))
	// The deadline rides the injected clock like every other timebase
	// here, so synthetic-time tests can never leave a gossip exchange
	// hanging on a wall-clock deadline that will not come.
	pr.conn.SetDeadline(time.Unix(0, n.cfg.Now()).Add(n.cfg.FailAfter))
	if _, err := pr.conn.Write(frame); err != nil {
		return fail(err)
	}
	ftype, payload, err := pr.rd.ReadFrame()
	if err != nil {
		return fail(err)
	}
	if ftype != wire.TypeGossip {
		return fail(fmt.Errorf("cluster: gossip got frame type %d", ftype))
	}
	body, err := wire.ParseGossip(payload)
	if err != nil {
		return fail(err)
	}
	resp, err := parseGossipMsg(body)
	if err != nil {
		return fail(err)
	}
	n.completeExchange(pr, resp)
	return nil
}

// HandleGossip answers one inbound anti-entropy request (the server
// side, called from the daemon's connection goroutines): absorb what
// the sender pushed — which registers a previously unknown sender whose
// advertised address authenticates its member id (runtime join) — then
// respond with our digest plus the rows and replicas the sender lacks.
// A sender that fails authentication gets identity and roster only.
func (n *Node) HandleGossip(reqBody []byte) ([]byte, error) {
	req, err := parseGossipMsg(reqBody)
	if err != nil {
		return nil, err
	}
	return appendGossipMsg(nil, n.buildMsg(n.absorb(req), req)), nil
}

// maxDigest is how many digest entries a message carries: the sender's
// own version and, once known, the receiver's as the sender holds it.
const maxDigest = 2

// maxRosterBytes caps a message's roster entries. They are addresses
// other members advertised, which anyone reaching the ingest port can
// choose, so without a cap one sender with a near-frame-sized address,
// or a few hundred long ones, would grow every message past one frame
// and panic its framing.
const maxRosterBytes = wire.MaxGossipBody / 4

// maxAddrLen bounds an address a member may advertise: a DNS name (253
// bytes) plus ":" and a five-digit port.
const maxAddrLen = 253 + 6

// headLocked builds what every gossip message carries besides the
// digest, ops and victim state — identity and roster — and the budget
// left after it and a full digest. Caller holds n.mu.
func (n *Node) headLocked() (*gossipMsg, gossipBudget) {
	now := n.cfg.Now()
	m := &gossipMsg{Sender: n.self, RingVer: n.ring.Load().Version(), SenderAddr: n.cfg.Self, SenderAdmin: loadAddr(&n.adminAddr)}
	// The roster carries every peer we currently believe alive, so a
	// joiner that knows one member learns the rest in one exchange. It
	// fills shortest address first, ties by id, and an address past what
	// is left of maxRosterBytes is skipped: a crowd of long advertised
	// addresses cannot push an ordinary member off.
	left := maxRosterBytes
	peers := slices.Clone(n.members.Load().list)
	slices.SortStableFunc(peers, func(a, b *peer) int { return cmp.Compare(len(a.addr), len(b.addr)) })
	for _, other := range peers {
		if now-other.lastHeard.Load() <= int64(n.cfg.FailAfter) && 2+len(other.addr) <= left {
			m.Roster = append(m.Roster, other.addr)
			left -= 2 + len(other.addr)
		}
	}
	return m, newGossipBudget(maxDigest, rosterBytes(m.SenderAddr, m.SenderAdmin, m.Roster))
}

// buildMsg assembles one outbound gossip message for a peer: the
// blocklist rows changed since the version pr last reported holding, in
// version order until the budget ends — less the rows pr minted itself
// — then the digest: how far this message brings pr through our rows,
// and how far we hold pr's. answering is the request the message
// responds to, nil when it is a request; only requests carry the
// outbox, because only the client reads back the response that proves
// delivery. A nil peer (a sender that failed authentication) gets the
// head alone.
func (n *Node) buildMsg(pr *peer, answering *gossipMsg) *gossipMsg {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, budget := n.headLocked()
	if pr == nil {
		return m
	}
	through := pr.acked
	for _, r := range n.bl.Changes(pr.acked, nil) {
		if r.Origin != pr.inc {
			if !budget.fitsOp() {
				break
			}
			m.Ops = append(m.Ops, originOp{Origin: r.Origin, Op: r})
		}
		through = r.Seq
	}
	m.Digest = append(m.Digest, digestEntry{Origin: n.incarnation, MaxSeq: through})
	if pr.inc != 0 {
		m.Digest = append(m.Digest, digestEntry{Origin: pr.inc, MaxSeq: pr.have})
	}
	if answering == nil {
		n.attachOutboxLocked(pr, n.ring.Load(), m, &budget)
	}
	n.appendReplicasLocked(pr, m, &budget)
	return m
}

// appendReplicasLocked ships victim-state replicas to pr: snapshots of
// victims this instance owns whose ring successor is pr — the instance
// that will take them over if we die. A round-robin cursor walks the
// owned set so every victim is re-replicated within a few rounds.
// Caller holds n.mu.
func (n *Node) appendReplicasLocked(pr *peer, m *gossipMsg, budget *gossipBudget) {
	ring := n.ring.Load()
	if ring.Size() <= 1 {
		return
	}
	victims := n.p.Victims()
	if len(victims) == 0 {
		return
	}
	start := pr.replicaCursor % len(victims)
	shipped := 0
	for i := 0; i < len(victims) && shipped < maxReplicasPerMsg; i++ {
		v := victims[(start+i)%len(victims)]
		pr.replicaCursor = (start + i + 1) % len(victims)
		if ring.Owner(v) != n.self || ring.Successor(v) != pr.id {
			continue
		}
		snap, ok := n.p.ExportVictim(v)
		if !ok {
			continue
		}
		if !budget.fitsReplica(&snap, 0) {
			if budget.oversize(&snap, 0) {
				continue // no message carries it; must not end every pass
			}
			break
		}
		m.Replicas = append(m.Replicas, snap)
		shipped++
	}
}

// absorb merges one inbound gossip message and returns its sender, or
// nil — and changes nothing — when the sender fails authentication: its
// advertised address must hash to its claimed id (member ids are the
// hash of the address, so a sender cannot act as another member without
// owning its address string) and must not be ours. An authenticated
// sender not yet known, and any roster entries we have never heard of,
// join the known fleet; the sender counts as heard from, roster entries
// do not (addPeer). Then liveness, the digest (DESIGN §12.3), the pushed
// rows — each through the blocklist's LWW rule — and any victim state
// addressed to us. A snapshot that seeds on arrival is a handoff
// received, committed under the op id its shipper derived too.
func (n *Node) absorb(m *gossipMsg) *peer {
	// Membership first, before the lock: addPeer takes n.mu itself.
	if MemberID(m.SenderAddr) != m.Sender {
		return nil
	}
	pr := n.addPeer(m.SenderAddr)
	if pr == nil {
		return nil
	}
	for _, addr := range m.Roster {
		n.addPeer(addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.cfg.Now()
	pr.lastHeard.Store(now)
	pr.lastGossip.Store(now)
	pr.ringVer.Store(m.RingVer)
	if m.SenderAdmin != "" {
		admin := m.SenderAdmin
		pr.adminAddr.Store(&admin)
	}
	// Entry one is the sender's own version, entry two ours as the sender
	// holds it. An entry two naming another incarnation was cut for our
	// previous life: its rows still apply, but they do not vouch for
	// the range.
	pr.acked = 0
	vouched, through := true, uint64(0)
	for i, d := range m.Digest {
		switch {
		case d.Origin == n.incarnation:
			pr.acked = d.MaxSeq
		case i == 0:
			if d.Origin != pr.inc {
				pr.inc, pr.have = d.Origin, 0
			}
			through = d.MaxSeq
		default:
			vouched = false
		}
	}
	for _, op := range m.Ops {
		n.bl.ApplyRemote(op.Op, op.Origin)
	}
	if vouched && through > pr.have {
		pr.have = through
	}
	ring := n.ring.Load()
	file := func(snap pipeline.VictimSnapshot, id uint64) {
		if n.storeReplicaLocked(ring, snap, id) {
			n.handbacksIn.Add(1)
			n.noteHandoff(pipeline.EventHandbackRecv, m.Sender, &snap, fmt.Sprintf("from=%x ring=v%d", m.Sender, m.RingVer))
			n.cfg.Logf("cluster: handoff received victim=%d from=%x", snap.Victim, m.Sender)
		}
	}
	for _, snap := range m.Replicas {
		file(snap, 0)
	}
	for _, h := range m.Handoffs {
		file(h.VictimSnapshot, h.ID)
	}
	return pr
}

// storeReplicaLocked files one inbound victim replica, or with a
// non-zero id a handoff. If the ring already says we own the victim (a
// handoff's destination; for a replica, the shipper had a stale ring,
// or the owner died between shipping and arrival) it is seeded into the
// pipeline immediately: a replica at most once per ownership epoch and
// not after any seed of that epoch, since a replica is a cumulative
// snapshot and seeding is additive; a handoff, which moved state rather
// than copied it, once per id. Otherwise a handoff is seeded all the
// same and a replica is stored, newest-by-volume wins, until a
// membership change makes us the owner. Reports whether it seeded.
//
// An Expired replica is a tombstone: the owner's TTL sweep retired the
// victim. It replaces whatever replica is stored (so a takeover never
// resurrects the retired detector), and is never seeded; a later fresh
// replica replaces the tombstone, since only a live owner ships those.
// Caller holds n.mu.
func (n *Node) storeReplicaLocked(ring *Ring, snap pipeline.VictimSnapshot, id uint64) bool {
	v := snap.Victim
	if ring.Owner(v) == n.self {
		// A tombstone means the previous owner retired this victim before
		// handing it over: drop the stored replica rather than seeding it.
		delete(n.replicas, v)
		return !snap.Expired && n.seedLocked(snap, id)
	}
	if id != 0 {
		// A handoff whose shipper's ring disagrees with ours is exact
		// state all the same: held here, the next sweep hands it on.
		return n.seedLocked(snap, id)
	}
	old, ok := n.replicas[v]
	if !ok || snap.Expired || old.Expired || old.Identified()+old.Undecodable <= snap.Identified()+snap.Undecodable {
		n.replicas[v] = snap // else keep the fuller snapshot
	}
	return false
}

// seedLocked seeds snap unless this ownership epoch already seeded
// handoff id, or for a replica (id 0) anything of its victim. The latch
// is read and set under outMu but SeedVictim, a blocking enqueue, runs
// outside it; n.mu, which the caller holds, serializes seeders.
func (n *Node) seedLocked(snap pipeline.VictimSnapshot, id uint64) bool {
	n.outMu.Lock()
	ids := n.seeded[snap.Victim]
	done := len(ids) > 0 && (id == 0 || slices.Contains(ids, id))
	n.outMu.Unlock()
	if done || !n.p.SeedVictim(snap) {
		return false
	}
	n.outMu.Lock()
	n.seeded[snap.Victim] = append(n.seeded[snap.Victim], id)
	n.outMu.Unlock()
	n.seedsApplied.Add(1)
	return true
}

// recomputeMembership re-derives the alive set from lastHeard and, on
// any change, installs a new ring (installRing). Every call, changed
// or not, then hands off the exact state held here for victims the
// ring assigns elsewhere — detached into the outbox for its owner
// (rejoin, join rebalance, and state that landed after the ring last
// changed: records forwarded by a member on an older ring, or a seed
// still queued on its shard when that sweep listed the victims), one
// pending handoff per victim at a time — and settles the outbox.
func (n *Node) recomputeMembership() {
	defer n.settleOutbox()
	now := n.cfg.Now()
	ps := n.members.Load()
	alive := make([]uint64, 1, len(ps.list)+1)
	alive[0] = n.self
	for _, pr := range ps.list {
		if now-pr.lastHeard.Load() <= int64(n.cfg.FailAfter) {
			alive = append(alive, pr.id)
		}
	}
	// Compare as sorted sets unconditionally: equal sizes never imply
	// equal membership — between two sweeps one member can vanish while
	// another (a runtime join, say) appears, keeping the count constant
	// but demanding a rebuild all the same.
	slices.Sort(alive)
	ring := n.ring.Load()
	if !slices.Equal(alive, ring.Members()) {
		ring = n.installRing(alive, len(ps.list)+1)
	}
	// Each victim is detached through its shard queue, so records
	// already submitted are tallied into the snapshot. Runs outside
	// n.mu, though the detach callback would not need it: shard workers
	// never take n.mu.
	moved := 0
	for _, v := range n.p.Victims() {
		if ring.Owner(v) == n.self || !n.claimHandoff(v) {
			continue
		}
		if n.p.DetachVictim(v, n.noteDetached) {
			moved++
		} else {
			n.noteDetached(pipeline.VictimSnapshot{Victim: v}, false) // closed: release the claim
		}
	}
	if moved > 0 {
		n.cfg.Logf("cluster: ring v%d handing off %d victims", ring.Version(), moved)
	}
}

// installRing installs the ring over alive and runs the ownership
// transitions: the seeded-set entries of victims whose ownership epoch
// here ends or begins are cleared — so a future re-takeover can seed
// again, and handoffs this member seeded and passed on before it owned
// a victim refuse no takeover — and stored replicas for victims now
// owned here are seeded (takeover). The journal gets
// the rebuild, with the new version and member set, and a takeover
// event with the seed count when it seeded any.
func (n *Node) installRing(alive []uint64, known int) *Ring {
	n.mu.Lock()
	n.ringVersion++
	old, ring := n.ring.Load(), NewRing(n.ringVersion, alive, n.cfg.VNodes)
	n.ring.Store(ring)
	n.cfg.Logf("cluster: ring v%d alive=%d/%d", ring.Version(), ring.Size(), known)
	n.outMu.Lock()
	for v := range n.seeded {
		if ring.Owner(v) != n.self || old.Owner(v) != n.self {
			delete(n.seeded, v)
		}
	}
	n.outMu.Unlock()
	seeds := 0
	for v, snap := range n.replicas {
		// Tombstones are dropped, never seeded: the dead owner had
		// already retired this victim's detectors.
		if ring.Owner(v) == n.self && n.storeReplicaLocked(ring, snap, 0) {
			seeds++
		}
	}
	n.mu.Unlock()
	now := n.cfg.Now()
	n.note(pipeline.Event{
		T: now, Type: pipeline.EventRingChange,
		Victim: -1, Source: -1, Count: int64(len(alive)),
		Detail: fmt.Sprintf("ring=v%d members=%s", ring.Version(), strings.Trim(fmt.Sprintf("%x", alive), "[]")),
	}, pipeline.OutcomeRingChange, 0)
	if seeds > 0 {
		n.takeovers.Add(1)
		n.cfg.Logf("cluster: took over %d victims from stored replicas", seeds)
		n.note(pipeline.Event{
			T: now, Type: pipeline.EventTakeover,
			Victim: -1, Source: -1, Count: int64(seeds),
			Detail: fmt.Sprintf("ring=v%d seeded=%d", ring.Version(), seeds),
		}, pipeline.OutcomeTakeover, 0)
	}
	return ring
}

// Status is the /cluster admin document.
type Status struct {
	Self             string         `json:"self"`
	MemberID         uint64         `json:"member_id"`
	Incarnation      uint64         `json:"incarnation"`
	RingVersion      uint64         `json:"ring_version"`
	Alive            int            `json:"alive"`
	Members          []MemberStatus `json:"members"`
	ForwardedOut     uint64         `json:"forwarded_out"`
	ForwardedIn      uint64         `json:"forwarded_in"`
	ForwardDropped   uint64         `json:"forward_dropped"`
	ForwardLost      uint64         `json:"forward_lost"`
	ForwardSuppress  uint64         `json:"forward_suppressed"`
	GateAdmitted     int            `json:"gate_admitted_victims"`
	ForwardQueue     int            `json:"forward_queue_len"`
	GossipRounds     uint64         `json:"gossip_rounds"`
	GossipFails      uint64         `json:"gossip_fails"`
	BlocklistSeq     uint64         `json:"blocklist_seq"`
	SeedsApplied     uint64         `json:"seeds_applied"`
	Takeovers        uint64         `json:"takeovers"`
	Joins            uint64         `json:"members_learned"`
	HandbacksOut     uint64         `json:"handbacks_sent"`
	HandbacksIn      uint64         `json:"handbacks_received"`
	HandbackFailures uint64         `json:"handback_failures"`
	TraceDowngrades  uint64         `json:"trace_downgrades"`
	StoredReplicas   int            `json:"stored_replicas"`
	RetiredTombs     int            `json:"retired_tombstones"`
	OwnedVictims     int            `json:"owned_victims"`
}

// MemberStatus is one fleet member's liveness as this instance sees it,
// plus the local forward-session lag toward it: Queued is what Route
// offered its queue, Delivered what the peer acked, Lost what was shed
// at the full queue or abandoned by the session — queued − delivered −
// lost is in flight.
type MemberStatus struct {
	Addr         string `json:"addr"`
	ID           uint64 `json:"id"`
	Self         bool   `json:"self,omitempty"`
	Alive        bool   `json:"alive"`
	LastHeardMs  int64  `json:"last_heard_ms,omitempty"`
	LastGossipMs int64  `json:"last_gossip_ms,omitempty"` // -1 = never exchanged
	RingVersion  uint64 `json:"ring_version,omitempty"`
	Queued       uint64 `json:"forward_queued,omitempty"`
	Delivered    uint64 `json:"forward_delivered,omitempty"`
	Lost         uint64 `json:"forward_lost,omitempty"`
	AdminAddr    string `json:"admin_addr,omitempty"`
}

// StatusJSON implements pipeline.ClusterNode.
func (n *Node) StatusJSON() any {
	now := n.cfg.Now()
	ring := n.ring.Load()
	st := Status{
		Self:        n.cfg.Self,
		MemberID:    n.self,
		Incarnation: n.incarnation,
		RingVersion: ring.Version(),
		Alive:       ring.Size(),
		Members: []MemberStatus{{
			Addr: n.cfg.Self, ID: n.self, Self: true, Alive: true, RingVersion: ring.Version(),
			AdminAddr: loadAddr(&n.adminAddr),
		}},
		ForwardedOut:     n.forwardedOut.Load(),
		ForwardedIn:      n.forwardedIn.Load(),
		ForwardDropped:   n.forwardDropped.Load(),
		ForwardLost:      n.forwardLost.Load(),
		ForwardSuppress:  n.forwardSuppress.Load(),
		GossipRounds:     n.gossipRounds.Load(),
		GossipFails:      n.gossipFails.Load(),
		BlocklistSeq:     n.bl.Seq(),
		SeedsApplied:     n.seedsApplied.Load(),
		Takeovers:        n.takeovers.Load(),
		Joins:            n.joins.Load(),
		HandbacksOut:     n.handbacksOut.Load(),
		HandbacksIn:      n.handbacksIn.Load(),
		HandbackFailures: n.handbackFailures.Load(),
		TraceDowngrades:  n.traceDowngrades.Load(),
	}
	if n.gate != nil {
		st.GateAdmitted = n.gate.admittedCount()
	}
	for _, pr := range n.members.Load().list {
		st.ForwardQueue += len(pr.queue)
		ms := MemberStatus{
			Addr:         pr.addr,
			ID:           pr.id,
			Alive:        ring.Has(pr.id),
			LastHeardMs:  (now - pr.lastHeard.Load()) / int64(time.Millisecond),
			LastGossipMs: -1,
			RingVersion:  pr.ringVer.Load(),
			Queued:       pr.queued.Load(),
			Delivered:    pr.delivered.Load(),
			Lost:         pr.lost.Load(),
			AdminAddr:    loadAddr(&pr.adminAddr),
		}
		if lg := pr.lastGossip.Load(); lg != 0 {
			ms.LastGossipMs = (now - lg) / int64(time.Millisecond)
		}
		st.Members = append(st.Members, ms)
	}
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].ID < st.Members[j].ID })
	n.mu.Lock()
	st.StoredReplicas = len(n.replicas)
	n.mu.Unlock()
	n.outMu.Lock()
	for k := range n.outbox {
		if k.tomb {
			st.RetiredTombs++
		}
	}
	n.outMu.Unlock()
	for _, v := range n.p.Victims() {
		if ring.Owner(v) == n.self {
			st.OwnedVictims++
		}
	}
	return st
}

// WriteMetrics implements pipeline.ClusterNode: the cluster tier's
// Prometheus series, appended to the daemon's /metrics.
func (n *Node) WriteMetrics(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("ddpmd_forwarded_total", "records queued for forwarding to owning peers", n.forwardedOut.Load())
	counter("ddpmd_forwarded_in_total", "records accepted off inbound forwarding sessions", n.forwardedIn.Load())
	counter("ddpmd_forward_dropped_total", "records shed at full forwarding queues", n.forwardDropped.Load())
	counter("ddpmd_forward_lost_total", "forwarded records a down or closing forward session abandoned", n.forwardLost.Load())
	counter("ddpmd_forward_suppressed_total", "unowned records suppressed below the forwarding sketch gate", n.forwardSuppress.Load())
	counter("ddpmd_gossip_rounds_total", "anti-entropy rounds completed", n.gossipRounds.Load())
	counter("ddpmd_gossip_fails_total", "per-peer gossip exchanges that errored", n.gossipFails.Load())
	counter("ddpmd_cluster_seeds_applied_total", "victim replicas seeded into the local pipeline", n.seedsApplied.Load())
	counter("ddpmd_cluster_joins_total", "members learned at runtime (roster or authenticated hello)", n.joins.Load())
	counter("ddpmd_handback_sent_total", "victim-state handoffs confirmed by a completed gossip exchange", n.handbacksOut.Load())
	counter("ddpmd_handback_received_total", "victim snapshots seeded on arrival from another member", n.handbacksIn.Load())
	counter("ddpmd_handback_failed_total", "handoffs too large for a gossip message, filed as a stored replica", n.handbackFailures.Load())
	counter("ddpmd_trace_downgrades_total", "forward sessions established without the trace lane", n.traceDowngrades.Load())
	ps, ring, now := n.members.Load(), n.ring.Load(), n.cfg.Now()
	// Gossip lag: seconds since the least recently heard alive peer —
	// how stale fleet-wide state (blocklist, replicas) can be here.
	qlen, lagNS := 0, int64(0)
	for _, pr := range ps.list {
		qlen += len(pr.queue)
		if lag := now - pr.lastHeard.Load(); ring.Has(pr.id) && lag > lagNS {
			lagNS = lag
		}
	}
	gauge("ddpmd_forward_queue_len", "records batches queued for forwarding across peers", int64(qlen))
	if n.gate != nil {
		gauge("ddpmd_forward_gate_admitted", "unowned victims currently admitted through the forwarding gate", int64(n.gate.admittedCount()))
	}
	gauge("ddpmd_ring_version", "local consistent-hash ring generation", int64(ring.Version()))
	gauge("ddpmd_cluster_members", "known fleet size (static peers plus runtime joins)", int64(len(ps.list)+1))
	gauge("ddpmd_cluster_alive", "members currently on the ring", int64(ring.Size()))
	fmt.Fprintf(w, "# HELP ddpmd_gossip_lag_seconds seconds since the least recently heard alive peer\n"+
		"# TYPE ddpmd_gossip_lag_seconds gauge\nddpmd_gossip_lag_seconds %.3f\n",
		float64(lagNS)/float64(time.Second))
}

// SetAdminAddr implements pipeline.ClusterNode: the admin-plane HTTP
// address rides every subsequent gossip message, so every member's
// /cluster lists it and the `ddpmd fleet` commands reach the whole
// fleet from any one member.
func (n *Node) SetAdminAddr(addr string) { n.adminAddr.Store(&addr) }

// loadAddr reads an admin address, "" until one is stored.
func loadAddr(p *atomic.Pointer[string]) string {
	if a := p.Load(); a != nil {
		return *a
	}
	return ""
}
