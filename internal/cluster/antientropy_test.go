package cluster

// Blocklist anti-entropy over versioned LWW rows (DESIGN §12.3) and the
// stepped ring it runs on: a seeded randomized ring harness checked
// against an LWW reference, exact-state placement and a record ledger,
// and the bounds the row design exists for — memory and message cost
// that do not grow with uptime, a digest that does not grow with
// restarts, and a joiner that catches up in one exchange.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

// wins reports whether write a orders after write b under LWW.
func wins(a, b filter.Mutation) bool {
	return a.Stamp > b.Stamp || (a.Stamp == b.Stamp && a.Origin > b.Origin)
}

// holds reports whether bl's row for w.Node is w or a write that wins
// over it.
func holds(bl *filter.Blocklist, w filter.Mutation) bool {
	for _, r := range bl.Changes(0, nil) {
		if r.Node == w.Node {
			return r.Stamp == w.Stamp && r.Origin == w.Origin || wins(r, w)
		}
	}
	return false
}

// lwwReference is the blocklist every member must converge on: per
// node, the winning write, kept when it is a block in force at now.
func lwwReference(writes []filter.Mutation, now int64) []filter.BlockEntry {
	best := map[topology.NodeID]filter.Mutation{}
	for _, w := range writes {
		if b, ok := best[w.Node]; !ok || wins(w, b) {
			best[w.Node] = w
		}
	}
	out := []filter.BlockEntry{}
	for _, w := range best {
		if !w.Unblock && (w.Until == filter.Permanent || w.Until > now) {
			out = append(out, filter.BlockEntry{Node: w.Node, Until: w.Until, Victim: w.Victim})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// truncatingAdmin is an admin address long enough that a message from
// self leaves room for about `ops` blocklist ops: the roster and admin
// sections are reserved before ops are budgeted, so padding the admin
// address is how a test shrinks the budget without touching the frame
// limit. peerAddrs bounds the roster's size.
func truncatingAdmin(self string, peerAddrs []string, ops int) string {
	room := wire.MaxGossipBody - gossipFixedSize - 6 - maxDigest*digestEntrySize -
		rosterBytes(self, "", peerAddrs) - ops*opSize
	return strings.Repeat("a", room)
}

// simNode is one life of a ring member: an unstarted node over its own
// pipeline, on the harness's network and clock, closed by its owner
// rather than at test cleanup, since members die and rejoin within a
// test.
type simNode struct {
	n *Node
	p *pipeline.Pipeline
}

// simVictims is how many victims the harness routes records to; victim
// simVictims itself never hears a record and serves as the barrier.
const simVictims = 15

func newSimNode(m *memNet, self string, peers []string, join string, now *atomic.Int64) (simNode, error) {
	p, err := pipeline.New(pipeline.Config{
		Net: topology.NewTorus2D(4), Shards: 1, QueueLen: 1 << 10,
		BlockThreshold: 1 << 30, BlockTTL: time.Hour,
		TraceBuffer: -1, LatencySampleEvery: -1,
	})
	if err != nil {
		return simNode{}, err
	}
	n, err := build(p, Config{
		Self: self, Peers: peers, Join: join,
		FailAfter: time.Second, Dial: m.dial, Now: now.Load,
	})
	if err != nil {
		p.Close()
		return simNode{}, err
	}
	m.up(self, &fwdPeer{node: n, trace: true})
	return simNode{n, p}, nil
}

// barrier returns once s's shard worker has run everything enqueued
// before it: records, seeds and the detaches a ring change started.
func (s simNode) barrier() {
	done := make(chan struct{})
	s.p.DetachVictim(simVictims, func(pipeline.VictimSnapshot, bool) { close(done) })
	<-done
}

// exactState is the record total of the exact state s holds: its
// victims' tallies and the handoffs its outbox still owes.
func (s simNode) exactState() int64 {
	s.barrier()
	var sum int64
	for _, v := range s.p.Victims() {
		snap, _ := s.p.ExportVictim(v)
		sum += snap.Identified() + snap.Undecodable
	}
	s.n.outMu.Lock()
	defer s.n.outMu.Unlock()
	for _, h := range s.n.outbox {
		if h.ID != 0 {
			sum += h.Identified() + h.Undecodable
		}
	}
	return sum
}

// close ends this life: the address goes down, the node ships what it
// can and counts the rest lost, and the pipeline drains. It reports the
// records the life's pipeline ingested and the records its node
// counted shed or lost, and fails unless each peer's forward ledger
// balances.
func (s simNode) close(m *memNet) (ingested, lost uint64, err error) {
	m.down(s.n.cfg.Self)
	s.n.Close()
	s.p.Close()
	if out := s.p.SlabsOutstanding(); out != 0 {
		err = fmt.Errorf("%s: %d slabs outstanding after close", s.n.cfg.Self, out)
	}
	for _, pr := range s.n.members.Load().list {
		if q, d, l := pr.queued.Load(), pr.delivered.Load(), pr.lost.Load(); q != d+l && err == nil {
			err = fmt.Errorf("%s: peer %s queued %d records, delivered %d and lost %d", s.n.cfg.Self, pr.addr, q, d, l)
		}
	}
	return s.p.C.Ingested.Load(), s.n.forwardDropped.Load() + s.n.forwardLost.Load() + s.n.forwardSuppress.Load(), err
}

// TestBlocklistAntiEntropyRandomized drives a ring of 3–5 unstarted
// members on one clock and one in-memory network through seeded
// schedules of the production steps — records routed at any member,
// forwarder steps, single exchanges and whole gossip rounds (each
// ending in the membership sweep and the outbox settle), exchanges
// whose response is lost, messages the budget truncates to a few ops —
// between blocks, TTL blocks, unblocks, expiry sweeps, clock jumps past
// FailAfter, and members that die and rejoin by -join under the same
// address with a new incarnation. After quiescent rounds with every
// member back:
//
//   - every member's blocklist equals the LWW reference over every
//     write that survived (a write is lost only when the one member
//     holding it dies);
//   - every member's ring holds the whole fleet, exact state for each
//     victim sits on its ring owner alone, and no outbox entry waits;
//   - that state, with the exact state each member held when it died,
//     tallies every record the pipelines ingested — each once when no
//     member died; at least once when one did, since a takeover seeds
//     the dead owner's replica, a copy;
//   - every record offered to Route was ingested by one member's
//     pipeline or counted once as shed, lost or suppressed, every
//     peer's forward ledger balances at its sender's close (queued =
//     delivered + lost), and every slab is back in its pool.
func TestBlocklistAntiEntropyRandomized(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := ringSchedule(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// ringSim is one seeded schedule's fleet and ledgers.
type ringSim struct {
	rng   *rand.Rand
	now   atomic.Int64
	net   *memNet
	addrs []string
	nodes []simNode // n nil: down

	writes                  []filter.Mutation
	offered, ingested, lost uint64
	died                    bool  // a member went down: its exact state went with it
	diedState               int64 // the records that exact state tallied
}

func (r *ringSim) others(i int) []string {
	return append(append([]string(nil), r.addrs[:i]...), r.addrs[i+1:]...)
}

// alive lists the members that are up.
func (r *ringSim) alive() []int {
	var up []int
	for i, s := range r.nodes {
		if s.n != nil {
			up = append(up, i)
		}
	}
	return up
}

// start brings member i up: configured with the whole fleet at the
// first start, by -join through a live member afterwards. Each life
// starts a clock tick later, so its incarnation is new.
func (r *ringSim) start(i int, first bool) error {
	r.now.Add(1)
	peers, join := r.others(i), ""
	if up := r.alive(); !first && len(up) > 0 {
		peers, join = nil, r.addrs[up[r.rng.Intn(len(up))]]
	}
	s, err := newSimNode(r.net, r.addrs[i], peers, join, &r.now)
	r.nodes[i] = s
	return err
}

// kill takes member i down. A write held by no other live member dies
// with it.
func (r *ringSim) kill(i int) error {
	kept := r.writes[:0]
	for _, w := range r.writes {
		for o, s := range r.nodes {
			if o != i && s.n != nil && holds(s.p.Blocklist(), w) {
				kept = append(kept, w)
				break
			}
		}
	}
	r.writes = kept
	r.died = true
	r.diedState += r.nodes[i].exactState()
	ingested, lost, err := r.nodes[i].close(r.net)
	r.ingested += ingested
	r.lost += lost
	r.nodes[i] = simNode{}
	return err
}

// route offers a slab of 1–40 records to member i.
func (r *ringSim) route(i int) {
	s := r.nodes[i]
	slab := s.p.GetSlab()
	for k := 1 + r.rng.Intn(40); k > 0; k-- {
		slab.Append(wire.Record{
			Victim: topology.NodeID(r.rng.Intn(simVictims)), MF: uint16(r.rng.Intn(1 << 16)), Topo: s.p.TopoID(),
		})
	}
	r.offered += uint64(slab.Len())
	s.n.Route(slab)
}

// mint applies one blocklist write on member i and records it.
func (r *ringSim) mint(i int, op func(bl *filter.Blocklist)) {
	bl := r.nodes[i].p.Blocklist()
	before := bl.Seq()
	op(bl)
	r.writes = append(r.writes, bl.Changes(before, nil)...)
}

// randomPeer picks one of node n's known peers.
func (r *ringSim) randomPeer(n *Node) *peer {
	list := n.members.Load().list
	if len(list) == 0 {
		return nil
	}
	return list[r.rng.Intn(len(list))]
}

func ringSchedule(seed int64) (err error) {
	r := &ringSim{rng: rand.New(rand.NewSource(seed)), net: newMemNet()}
	r.now.Store(int64(time.Second))
	r.addrs = make([]string, 3+r.rng.Intn(3))
	for i := range r.addrs {
		r.addrs[i] = fmt.Sprintf("10.20.0.%d:1", i+1)
	}
	r.nodes = make([]simNode, len(r.addrs))
	defer func() {
		for i, s := range r.nodes {
			if s.n != nil {
				if cerr := r.kill(i); err == nil {
					err = cerr
				}
			}
		}
		if err == nil && r.ingested+r.lost != r.offered {
			err = fmt.Errorf("offered %d records to Route: %d ingested + %d shed, lost or suppressed",
				r.offered, r.ingested, r.lost)
		}
	}()
	for i := range r.nodes {
		if err := r.start(i, true); err != nil {
			return err
		}
	}
	for step := 0; step < 120; step++ {
		up := r.alive()
		if len(up) == 0 {
			if err := r.start(r.rng.Intn(len(r.nodes)), false); err != nil {
				return err
			}
			continue
		}
		i := up[r.rng.Intn(len(up))]
		n := r.nodes[i].n
		x := topology.NodeID(r.rng.Intn(12))
		switch k := r.rng.Intn(20); {
		case k < 4:
			r.route(i)
		case k < 7:
			if pr := r.randomPeer(n); pr != nil {
				n.forwardStep(pr, nil)
			}
		case k < 9:
			n.gossipRound()
		case k < 11:
			if pr := r.randomPeer(n); pr != nil {
				if r.rng.Intn(4) == 0 {
					r.net.loseNext(pr.addr)
				}
				n.gossipWith(pr)
			}
		case k == 11:
			r.now.Add(r.rng.Int63n(int64(800 * time.Millisecond)))
		case k == 12:
			r.mint(i, func(bl *filter.Blocklist) {
				bl.BlockUntilFor(x, filter.Permanent, topology.NodeID(r.rng.Intn(16)))
			})
		case k == 13:
			until := r.now.Load() + r.rng.Int63n(int64(3*time.Second))
			r.mint(i, func(bl *filter.Blocklist) { bl.BlockUntilFor(x, until, topology.NodeID(r.rng.Intn(16))) })
		case k == 14:
			r.mint(i, func(bl *filter.Blocklist) { bl.Unblock(x) })
		case k == 15:
			r.now.Add(r.rng.Int63n(int64(time.Second)))
			r.nodes[i].p.Blocklist().ExpireEntries(r.now.Load())
		case k == 16:
			admin := ""
			if r.rng.Intn(2) == 0 {
				admin = truncatingAdmin(r.addrs[i], r.others(i), 1+r.rng.Intn(3))
			}
			n.SetAdminAddr(admin)
		case k == 17 && r.rng.Intn(2) == 0:
			if err := r.kill(i); err != nil {
				return err
			}
		case k >= 17:
			for d := range r.nodes {
				if r.nodes[d].n == nil {
					if err := r.start(d, false); err != nil {
						return err
					}
					break
				}
			}
		}
	}
	return r.quiesce()
}

// quiesce brings every member back, runs quiescent rounds — clock
// ticks well inside FailAfter, a gossip round and every forwarder step
// on each member, then each pipeline's barrier — and checks the fleet.
func (r *ringSim) quiesce() error {
	for i := range r.nodes {
		if r.nodes[i].n == nil {
			if err := r.start(i, false); err != nil {
				return err
			}
		}
		r.nodes[i].n.SetAdminAddr("")
	}
	for round := 0; round < 6; round++ {
		r.now.Add(int64(100 * time.Millisecond))
		for _, s := range r.nodes {
			s.n.gossipRound()
			for _, pr := range s.n.members.Load().list {
				s.n.forwardStep(pr, nil)
			}
		}
		for _, s := range r.nodes {
			s.barrier()
		}
	}
	want := lwwReference(r.writes, r.now.Load())
	for i, s := range r.nodes {
		s.p.Blocklist().ExpireEntries(r.now.Load())
		if got := s.p.Blocklist().Snapshot(); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("member %d (%s) holds %+v, want the LWW reference %+v", i, r.addrs[i], got, want)
		}
		ring := s.n.ring.Load()
		if ring.Size() != len(r.nodes) {
			return fmt.Errorf("member %d's ring %x holds %d of %d members", i, ring.Members(), ring.Size(), len(r.nodes))
		}
		for _, v := range s.p.Victims() {
			if owner := ring.Owner(v); owner != s.n.self {
				return fmt.Errorf("member %d holds exact state for victim %d, owned by %x", i, v, owner)
			}
		}
		if got := s.n.outboxLen(); got != 0 {
			return fmt.Errorf("member %d still owes %d outbox entries", i, got)
		}
	}
	tallied, ingested := r.diedState, int64(r.ingested)
	for _, s := range r.nodes {
		ingested += int64(s.p.C.Ingested.Load())
		tallied += s.exactState()
	}
	if tallied < ingested || !r.died && tallied != ingested {
		return fmt.Errorf("the fleet's exact state, living and at each death, tallies %d of the %d records its pipelines ingested (a member died: %v)",
			tallied, ingested, r.died)
	}
	return nil
}

// reblockDay runs a day of TTL re-blocks: every minute the 64 nodes of
// the 8×8 test fabric are blocked on a for 30 s, and a exchanges once
// with b as the client, so b's response tells a how far b holds a's
// rows. Both blocklists end empty.
func reblockDay(t *testing.T, a, b *Node, now *atomic.Int64) {
	t.Helper()
	bla := a.p.Blocklist()
	for minute := 0; minute < 1440; minute++ {
		now.Add(int64(time.Minute))
		bla.ExpireEntries(now.Load())
		b.p.Blocklist().ExpireEntries(now.Load())
		for x := topology.NodeID(0); x < 64; x++ {
			bla.BlockUntil(x, now.Load()+int64(30*time.Second))
		}
		exchange(t, b, a)
	}
	now.Add(int64(time.Minute))
	for _, n := range []*Node{a, b} {
		n.p.Blocklist().ExpireEntries(now.Load())
		if got := n.p.Blocklist().Len(); got != 0 {
			t.Fatalf("%s still blocks %d nodes after the day", n.cfg.Self, got)
		}
	}
}

// TestBlocklistDayOfReblocksStaysBounded: 92 160 mutations over a day
// leave each member one row per node, and a message to a peer one
// change behind costs that change, not the day.
func TestBlocklistDayOfReblocksStaysBounded(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.21.0.1:1", "10.21.0.2:1"}
	a, pa := newTestNode(t, addrs[0], addrs[1:], &now)
	b, pb := newTestNode(t, addrs[1], addrs[:1], &now)
	reblockDay(t, a, b, &now)
	for _, p := range []*pipeline.Pipeline{pa, pb} {
		if rows := len(p.Blocklist().Changes(0, nil)); rows > 64 {
			t.Fatalf("a member holds %d rows after a day of re-blocks, want ≤ 64", rows)
		}
	}

	pa.Blocklist().Block(7)
	toB := a.members.Load().byID[b.self]
	if m := a.buildMsg(toB, nil); len(m.Ops) != 1 || m.Ops[0].Op.Node != 7 {
		t.Fatalf("message to a peer one change behind carries %+v, want the one change", m.Ops)
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		a.buildMsg(toB, nil)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 64<<10 {
		t.Fatalf("buildMsg to a peer one change behind allocates %d B, want ≤ 64 KiB", per)
	}
}

// TestBlocklistDigestBoundedAcrossRestarts: a peer restarted 20 times —
// each life a new incarnation under the same address — leaves a digest
// of at most two entries, and every life's operator block survives.
func TestBlocklistDigestBoundedAcrossRestarts(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.22.0.1:1", "10.22.0.2:1"}
	a, pa := newTestNode(t, addrs[0], addrs[1:], &now)
	for life := 0; life < 20; life++ {
		now.Add(1) // a new life, a new incarnation
		b, err := newSimNode(netFor(t), addrs[1], addrs[:1], "", &now)
		if err != nil {
			t.Fatal(err)
		}
		b.p.Blocklist().Block(topology.NodeID(life))
		exchange(t, a, b.n)
		exchange(t, b.n, a)
		if d := a.buildMsg(a.members.Load().byID[b.n.self], nil).Digest; len(d) > maxDigest {
			b.close(netFor(t))
			t.Fatalf("life %d: digest to the restarted peer has %d entries: %+v", life, len(d), d)
		}
		if d := b.n.buildMsg(b.n.members.Load().byID[a.self], nil).Digest; len(d) > maxDigest {
			b.close(netFor(t))
			t.Fatalf("life %d: the restarted peer's digest has %d entries: %+v", life, len(d), d)
		}
		b.close(netFor(t))
	}
	if got := pa.Blocklist().Len(); got != 20 {
		t.Fatalf("a holds %d blocks, want one from each of the peer's 20 lives", got)
	}
}

// TestFreshJoinerCatchesUpInOneExchange: after a day of history, a
// member that joins knowing nothing holds the whole 64-row state after
// its first exchange.
func TestFreshJoinerCatchesUpInOneExchange(t *testing.T) {
	var now atomic.Int64
	addrs := []string{"10.24.0.1:1", "10.24.0.2:1", "10.24.0.3:1"}
	a, pa := newTestNode(t, addrs[0], addrs[1:2], &now)
	b, _ := newTestNode(t, addrs[1], addrs[:1], &now)
	reblockDay(t, a, b, &now)
	for x := topology.NodeID(0); x < 64; x += 2 {
		pa.Blocklist().Block(x)
	}

	j, pj := newTestNode(t, addrs[2], addrs[:1], &now)
	exchange(t, a, j)
	pj.Blocklist().ExpireEntries(now.Load()) // the day's lapsed rows, installed late
	rows := func(p *pipeline.Pipeline) map[topology.NodeID]filter.Mutation {
		out := map[topology.NodeID]filter.Mutation{}
		for _, r := range p.Blocklist().Changes(0, nil) {
			r.Seq = 0 // versions are local; the write is what must match
			out[r.Node] = r
		}
		return out
	}
	if got, want := rows(pj), rows(pa); len(want) != 64 || !reflect.DeepEqual(got, want) {
		t.Fatalf("joiner holds %d rows after one exchange, want a's %d", len(got), len(want))
	}
	if got, want := pj.Blocklist().Snapshot(), pa.Blocklist().Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("joiner's blocklist %+v, want %+v", got, want)
	}
}
