package cluster

// Blocklist anti-entropy over versioned LWW rows (DESIGN §12.3): a
// seeded randomized convergence check against an LWW reference, and the
// bounds the row design exists for — memory and message cost that do
// not grow with uptime, a digest that does not grow with restarts, and
// a joiner that catches up in one exchange.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
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

// simNode is one member of an in-process fleet whose nodes come and go
// within a test: unlike newTestNode it is closed by its owner, not at
// test cleanup.
type simNode struct {
	n *Node
	p *pipeline.Pipeline
}

func newSimNode(self string, peers []string, incarnation uint64, now *atomic.Int64) (simNode, error) {
	p, err := pipeline.New(pipeline.Config{
		Net: topology.NewTorus2D(4), Shards: 1, QueueLen: 16,
		TraceBuffer: -1, LatencySampleEvery: -1,
	})
	if err != nil {
		return simNode{}, err
	}
	n, err := New(p, Config{
		Self: self, Peers: peers,
		GossipInterval: time.Hour, FailAfter: time.Hour,
		Incarnation: incarnation,
		Dial:        func(string) (net.Conn, error) { return nil, errors.New("test: no network") },
		Now:         now.Load,
	})
	if err != nil {
		p.Close()
		return simNode{}, err
	}
	return simNode{n, p}, nil
}

func (s simNode) close() {
	s.n.Close()
	s.p.Close()
}

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

// TestBlocklistAntiEntropyRandomized drives 3–5 in-process members
// through seeded schedules of blocks, TTL blocks, unblocks, expiry
// sweeps, restarts (a fresh node under the same address with a new
// incarnation), complete exchanges, exchanges whose response is lost,
// and exchanges whose messages the budget truncates to a few ops. After
// quiescent all-pairs rounds every member's blocklist must equal every
// other's and the LWW reference over every write that survived — a
// write is lost only when the one member holding it restarts.
func TestBlocklistAntiEntropyRandomized(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := antiEntropySchedule(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func antiEntropySchedule(seed int64) (err error) {
	rng := rand.New(rand.NewSource(seed))
	var now atomic.Int64
	now.Store(int64(time.Second))
	size := 3 + rng.Intn(3)
	addrs := make([]string, size)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.20.0.%d:1", i+1)
	}
	others := func(i int) []string {
		return append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
	}
	nextInc := uint64(seed) << 16
	nodes := make([]simNode, size)
	defer func() {
		for _, s := range nodes {
			if s.n != nil {
				s.close()
			}
		}
	}()
	start := func(i int) error {
		nextInc++
		s, err := newSimNode(addrs[i], others(i), nextInc, &now)
		nodes[i] = s
		return err
	}
	for i := range nodes {
		if err := start(i); err != nil {
			return err
		}
	}
	// exchange is the test helper's dance without a *testing.T: the
	// client's request is absorbed by the server, and the response by the
	// client unless it is lost.
	exchange := func(server, client *Node, lost bool) error {
		pr := client.members.Load().byID[server.self]
		body, err := server.HandleGossip(appendGossipMsg(nil, client.buildMsg(pr, nil)))
		if err != nil || lost {
			return err
		}
		resp, err := parseGossipMsg(body)
		if err != nil {
			return err
		}
		client.completeExchange(pr, resp)
		return nil
	}

	var writes []filter.Mutation
	mint := func(bl *filter.Blocklist, op func()) {
		before := bl.Seq()
		op()
		writes = append(writes, bl.Changes(before, nil)...)
	}
	for step := 0; step < 80; step++ {
		i, j := rng.Intn(size), rng.Intn(size-1)
		if j >= i {
			j++
		}
		bl := nodes[i].p.Blocklist()
		x := topology.NodeID(rng.Intn(12))
		switch k := rng.Intn(10); {
		case k == 0:
			mint(bl, func() { bl.BlockUntilFor(x, filter.Permanent, topology.NodeID(rng.Intn(16))) })
		case k == 1:
			until := now.Load() + rng.Int63n(int64(3*time.Second))
			mint(bl, func() { bl.BlockUntilFor(x, until, topology.NodeID(rng.Intn(16))) })
		case k == 2:
			mint(bl, func() { bl.Unblock(x) })
		case k == 3:
			now.Add(rng.Int63n(int64(time.Second)))
			bl.ExpireEntries(now.Load())
		case k == 4 && rng.Intn(3) == 0:
			// A write held by no other member dies with this one.
			kept := writes[:0]
			for _, w := range writes {
				for o := range nodes {
					if o != i && holds(nodes[o].p.Blocklist(), w) {
						kept = append(kept, w)
						break
					}
				}
			}
			writes = kept
			nodes[i].close()
			if err := start(i); err != nil {
				return err
			}
		case k == 5:
			admin := ""
			if rng.Intn(2) == 0 {
				admin = truncatingAdmin(addrs[i], others(i), 1+rng.Intn(3))
			}
			nodes[i].n.SetAdminAddr(admin)
		default:
			if err := exchange(nodes[i].n, nodes[j].n, rng.Intn(4) == 0); err != nil {
				return err
			}
		}
	}

	for _, s := range nodes {
		s.n.SetAdminAddr("")
	}
	for round := 0; round < 3; round++ {
		for i := range nodes {
			for j := range nodes {
				if i != j {
					if err := exchange(nodes[i].n, nodes[j].n, false); err != nil {
						return err
					}
				}
			}
		}
	}
	want := lwwReference(writes, now.Load())
	for i, s := range nodes {
		s.p.Blocklist().ExpireEntries(now.Load())
		if got := s.p.Blocklist().Snapshot(); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("member %d (%s) holds %+v, want the LWW reference %+v", i, addrs[i], got, want)
		}
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
	a, pa := newTestNode(t, addrs[0], addrs[1:], 2101, &now)
	b, pb := newTestNode(t, addrs[1], addrs[:1], 2102, &now)
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
	a, pa := newTestNode(t, addrs[0], addrs[1:], 2201, &now)
	for life := 0; life < 20; life++ {
		b, err := newSimNode(addrs[1], addrs[:1], uint64(2300+life), &now)
		if err != nil {
			t.Fatal(err)
		}
		b.p.Blocklist().Block(topology.NodeID(life))
		exchange(t, a, b.n)
		exchange(t, b.n, a)
		if d := a.buildMsg(a.members.Load().byID[b.n.self], nil).Digest; len(d) > maxDigest {
			b.close()
			t.Fatalf("life %d: digest to the restarted peer has %d entries: %+v", life, len(d), d)
		}
		if d := b.n.buildMsg(b.n.members.Load().byID[a.self], nil).Digest; len(d) > maxDigest {
			b.close()
			t.Fatalf("life %d: the restarted peer's digest has %d entries: %+v", life, len(d), d)
		}
		b.close()
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
	a, pa := newTestNode(t, addrs[0], addrs[1:2], 2401, &now)
	b, _ := newTestNode(t, addrs[1], addrs[:1], 2402, &now)
	reblockDay(t, a, b, &now)
	for x := topology.NodeID(0); x < 64; x += 2 {
		pa.Blocklist().Block(x)
	}

	j, pj := newTestNode(t, addrs[2], addrs[:1], 2403, &now)
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
