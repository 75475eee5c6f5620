// Package filter implements the response side of the pipeline: once
// sources or signatures are identified, traffic is blocked. Three
// mechanisms, matching the paper's discussion:
//
//   - Blocklist: drop traffic whose DDPM-identified source node is
//     blocked ("Once a source or a path is identified, we can protect
//     our system by blocking packets from that source", §1)
//   - SignatureFilter: drop traffic whose MF matches a learned DPM
//     signature (§2, Yaar-style)
//   - IngressFilter: the Ferguson–Senie baseline (§2 [10]): a switch
//     verifies the source address of locally injected packets against
//     the node's assigned address and drops spoofed ones — effective
//     but it costs a table lookup in every switch, the performance/
//     security trade-off of §6.2.
package filter

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceback"
)

// Verdict is a filter decision.
type Verdict int

const (
	Accept Verdict = iota
	Drop
)

func (v Verdict) String() string {
	if v == Drop {
		return "drop"
	}
	return "accept"
}

// Permanent is the expiry value of a block with no TTL.
const Permanent int64 = 0

// BlockEntry is one blocklist row: a node, the caller-timebase
// instant its block lapses (Permanent for no expiry), and the victim
// whose identification evidence caused the block (topology.None when
// unknown — operator-inserted or pre-victim-tracking entries), so
// audit consumers can correlate a block's expiry with the original
// source_blocked event.
type BlockEntry struct {
	Node   topology.NodeID
	Until  int64
	Victim topology.NodeID
}

// blockVal is the map payload behind one blocked node.
type blockVal struct {
	until  int64
	victim topology.NodeID
}

// Blocklist drops packets whose marking-identified source node is
// blocked. It is keyed by node, not by (spoofable) header address.
//
// Blocks may carry an expiry so a response to a burst ages out instead
// of punishing a once-compromised node forever. Expiry instants are
// opaque int64s in whatever monotone timebase the caller uses —
// simulator ticks in closed-loop experiments, unix nanoseconds in the
// ddpmd daemon — compared only against the `now` the caller passes.
//
// All methods are safe for concurrent use: the daemon's admin plane
// mutates the list while shard workers consult it.
type Blocklist struct {
	at marking.Victim // the victim's decoder; zero on a list built without a scheme

	mu      sync.Mutex
	blocked map[topology.NodeID]blockVal // node -> expiry + blocking victim
	size    atomic.Int64                 // len(blocked), readable without the mutex

	// idx mirrors blocked for the ids a 16-bit MF can name, one atomic
	// expiry each, so BlockedAt takes no lock. Pages are allocated on the
	// first block in their range; only setIndex writes them, under mu.
	idx [idxPages]atomic.Pointer[[idxPage]atomic.Int64]

	// Replication state (see sequence.go): one last-writer-wins row per
	// node ever written, versioned by ver; remote writes are resolved by
	// (stamp, origin).
	origin uint64
	ver    uint64
	stamp  uint64
	rows   map[topology.NodeID]Mutation

	accepted, dropped uint64
}

// NewBlocklist builds an empty blocklist for a victim using DDPM
// identification.
func NewBlocklist(ddpm *marking.DDPM, victim topology.NodeID) *Blocklist {
	return &Blocklist{at: ddpm.At(victim), blocked: make(map[topology.NodeID]blockVal)}
}

// NewTTLBlocklist builds a blocklist with no identification scheme for
// pipelines that attribute packets upstream and consult the list by
// node (BlockedAt); Check on it fails open.
func NewTTLBlocklist() *Blocklist {
	return &Blocklist{blocked: make(map[topology.NodeID]blockVal)}
}

// Block adds a node with no expiry; BlockAll adds many (e.g. from
// traceback.DDPMIdentifier.SourcesAbove).
func (b *Blocklist) Block(n topology.NodeID) { b.BlockUntil(n, Permanent) }

func (b *Blocklist) BlockAll(ns []topology.NodeID) {
	for _, n := range ns {
		b.Block(n)
	}
}

// BlockUntil adds a node whose block lapses at the given instant of
// the caller's timebase. A permanent block always wins over a TTL; a
// later expiry extends an earlier one.
func (b *Blocklist) BlockUntil(n topology.NodeID, until int64) {
	b.BlockUntilFor(n, until, topology.None)
}

// BlockUntilFor is BlockUntil with attribution: victim names the node
// whose identification evidence caused the block, carried on the entry
// (and through replication) so expiry audit events can reference it.
func (b *Blocklist) BlockUntilFor(n topology.NodeID, until int64, victim topology.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old, ok := b.blocked[n]
	if ok && (old.until == Permanent || (until != Permanent && old.until >= until)) {
		return
	}
	b.blocked[n] = blockVal{until: until, victim: victim}
	if !ok {
		b.size.Add(1)
	}
	b.setIndex(n)
	b.record(n, until, victim, false)
}

// The read index: 128 pages of 512 ids. A slot holds 0 when the node is
// absent, idxPermanent for a block with no expiry, idxAsk for a TTL
// ending at math.MaxInt64 (the map answers), else the expiry itself.
const (
	idxPage      = 512
	idxPages     = 1 << 16 / idxPage
	idxPermanent = math.MaxInt64
	idxAsk       = math.MinInt64
)

// setIndex mirrors n's map entry into the read index. Every path that
// mutates blocked calls it; caller holds b.mu.
func (b *Blocklist) setIndex(n topology.NodeID) {
	if uint(n) >= idxPages*idxPage {
		return // BlockedAt asks the map
	}
	v, ok := b.blocked[n]
	pg := b.idx[n/idxPage].Load()
	if pg == nil && ok {
		pg = new([idxPage]atomic.Int64)
		b.idx[n/idxPage].Store(pg)
	}
	x := v.until // 0, absent, when !ok
	switch {
	case ok && x == Permanent:
		x = idxPermanent
	case x == math.MaxInt64:
		x = idxAsk
	}
	if pg != nil {
		pg[n%idxPage].Store(x)
	}
}

// Empty reports, without taking the mutex, whether the list has no
// entries at all (lapsed-but-unpruned entries count as present). The
// pipeline's batch hot path uses it to skip the per-record BlockedAt
// lookups while no block has ever been in force; under attack the list
// is not empty, and the lookups it leaves are lock-free.
func (b *Blocklist) Empty() bool { return b.size.Load() == 0 }

// Unblock removes a node.
func (b *Blocklist) Unblock(n topology.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.blocked[n]; ok {
		delete(b.blocked, n)
		b.size.Add(-1)
		b.setIndex(n)
		b.record(n, Permanent, topology.None, true)
	}
}

// Len returns the number of blocked nodes, including entries whose
// expiry has passed but which ExpireEntries has not yet pruned.
func (b *Blocklist) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.blocked)
}

// ExpireEntries prunes every entry whose expiry is at or before now
// and returns the lapsed entries sorted by node id, so callers can
// audit exactly which blocks aged out (ddpmd journals each as a
// block-expired event). Returns nil when nothing lapsed.
func (b *Blocklist) ExpireEntries(now int64) []BlockEntry {
	b.mu.Lock()
	var lapsed []BlockEntry
	for n, v := range b.blocked {
		if v.until != Permanent && v.until <= now {
			delete(b.blocked, n)
			b.size.Add(-1)
			b.setIndex(n)
			lapsed = append(lapsed, BlockEntry{Node: n, Until: v.until, Victim: v.victim})
		}
	}
	b.mu.Unlock()
	sort.Slice(lapsed, func(i, j int) bool { return lapsed[i].Node < lapsed[j].Node })
	return lapsed
}

// BlockedAt reports whether n is blocked at instant now. Lapsed
// entries answer false even before ExpireEntries prunes them, so TTL decay
// needs no background reaper. For a node id in the read index it is one
// pointer load and one atomic load; any other id asks the map.
func (b *Blocklist) BlockedAt(n topology.NodeID, now int64) bool {
	if uint(n) < idxPages*idxPage {
		pg := b.idx[n/idxPage].Load()
		if pg == nil {
			return false
		}
		if x := pg[n%idxPage].Load(); x != idxAsk {
			return x == idxPermanent || (x != 0 && x > now)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.blocked[n]
	return ok && (v.until == Permanent || v.until > now)
}

// Snapshot returns the current entries sorted by node id.
func (b *Blocklist) Snapshot() []BlockEntry {
	b.mu.Lock()
	out := make([]BlockEntry, 0, len(b.blocked))
	for n, v := range b.blocked {
		out = append(out, BlockEntry{Node: n, Until: v.until, Victim: v.victim})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Check filters one delivered packet by identifying its source from the
// MF. Unidentifiable packets are accepted (fail-open, like a real
// victim that cannot attribute them), as are all packets on a list
// built without a scheme (NewTTLBlocklist). Check has no clock, so
// entries count as blocked until ExpireEntries prunes them.
func (b *Blocklist) Check(pk *packet.Packet) Verdict {
	b.mu.Lock()
	defer b.mu.Unlock()
	if src, ok := b.at.Source(pk.Hdr.ID); ok {
		if _, hit := b.blocked[src]; hit {
			b.dropped++
			return Drop
		}
	}
	b.accepted++
	return Accept
}

// Counts returns accepted and dropped tallies.
func (b *Blocklist) Counts() (accepted, dropped uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.accepted, b.dropped
}

// SignatureFilter drops packets whose MF matches a learned DPM
// signature. Its false positives against innocent flows sharing a
// signature are exactly the DPM ambiguity of experiment E2.
type SignatureFilter struct {
	table *traceback.SignatureTable

	accepted, dropped uint64
}

// NewSignatureFilter wraps a signature table.
func NewSignatureFilter(table *traceback.SignatureTable) *SignatureFilter {
	return &SignatureFilter{table: table}
}

// Check filters one packet.
func (f *SignatureFilter) Check(pk *packet.Packet) Verdict {
	if f.table.Match(pk) {
		f.dropped++
		return Drop
	}
	f.accepted++
	return Accept
}

// Counts returns accepted and dropped tallies.
func (f *SignatureFilter) Counts() (accepted, dropped uint64) { return f.accepted, f.dropped }

// IngressFilter is the switch-side spoofing block: every injected
// packet's header source must equal the injecting node's assigned
// address. It defeats spoofing outright but requires per-switch address
// state and a lookup on every injection (the §6.2 cost).
type IngressFilter struct {
	plan *packet.AddrPlan

	accepted, dropped uint64
}

// NewIngressFilter builds the filter over the cluster's address plan.
func NewIngressFilter(plan *packet.AddrPlan) *IngressFilter {
	return &IngressFilter{plan: plan}
}

// CheckInjection validates a packet as it enters the fabric at node
// src. Unlike the victim-side filters it runs before any marking.
func (f *IngressFilter) CheckInjection(src topology.NodeID, pk *packet.Packet) Verdict {
	if pk.Hdr.Src != f.plan.AddrOf(src) {
		f.dropped++
		return Drop
	}
	f.accepted++
	return Accept
}

// Counts returns accepted and dropped tallies.
func (f *IngressFilter) Counts() (accepted, dropped uint64) { return f.accepted, f.dropped }
