package filter

// Versioned blocklist rows: the replication substrate for clustered
// ddpmd. The list keeps one last-writer-wins row per node ever written
// — the write that currently owns the node's entry — and a local
// version counter. Every state-changing local mutation (auto-block,
// operator POST, unblock) bumps the version and a Lamport stamp and
// stores its row; a remote write that wins the LWW rule on (stamp,
// origin) in ApplyRemote is stored under a fresh local version too. The
// cluster layer ships a peer the rows changed since the version that
// peer last reported holding (Changes), so the replicated state is the
// list itself, bounded by the fabric, not its history. LWW application
// is order-independent, so every instance's blocklist converges to the
// same snapshot once gossip quiesces.
//
// TTL expiry is deliberately NOT versioned and never touches a row:
// expiry instants are absolute in the shared timebase, so every
// instance prunes the same entries at the same clock reading without
// exchanging a byte, and a late learner of a lapsed block installs it
// for ExpireEntries to prune and journal.

import (
	"sort"

	"repro/internal/topology"
)

// Mutation is one blocklist row: the write that currently owns a node's
// entry. Stamp is a Lamport stamp merged across the fleet by ApplyRemote
// and Origin the incarnation that minted the write, so (Stamp, Origin)
// totally orders conflicting writes to the same node. Seq is the list's
// local version when the row last changed.
type Mutation struct {
	Seq     uint64
	Stamp   uint64
	Origin  uint64
	Node    topology.NodeID
	Until   int64
	Victim  topology.NodeID // blocking victim (topology.None when unknown)
	Unblock bool
}

// SetOrigin names this list's instance for LWW tie-breaking; the
// cluster layer sets it once at startup, before any traffic. Zero (the
// default) is fine for single-instance daemons, which never receive
// remote mutations.
func (b *Blocklist) SetOrigin(origin uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.origin = origin
}

// Seq returns the list's current version — the newest row's Seq, which
// gossip advertises as how far a peer may have this list's rows.
func (b *Blocklist) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ver
}

// Changes appends to dst every row with Seq > after, in ascending Seq —
// the anti-entropy delta for a peer that holds this list's rows through
// version `after`.
func (b *Blocklist) Changes(after uint64, dst []Mutation) []Mutation {
	b.mu.Lock()
	defer b.mu.Unlock()
	if after >= b.ver {
		return dst
	}
	start := len(dst)
	for _, r := range b.rows {
		if r.Seq > after {
			dst = append(dst, r)
		}
	}
	out := dst[start:]
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return dst
}

// store files r as its node's row under a fresh local version. Caller
// holds b.mu.
func (b *Blocklist) store(r Mutation) {
	if b.rows == nil {
		b.rows = make(map[topology.NodeID]Mutation)
	}
	b.ver++
	r.Seq = b.ver
	b.rows[r.Node] = r
}

// record stores one state-changing local mutation. Caller holds b.mu.
func (b *Blocklist) record(n topology.NodeID, until int64, victim topology.NodeID, unblock bool) {
	b.stamp++
	b.store(Mutation{Stamp: b.stamp, Origin: b.origin, Node: n, Until: until, Victim: victim, Unblock: unblock})
}

// ApplyRemote applies one gossiped write minted by origin. Unlike the
// local mutators it is unconditional modulo LWW: whatever (stamp,
// origin) pair most recently wrote the node wins, regardless of arrival
// order. A winning write becomes the node's row under a fresh local
// version, which is what relays it onward; an echo or a losing write
// changes nothing. It reports whether the write took effect.
func (b *Blocklist) ApplyRemote(m Mutation, origin uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m.Stamp > b.stamp {
		b.stamp = m.Stamp // Lamport merge: local mutations stay ahead
	}
	if r, ok := b.rows[m.Node]; ok && (r.Stamp > m.Stamp || (r.Stamp == m.Stamp && r.Origin >= origin)) {
		return false
	}
	m.Origin = origin
	b.store(m)
	_, present := b.blocked[m.Node]
	if m.Unblock {
		if present {
			delete(b.blocked, m.Node)
			b.size.Add(-1)
			b.setIndex(m.Node)
		}
		return true
	}
	b.blocked[m.Node] = blockVal{until: m.Until, victim: m.Victim}
	if !present {
		b.size.Add(1)
	}
	b.setIndex(m.Node)
	return true
}
