// Package cluster scales ddpmd past one instance: a consistent-hash
// ring assigns every victim node an owning instance, a forwarding tier
// re-exports records that arrive at the wrong instance to their owner
// over the acked wire protocol, and anti-entropy gossip replicates the
// blocklist so any instance serves fleet-wide admin queries.
//
// The design keeps the paper's single-writer identification invariant:
// exactly one instance processes a victim's records at a time, so the
// per-victim DDPM tallies, detectors and auto-block thresholds behave
// exactly as they do single-instance — the cluster tier only decides
// *which* instance that is, and hands the accumulated state to the
// ring successor when the owner dies.
package cluster

import (
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/topology"
)

// MemberID names an instance by its advertised ingest address. All
// instances must use byte-identical address strings for each other —
// the id doubles as the ring hash seed and the forwarding origin, so
// "127.0.0.1:9000" and "localhost:9000" would be two different members.
func MemberID(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	id := h.Sum64()
	if id == 0 {
		id = 1 // 0 is the nil member sentinel
	}
	return id
}

// splitmix64 is the ring's point hash: cheap, stateless, and with full
// avalanche so dense victim NodeIDs spread uniformly around the ring.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint64
	member uint64
}

// Ring is an immutable consistent-hash ring over the alive members.
// Lookups walk clockwise from the victim's hash to the first point;
// that point's member owns the victim. Immutability is what lets the
// ingest hot path read the ring through an atomic pointer with no lock.
type Ring struct {
	version uint64
	points  []ringPoint // sorted by hash
	members []uint64    // sorted, distinct
}

// NewRing builds a ring over the given member ids with vnodes virtual
// nodes each. Duplicate ids collapse; the member list is sorted so the
// ring is a pure function of the member *set* — every instance that
// agrees on who is alive agrees on every ownership decision, which is
// the property the whole forwarding tier rests on.
func NewRing(version uint64, members []uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	set := make(map[uint64]struct{}, len(members))
	for _, m := range members {
		if m != 0 {
			set[m] = struct{}{}
		}
	}
	r := &Ring{version: version, members: make([]uint64, 0, len(set))}
	for m := range set {
		r.members = append(r.members, m)
	}
	sort.Slice(r.members, func(i, j int) bool { return r.members[i] < r.members[j] })
	r.points = make([]ringPoint, 0, len(r.members)*vnodes)
	for _, m := range r.members {
		h := m
		for i := 0; i < vnodes; i++ {
			// Chain splitmix64 so each vnode point is an independent
			// draw seeded by the member id.
			h = splitmix64(h)
			r.points = append(r.points, ringPoint{hash: h, member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Version is the local monotonic ring generation (bumped per
// membership change on this instance; not globally agreed).
func (r *Ring) Version() uint64 { return r.version }

// Members returns the alive member set, sorted ascending.
func (r *Ring) Members() []uint64 { return r.members }

// Size reports the alive member count.
func (r *Ring) Size() int { return len(r.members) }

// Has reports whether member m is on the ring (alive).
func (r *Ring) Has(m uint64) bool {
	_, ok := slices.BinarySearch(r.members, m)
	return ok
}

// find returns the index of the first point at or clockwise of h.
func (r *Ring) find(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return i
}

// Owner returns the member owning a victim (0 on an empty ring).
func (r *Ring) Owner(victim topology.NodeID) uint64 {
	if len(r.points) == 0 {
		return 0
	}
	return r.points[r.find(splitmix64(uint64(victim)))].member
}

// Successor returns the first distinct member clockwise after the
// victim's owner — the replica target. The consistent-hashing property
// that makes handoff exact: when the owner leaves the ring, lookups
// that landed on its points continue clockwise to exactly this member,
// so the instance holding the replica is the instance that takes over.
// On a single-member ring the successor is the owner itself.
func (r *Ring) Successor(victim topology.NodeID) uint64 {
	if len(r.points) == 0 {
		return 0
	}
	if len(r.members) == 1 {
		return r.members[0]
	}
	i := r.find(splitmix64(uint64(victim)))
	owner := r.points[i].member
	for k := 1; k < len(r.points); k++ {
		p := r.points[(i+k)%len(r.points)]
		if p.member != owner {
			return p.member
		}
	}
	return owner
}
