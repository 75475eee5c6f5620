// Package routing implements the routing algorithms of the paper's §3
// and Figure 2 for direct networks: deterministic dimension-order
// routing (XY in 2-D meshes, e-cube in hypercubes), the turn-model
// partially adaptive algorithms (west-first, north-last,
// negative-first), and fully adaptive routing — minimal, and
// non-minimal with a misroute budget for livelock avoidance (the paper
// notes adaptive routers need "livelock avoidance (or, recovery)
// schemes").
//
// An Algorithm is a memoryless routing function: given the current and
// destination nodes it returns the permissible next hops, split into
// productive (minimal) and non-productive (legal misroutes) tiers. A
// Router combines an algorithm with a link-state view (failures,
// congestion), a selection policy among candidates, and the misroute
// budget.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Adaptivity classifies an algorithm per the paper's taxonomy.
type Adaptivity int

const (
	Deterministic Adaptivity = iota
	PartiallyAdaptive
	FullyAdaptive
)

func (a Adaptivity) String() string {
	switch a {
	case Deterministic:
		return "deterministic"
	case PartiallyAdaptive:
		return "partially-adaptive"
	case FullyAdaptive:
		return "fully-adaptive"
	default:
		return fmt.Sprintf("adaptivity(%d)", int(a))
	}
}

// Algorithm is a memoryless routing function over a fixed network.
// Implementations must be deterministic: all nondeterminism lives in
// the Router's selection policy.
type Algorithm interface {
	Name() string
	Adaptivity() Adaptivity

	// Candidates returns permissible next hops from cur toward dst.
	// productive hops reduce the remaining distance; nonproductive hops
	// are legal under the algorithm's turn rules but do not (used only
	// for fault tolerance / congestion escape, charged against the
	// router's misroute budget). cur must differ from dst.
	Candidates(cur, dst topology.NodeID) (productive, nonproductive []topology.NodeID)
}

// CandidateAppender is the allocation-free fast path of Algorithm:
// implementations append candidates into the caller-provided buffers
// (reused across hops by the Router) instead of allocating fresh
// slices. Algorithms that keep per-call scratch for this are not safe
// for concurrent use — consistent with the simulator's one-Router-per-
// goroutine design.
type CandidateAppender interface {
	// AppendCandidates appends the permissible next hops to prod and
	// nonprod (passed with length 0) and returns the extended slices,
	// with the same semantics as Candidates.
	AppendCandidates(cur, dst topology.NodeID, prod, nonprod []topology.NodeID) (productive, nonproductive []topology.NodeID)
}

// LinkState is the router's dynamic view of the fabric: failed links
// and a congestion oracle (wired to output-queue depths by the network
// simulator).
type LinkState struct {
	failed map[topology.Link]bool

	// Congestion returns a load figure for the link (higher = more
	// congested). Nil means uncongested everywhere.
	Congestion func(topology.Link) int
}

// NewLinkState returns a state with no failures and no congestion.
func NewLinkState() *LinkState {
	return &LinkState{failed: make(map[topology.Link]bool)}
}

// Fail marks the directed link from→to as failed.
func (s *LinkState) Fail(from, to topology.NodeID) {
	s.failed[topology.Link{From: from, To: to}] = true
}

// FailBoth marks both directions of the cable between a and b failed.
func (s *LinkState) FailBoth(a, b topology.NodeID) {
	s.Fail(a, b)
	s.Fail(b, a)
}

// Failed reports whether the directed link is down.
func (s *LinkState) Failed(from, to topology.NodeID) bool {
	return s.failed[topology.Link{From: from, To: to}]
}

// NumFailed returns the count of failed directed links.
func (s *LinkState) NumFailed() int { return len(s.failed) }

// load returns the congestion figure for a link.
func (s *LinkState) load(from, to topology.NodeID) int {
	if s.Congestion == nil {
		return 0
	}
	return s.Congestion(topology.Link{From: from, To: to})
}
