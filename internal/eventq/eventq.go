// Package eventq implements the discrete-event simulation kernel: a
// monotone virtual clock and a priority queue of timestamped events
// with deterministic FIFO tie-breaking. All network, attack and
// detection activity in the simulator is driven by this queue.
//
// Events are small payload records (a kind tag, one integer word, one
// pointer word) posted with PostAt and dispatched through a single
// Handler, so steady-state scheduling does not allocate — items
// live in a freelist-backed slab ordered by an index-based 4-ary heap.
package eventq

import (
	"fmt"
)

// Time is simulation time in abstract ticks. The network simulator
// interprets one tick as one link-traversal cycle.
type Time int64

// Handler consumes events. kind is the caller-defined event tag passed
// to PostAt (always ≥ 0); a and p are the payload words given at
// post time. A single handler serves the whole queue: the simulator
// owning the queue dispatches on kind.
type Handler interface {
	HandleEvent(now Time, kind int32, a int64, p any)
}

// item is one scheduled event, stored in the queue's slab and reused
// through the freelist after it fires.
type item struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	a    int64
	p    any
	kind int32
}

// heapEntry is one node of the 4-ary min-heap. The (at, seq) ordering
// key is embedded so comparisons never chase into the slab — sift-down
// on a hot queue is comparison-bound, and the indirection would cost a
// dependent cache miss per compare.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// Queue is a discrete-event scheduler. It is not safe for concurrent
// use; the simulation is single-threaded by design (parallel runs are
// achieved by running independent Queue instances per goroutine).
type Queue struct {
	now     Time
	seq     uint64
	fired   uint64
	handler Handler

	slab []item      // all items, live and free
	heap []heapEntry // 4-ary min-heap on (at, seq)
	free []int32     // released slab indices, reused LIFO
}

// New returns an empty queue at time 0.
func New() *Queue { return &Queue{} }

// SetHandler installs the event consumer. It must be set before
// the first event fires.
func (q *Queue) SetHandler(h Handler) { q.handler = h }

// Now returns the current simulation time.
func (q *Queue) Now() Time { return q.now }

// alloc takes an item from the freelist (or grows the slab), assigns
// its (at, seq) key and pushes it onto the heap.
func (q *Queue) alloc(at Time) int32 {
	if at < q.now {
		panic(fmt.Sprintf("eventq: scheduling at %d before now %d", at, q.now))
	}
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slab = append(q.slab, item{})
		idx = int32(len(q.slab) - 1)
	}
	it := &q.slab[idx]
	it.at = at
	it.seq = q.seq
	q.seq++
	q.push(heapEntry{at: at, seq: it.seq, idx: idx})
	return idx
}

// release returns a popped item to the freelist, clearing its payload so
// the slab does not pin packets.
func (q *Queue) release(idx int32) {
	q.slab[idx].p = nil
	q.free = append(q.free, idx)
}

// PostAt schedules an event at absolute time at. kind must be
// non-negative; a and p travel to the Handler verbatim. Steady-state
// posting is allocation-free (p holds pointer-shaped payloads without
// boxing). Scheduling in the past panics: it indicates a simulator bug,
// and silently clamping would mask causality violations.
func (q *Queue) PostAt(at Time, kind int32, a int64, p any) {
	if kind < 0 {
		panic(fmt.Sprintf("eventq: negative event kind %d", kind))
	}
	idx := q.alloc(at)
	it := &q.slab[idx]
	it.kind = kind
	it.a = a
	it.p = p
}

// Step pops and runs the earliest event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (q *Queue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	idx := q.pop()
	it := &q.slab[idx]
	q.now = it.at
	q.fired++
	// Copy the payload and recycle the slot before dispatch, so the
	// handler can schedule new events that reuse it immediately.
	kind, a, p := it.kind, it.a, it.p
	q.release(idx)
	q.handler.HandleEvent(q.now, kind, a, p)
	return true
}

// Run executes events until the queue drains or the clock passes
// horizon (exclusive). Events at exactly horizon do not run, so
// successive Run(h1), Run(h2) windows partition time cleanly. It
// returns the number of events executed.
func (q *Queue) Run(horizon Time) uint64 {
	start := q.fired
	for len(q.heap) > 0 && q.heap[0].at < horizon {
		q.Step()
	}
	if q.now < horizon {
		q.now = horizon
	}
	return q.fired - start
}

// Drain runs every remaining event. maxEvents guards against runaway
// self-rescheduling loops; Drain panics if the bound is hit.
func (q *Queue) Drain(maxEvents uint64) uint64 {
	start := q.fired
	for q.Step() {
		if q.fired-start > maxEvents {
			panic(fmt.Sprintf("eventq: Drain exceeded %d events — runaway schedule?", maxEvents))
		}
	}
	return q.fired - start
}

// --- 4-ary index heap over (at, seq) ---------------------------------
//
// A 4-ary layout halves the tree depth of the binary heap and keeps
// children in one cache line of the index slice; benchmarks on the
// netsim workloads show it clearly ahead of both container/heap (which
// also pays interface-method dispatch) and a binary index heap.

func less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends e and sifts it up.
func (q *Queue) push(e heapEntry) {
	q.heap = append(q.heap, e)
	pos := len(q.heap) - 1
	for pos > 0 {
		parent := (pos - 1) >> 2
		if !less(e, q.heap[parent]) {
			break
		}
		q.heap[pos] = q.heap[parent]
		pos = parent
	}
	q.heap[pos] = e
}

// pop removes and returns the root's slab index.
func (q *Queue) pop() int32 {
	root := q.heap[0].idx
	n := len(q.heap) - 1
	e := q.heap[n]
	q.heap = q.heap[:n]
	if n == 0 {
		return root
	}
	h := q.heap // one bounds-checked view for the whole sift-down
	// Sift the former last element down from the root.
	pos := 0
	for {
		first := pos<<2 + 1
		if first >= n {
			break
		}
		best := first
		bestE := h[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(h[c], bestE) {
				best, bestE = c, h[c]
			}
		}
		if !less(bestE, e) {
			break
		}
		h[pos] = bestE
		pos = best
	}
	h[pos] = e
	return root
}
