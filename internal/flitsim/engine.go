package flitsim

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topology"
)

// ejectPort is the sentinel output for delivery to the local NIC.
const ejectPort = -1

// Step advances the fabric one cycle through the canonical router
// pipeline: route computation + VC allocation for head flits, switch
// allocation + traversal (one flit per physical output per cycle),
// credit return, then injection.
func (f *Fabric) Step() {
	f.routeAndAllocate()
	moves, creditReturns := f.switchTraversal()
	f.applyMoves(moves)
	f.applyCredits(creditReturns)
	f.injectFromQueues()
	f.cycle++
}

// Run executes n cycles.
func (f *Fabric) Run(n int) {
	for i := 0; i < n; i++ {
		f.Step()
	}
}

// RunUntilDrained steps until no packets are in flight, up to maxCycles
// (returns false if the bound was hit — a deadlock or a livelock).
func (f *Fabric) RunUntilDrained(maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		if f.inFlight == 0 {
			return true
		}
		f.Step()
	}
	return f.inFlight == 0
}

// routeAndAllocate assigns an output port + VC to every input VC whose
// buffer head is an unrouted head flit.
func (f *Fabric) routeAndAllocate() {
	for _, rt := range f.routers {
		for _, vcs := range rt.in {
			for _, vc := range vcs {
				if len(vc.buf) == 0 {
					continue
				}
				head := vc.buf[0]
				if vc.routed {
					// Livelock/deadlock safety valve: a head flit stuck
					// on a credit-starved adaptive allocation releases
					// it after a grace period so the next attempt can
					// take the dimension-order escape channel (the
					// re-allocation step of Duato's protocol).
					if (head.typ == HeadFlit || head.typ == HeadTailFlit) &&
						vc.outPort != ejectPort &&
						rt.credits[vc.outPort][vc.outVC] == 0 {
						vc.stalled++
						if vc.stalled > 8 {
							rt.outOwner[vc.outPort][vc.outVC] = noOwner
							vc.routed = false
							vc.stalled = 0
							f.allocate(rt, vc, head, true)
						}
					}
					continue
				}
				if head.typ != HeadFlit && head.typ != HeadTailFlit {
					// Orphaned body flit at head without allocation is a
					// protocol bug.
					panic(fmt.Sprintf("flitsim: body flit at unrouted buffer head in router %d", rt.id))
				}
				f.allocate(rt, vc, head, false)
			}
		}
	}
}

// allocate implements Duato's protocol: try an adaptive minimal output
// VC first, then the dimension-order escape VC. preferEscape skips the
// adaptive tier (used after a stalled allocation was released).
func (f *Fabric) allocate(rt *router, vc *vcState, head flit, preferEscape bool) {
	pk := head.pk
	if rt.id == pk.DstNode {
		vc.routed = true
		vc.stalled = 0
		vc.outPort = ejectPort
		vc.outVC = 0
		return
	}
	bestPort, bestVC := -1, -1
	bestCredit := 0 // require at least one credit to allocate
	if !preferEscape {
		// Adaptive tier: every minimal productive neighbor, adaptive VCs.
		f.dimBuf = topology.AppendMinimalDims(f.cfg.Net, rt.id, pk.DstNode, f.dimBuf[:0], f.cc, f.dc)
		for _, mv := range f.dimBuf {
			next := f.cfg.Net.Step(rt.id, mv.Dim, mv.Dir)
			if next == topology.None {
				continue
			}
			port := rt.portTo(next)
			for ovc := f.escVCs; ovc < f.vcs; ovc++ {
				if rt.outOwner[port][ovc] != noOwner {
					continue
				}
				if c := rt.credits[port][ovc]; c > bestCredit {
					bestCredit = c
					bestPort, bestVC = port, ovc
				}
			}
		}
	}
	if bestPort < 0 {
		// Escape tier: dimension-order on the escape VC(s).
		hop, err := f.esc.NextHop(rt.id, pk.DstNode, 0)
		if err != nil {
			return // stranded (only possible with failed links)
		}
		port := rt.portTo(hop.Next)
		evc := f.escapeVC(rt.id, pk.DstNode)
		if rt.outOwner[port][evc] != noOwner || rt.credits[port][evc] == 0 {
			return // blocked this cycle; retry next cycle
		}
		bestPort, bestVC = port, evc
	}
	vc.routed = true
	vc.stalled = 0
	vc.outPort = bestPort
	vc.outVC = bestVC
	rt.outOwner[bestPort][bestVC] = head.id
	// Marking happens when the head flit actually traverses the switch
	// (switchTraversal), not here: a credit-starved allocation may be
	// released and re-routed, and the mark must reflect the hop the
	// packet really takes.
}

// escapeVC picks the escape virtual channel. Mesh/hypercube escape is a
// single VC 0. On a torus the Dally–Seitz dateline rule applies to the
// dimension the DOR hop resolves: a packet that still has the
// wraparound link of that dimension ahead of it rides VC 1 and drops to
// VC 0 once past the dateline, making each ring's channel dependency
// graph acyclic.
func (f *Fabric) escapeVC(cur, dst topology.NodeID) int {
	if f.escVCs == 1 {
		return 0
	}
	cc := topology.FillCoord(f.cfg.Net, cur, f.cc)
	dc := topology.FillCoord(f.cfg.Net, dst, f.dc)
	dims := f.cfg.Net.Dims()
	for i := range cc {
		if cc[i] == dc[i] {
			continue
		}
		// DOR resolves the first differing dimension, taking the
		// shorter way around (ties go +1, matching MinimalDims).
		k := dims[i]
		fwd := ((dc[i]-cc[i])%k + k) % k
		plus := fwd <= k-fwd
		if plus {
			if cc[i] > dc[i] {
				return 1 // the k−1 → 0 wrap is still ahead
			}
			return 0
		}
		if cc[i] < dc[i] {
			return 1 // the 0 → k−1 wrap is still ahead
		}
		return 0
	}
	return 0
}

// portTo returns the output port index for a neighbor.
func (rt *router) portTo(n topology.NodeID) int {
	for i, nb := range rt.neighbors {
		if nb == n {
			return i
		}
	}
	panic(fmt.Sprintf("flitsim: %d is not a neighbor of %d", n, rt.id))
}

// move is a flit in transit to a downstream buffer.
type move struct {
	toRouter topology.NodeID
	toPort   int
	toVC     int
	fl       flit
}

// creditReturn frees one buffer slot at the upstream sender.
type creditReturn struct {
	router topology.NodeID
	port   int
	vc     int
}

// switchTraversal performs switch allocation — at most one flit per
// physical output port (and one ejection) per router per cycle — and
// collects the resulting flit moves and credit returns.
func (f *Fabric) switchTraversal() ([]move, []creditReturn) {
	moves := f.moveBuf[:0]
	credits := f.creditBuf[:0]
	for _, rt := range f.routers {
		// One winner per physical output port.
		for port := range rt.neighbors {
			winner := f.pickWinner(rt, port)
			if winner == nil {
				continue
			}
			fl := winner.buf[0]
			winner.buf = winner.buf[1:]
			rt.credits[port][winner.outVC]--
			f.flitHops++
			if fl.typ == HeadFlit || fl.typ == HeadTailFlit {
				// The hop is now physically committed: Figure 4's
				// marking point. TTL decrements with the hop, as DPM's
				// position index requires.
				f.cfg.Scheme.OnForward(rt.id, rt.neighbors[port], fl.pk)
				if fl.pk.Hdr.TTL > 0 {
					fl.pk.Hdr.TTL--
				}
			}
			moves = append(moves, move{
				toRouter: rt.neighbors[port],
				// The receiving input port is the downstream router's
				// port facing us.
				toPort: f.reversePort(rt.neighbors[port], rt.id),
				toVC:   winner.outVC,
				fl:     fl,
			})
			if cr, ok := f.creditFor(rt, winner); ok {
				credits = append(credits, cr)
			}
			if fl.typ == TailFlit || fl.typ == HeadTailFlit {
				rt.outOwner[port][winner.outVC] = noOwner
				winner.routed = false
			}
		}
		// One ejection per cycle.
		if winner := f.pickEjector(rt); winner != nil {
			fl := winner.buf[0]
			winner.buf = winner.buf[1:]
			if cr, ok := f.creditFor(rt, winner); ok {
				credits = append(credits, cr)
			}
			if fl.typ == TailFlit || fl.typ == HeadTailFlit {
				winner.routed = false
				f.deliver(fl.pk)
			}
		}
	}
	f.moveBuf, f.creditBuf = moves, credits
	return moves, credits
}

// pickWinner selects the input VC to serve an output port this cycle:
// among routed VCs targeting the port with flits and downstream credit,
// rotate by cycle for fairness.
func (f *Fabric) pickWinner(rt *router, port int) *vcState {
	cands := f.candBuf[:0]
	for _, vcs := range rt.in {
		for _, vc := range vcs {
			if vc.routed && vc.outPort == port && len(vc.buf) > 0 && rt.credits[port][vc.outVC] > 0 {
				// A body/tail flit may only move if it is not a head of
				// a *different* packet (contiguity is guaranteed by
				// per-VC FIFO order and ownership).
				cands = append(cands, vc)
			}
		}
	}
	f.candBuf = cands
	if len(cands) == 0 {
		return nil
	}
	return cands[int(f.cycle)%len(cands)]
}

// pickEjector selects one VC delivering to the local NIC.
func (f *Fabric) pickEjector(rt *router) *vcState {
	cands := f.candBuf[:0]
	for _, vcs := range rt.in {
		for _, vc := range vcs {
			if vc.routed && vc.outPort == ejectPort && len(vc.buf) > 0 {
				cands = append(cands, vc)
			}
		}
	}
	f.candBuf = cands
	if len(cands) == 0 {
		return nil
	}
	return cands[int(f.cycle)%len(cands)]
}

// creditFor computes the upstream credit return for a flit departing
// one of rt's input buffers. Flits departing the injection port return
// no credit (the source queue is unbounded).
func (f *Fabric) creditFor(rt *router, vc *vcState) (creditReturn, bool) {
	for p, vcs := range rt.in {
		for v, cand := range vcs {
			if cand == vc {
				if p == len(rt.neighbors) {
					return creditReturn{}, false // injection port
				}
				up := rt.neighbors[p]
				return creditReturn{
					router: up,
					port:   f.reversePort(up, rt.id),
					vc:     v,
				}, true
			}
		}
	}
	panic("flitsim: vc not found in its router")
}

// reversePort returns from's output-port index toward to.
func (f *Fabric) reversePort(from, to topology.NodeID) int {
	return f.routers[from].portTo(to)
}

func (f *Fabric) applyMoves(moves []move) {
	for _, mv := range moves {
		rt := f.routers[mv.toRouter]
		vc := rt.in[mv.toPort][mv.toVC]
		if len(vc.buf) >= bufDepth {
			panic(fmt.Sprintf("flitsim: credit protocol violated at router %d port %d vc %d",
				mv.toRouter, mv.toPort, mv.toVC))
		}
		vc.buf = append(vc.buf, mv.fl)
	}
}

func (f *Fabric) applyCredits(credits []creditReturn) {
	for _, cr := range credits {
		rt := f.routers[cr.router]
		rt.credits[cr.port][cr.vc]++
		if rt.credits[cr.port][cr.vc] > bufDepth {
			panic(fmt.Sprintf("flitsim: credit overflow at router %d port %d vc %d",
				cr.router, cr.port, cr.vc))
		}
	}
}

// injectFromQueues moves flits from per-node source queues into the
// injection port's VC-0 buffer, one flit per node per cycle.
func (f *Fabric) injectFromQueues() {
	for node, q := range f.injectQ {
		if len(q) == 0 {
			continue
		}
		rt := f.routers[node]
		vc := rt.in[len(rt.neighbors)][0]
		if len(vc.buf) >= bufDepth {
			continue
		}
		vc.buf = append(vc.buf, q[0])
		f.injectQ[node] = q[1:]
	}
}

func (f *Fabric) deliver(pk *packet.Packet) {
	pk.DeliveredAt = f.cycle
	f.deliveredPkts++
	f.inFlight--
	f.latencySum += uint64(f.cycle - pk.InjectedAt)
	if f.onDeliver != nil {
		f.onDeliver(f.cycle, pk)
	}
}
