// Package netsim is the cluster-interconnect simulator the experiments
// run on: a discrete-event, packet-level model of a direct network
// whose switches are separate from the compute nodes (the paper's §4.1
// assumption), forward packets under a pluggable routing algorithm, and
// execute a pluggable marking scheme at every hop in the Figure 4
// order (route first, then mark, then transmit).
//
// The model per switch: one output queue per outgoing link with unit
// service rate (one packet per tick) and a configurable link latency.
// Adaptive routers see queue depths through the routing.LinkState
// congestion oracle, so congestion actually spreads traffic — the
// behavior that breaks path-based marking schemes.
//
// The hot path is allocation-free in steady state: events are typed
// payloads on eventq's freelist-backed heap (no closures), per-link
// state lives in dense slices indexed by the topology's port table (no
// map lookups per hop), and output queues are fixed-capacity rings
// carved from one slab; the one allocation per packet is the caller's
// packet.NewPacket. Event ordering — the (time, seq) tie-break
// sequence — is bit-identical to the original closure engine, so seeded
// experiment outputs are unchanged.
package netsim

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
)

// DropReason classifies why the fabric discarded a packet.
type DropReason int

const (
	DropNone      DropReason = iota
	DropNoRoute              // routing stranded the packet (failures/turn rules)
	DropTTL                  // TTL expired (misrouting livelock guard)
	DropQueueFull            // output queue overflow — the congestion loss mode
)

func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropNoRoute:
		return "no-route"
	case DropTTL:
		return "ttl-expired"
	case DropQueueFull:
		return "queue-full"
	default:
		return fmt.Sprintf("drop(%d)", int(d))
	}
}

// Config assembles a simulation.
type Config struct {
	Net    topology.Network
	Router *routing.Router
	Scheme marking.Scheme
	Plan   *packet.AddrPlan

	// LinkLatency is the propagation delay of one hop in ticks (≥ 1).
	LinkLatency eventq.Time

	// QueueCap is the per-output-link queue capacity in packets (≥ 1).
	QueueCap int
}

func (c *Config) applyDefaults() error {
	if c.Net == nil || c.Router == nil || c.Plan == nil {
		return fmt.Errorf("netsim: Net, Router and Plan are required")
	}
	if c.Scheme == nil {
		c.Scheme = marking.Nop{}
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.Plan.NumNodes() != c.Net.NumNodes() {
		return fmt.Errorf("netsim: plan has %d nodes, network has %d", c.Plan.NumNodes(), c.Net.NumNodes())
	}
	return nil
}

// DeliverFunc receives every packet ejected to its destination NIC.
type DeliverFunc func(now eventq.Time, pk *packet.Packet)

// Stats aggregates fabric-level counters.
type Stats struct {
	Injected  uint64
	Delivered uint64
	Dropped   map[DropReason]uint64
	TotalHops uint64
	// LatencySum accumulates delivery latency in ticks for averaging.
	LatencySum uint64
	// Misroutes counts non-productive hops taken.
	Misroutes uint64
}

// AvgLatency returns mean delivery latency in ticks.
func (s Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Delivered)
}

// AvgHops returns mean hop count of delivered packets.
func (s Stats) AvgHops() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Delivered)
}

// DroppedTotal sums drops across reasons.
func (s Stats) DroppedTotal() uint64 {
	var t uint64
	for _, v := range s.Dropped {
		t += v
	}
	return t
}

// Typed event kinds dispatched through HandleEvent.
const (
	evInject       int32 = iota // p = *packet.Packet entering at its SrcNode
	evTransmitDone              // a = dense link index whose head finished serializing
	evArrive                    // p = *packet.Packet, a = switch it arrives at
)

// outLink is one output port's queue + serializer state. The queue is a
// fixed-capacity ring carved out of the Network's shared slab.
type outLink struct {
	head  int32 // ring offset of the in-service packet
	count int32 // packets queued, including the one in service
	busy  bool
}

// Network is the running simulator.
type Network struct {
	cfg Config
	Q   *eventq.Queue

	// ports flattens the adjacency; a directed link's dense index is
	// its position in the flattened neighbor table.
	ports *topology.PortTable

	// out and qslab are indexed by dense link index; each link's ring
	// occupies qslab[li*QueueCap : (li+1)*QueueCap].
	out   []outLink
	qslab []*packet.Packet

	stats Stats

	onDeliver DeliverFunc

	nextSeq uint64
}

// New builds a simulator; the router's congestion oracle is wired to
// the dense output-queue depth array.
func New(cfg Config) (*Network, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	ports := topology.NewPortTable(cfg.Net)
	nl := ports.NumLinks()
	n := &Network{
		cfg:   cfg,
		Q:     eventq.New(),
		ports: ports,
		out:   make([]outLink, nl),
		qslab: make([]*packet.Packet, nl*cfg.QueueCap),
	}
	n.Q.SetHandler(n)
	n.stats.Dropped = make(map[DropReason]uint64)
	cfg.Router.State.Congestion = func(l topology.Link) int {
		if li := n.ports.LinkIndex(l.From, l.To); li >= 0 {
			return int(n.out[li].count)
		}
		return 0
	}
	return n, nil
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	s := n.stats
	s.Dropped = make(map[DropReason]uint64, len(n.stats.Dropped))
	for k, v := range n.stats.Dropped {
		s.Dropped[k] = v
	}
	return s
}

// OnDeliver registers the delivery sink (victim NICs, traceback
// observers). Only one sink is supported; use a fan-out closure for
// multiple observers.
func (n *Network) OnDeliver(fn DeliverFunc) { n.onDeliver = fn }

// Now returns the current simulation time.
func (n *Network) Now() eventq.Time { return n.Q.Now() }

// Inject introduces a packet into the fabric at its source node's
// switch at the current simulation time. The scheme's OnInject hook
// runs here — the "first enters a switch from a computing node" moment.
func (n *Network) Inject(pk *packet.Packet) {
	n.InjectAt(n.Q.Now(), pk)
}

// InjectAt schedules the injection at a future time.
func (n *Network) InjectAt(at eventq.Time, pk *packet.Packet) {
	if pk.SrcNode < 0 || int(pk.SrcNode) >= n.cfg.Net.NumNodes() {
		panic(fmt.Sprintf("netsim: inject at invalid node %d", pk.SrcNode))
	}
	pk.Seq = n.nextSeq
	n.nextSeq++
	pk.MisroutesUsed = 0
	n.stats.Injected++
	n.Q.PostAt(at, evInject, 0, pk)
}

// HandleEvent dispatches the fabric's typed events; it implements
// eventq.Handler and is invoked by the queue, not by users.
func (n *Network) HandleEvent(now eventq.Time, kind int32, a int64, p any) {
	switch kind {
	case evInject:
		pk := p.(*packet.Packet)
		pk.InjectedAt = int64(now)
		n.cfg.Scheme.OnInject(pk)
		n.arriveAtSwitch(now, pk, pk.SrcNode)
	case evTransmitDone:
		n.transmitDone(now, int32(a))
	case evArrive:
		n.arriveAtSwitch(now, p.(*packet.Packet), topology.NodeID(a))
	default:
		panic(fmt.Sprintf("netsim: unknown event kind %d", kind))
	}
}

// arriveAtSwitch processes a packet at switch cur: eject, or route +
// mark + enqueue.
func (n *Network) arriveAtSwitch(now eventq.Time, pk *packet.Packet, cur topology.NodeID) {
	if cur == pk.DstNode {
		n.deliver(now, pk)
		return
	}
	if pk.Hdr.TTL == 0 {
		n.stats.Dropped[DropTTL]++
		return
	}
	hop, err := n.cfg.Router.NextHop(cur, pk.DstNode, pk.MisroutesUsed)
	if err != nil {
		n.stats.Dropped[DropNoRoute]++
		return
	}
	if hop.Misroute {
		pk.MisroutesUsed++
		n.stats.Misroutes++
	}
	// Figure 4 order: the routing decision is committed, now mark.
	n.cfg.Scheme.OnForward(cur, hop.Next, pk)
	pk.Hdr.TTL--
	li := n.ports.LinkIndex(cur, hop.Next)
	if li < 0 {
		panic(fmt.Sprintf("netsim: no link %d->%d", cur, hop.Next))
	}
	n.enqueue(now, pk, li)
}

func (n *Network) enqueue(now eventq.Time, pk *packet.Packet, li int32) {
	ol := &n.out[li]
	cap32 := int32(n.cfg.QueueCap)
	if ol.count >= cap32 {
		n.stats.Dropped[DropQueueFull]++
		return
	}
	ring := n.qslab[int(li)*n.cfg.QueueCap:]
	pos := ol.head + ol.count
	if pos >= cap32 {
		pos -= cap32
	}
	ring[pos] = pk
	ol.count++
	if !ol.busy {
		n.startTransmit(now, li)
	}
}

// startTransmit begins serializing the head packet: one tick of
// service, then LinkLatency of flight.
func (n *Network) startTransmit(now eventq.Time, li int32) {
	n.out[li].busy = true
	n.Q.PostAt(now+1, evTransmitDone, int64(li), nil)
}

// transmitDone pops the serialized head packet onto the wire and, if
// more packets wait, restarts the serializer. The arrival is scheduled
// before the next transmit-done, preserving the original engine's
// (time, seq) event order exactly.
func (n *Network) transmitDone(now eventq.Time, li int32) {
	ol := &n.out[li]
	cap32 := int32(n.cfg.QueueCap)
	ring := n.qslab[int(li)*n.cfg.QueueCap:]
	pk := ring[ol.head]
	ring[ol.head] = nil
	ol.head++
	if ol.head == cap32 {
		ol.head = 0
	}
	ol.count--
	pk.Hops++
	n.Q.PostAt(now+n.cfg.LinkLatency, evArrive, int64(n.ports.To(li)), pk)
	if ol.count > 0 {
		n.startTransmit(now, li)
	} else {
		ol.busy = false
	}
}

func (n *Network) deliver(now eventq.Time, pk *packet.Packet) {
	// §6.2 authentication point: the destination switch's ejection hook
	// (e.g. marking.Seal) runs before the NIC sees the packet.
	if ej, ok := n.cfg.Scheme.(marking.Ejector); ok {
		ej.OnEject(pk)
	}
	pk.DeliveredAt = int64(now)
	n.stats.Delivered++
	n.stats.TotalHops += uint64(pk.Hops)
	n.stats.LatencySum += uint64(int64(now) - pk.InjectedAt)
	if n.onDeliver != nil {
		n.onDeliver(now, pk)
	}
}

// Run executes events until the horizon (exclusive); RunAll drains the
// queue with a runaway bound.
func (n *Network) Run(horizon eventq.Time) { n.Q.Run(horizon) }

func (n *Network) RunAll(maxEvents uint64) { n.Q.Drain(maxEvents) }
