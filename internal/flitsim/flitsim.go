// Package flitsim is a cycle-driven, flit-level wormhole simulator for
// the paper's §6.2 performance-vs-security question. Where netsim
// models packets atomically, flitsim models the switch microarchitecture
// real cluster interconnects use: packets split into flits, per-input
// virtual-channel buffers, credit-based flow control, and wormhole
// switching — so marking cost and congestion behavior can be measured
// at the fidelity where "processing time of switch" (§6.2) actually
// lives.
//
// Deadlock freedom follows Duato's protocol: virtual channel 0 is the
// escape channel routed with deterministic dimension-order routing,
// higher VCs route fully adaptively (minimal); a blocked adaptive
// packet can always fall back to the escape network.
package flitsim

import (
	"fmt"

	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topology"
)

// FlitType distinguishes wormhole flit roles.
type FlitType uint8

const (
	HeadFlit FlitType = iota
	BodyFlit
	TailFlit
	// HeadTailFlit is a single-flit packet.
	HeadTailFlit
)

// flit is the unit of flow control.
type flit struct {
	typ FlitType
	pk  *packet.Packet // header state shared by the whole packet
	id  uint64         // packet id
}

// Config parameterizes the fabric.
type Config struct {
	Net    topology.Network
	Scheme marking.Scheme
	Plan   *packet.AddrPlan

	// Seed drives VC allocation and adaptive tie-breaks.
	Seed uint64
}

const (
	// bufDepth is the per-VC input buffer depth in flits.
	bufDepth = 4
	// flitBytes is how many bytes one flit carries.
	flitBytes = 16
)

func (c *Config) defaults() error {
	if c.Net == nil || c.Plan == nil {
		return fmt.Errorf("flitsim: Net and Plan are required")
	}
	if c.Scheme == nil {
		c.Scheme = marking.Nop{}
	}
	return nil
}

// vcState is one input virtual channel of one router port.
type vcState struct {
	buf []flit
	// routed is true once the head flit at the buffer head has been
	// assigned an output; outPort/outVC hold the allocation until the
	// tail flit passes.
	routed  bool
	outPort int // index into router's neighbor list, or ejectPort
	outVC   int
	// stalled counts consecutive cycles a routed head flit has waited
	// with zero downstream credit; past a grace period the allocation
	// is released toward the escape channel.
	stalled int
}

// router is one switch.
type router struct {
	id        topology.NodeID
	neighbors []topology.NodeID
	// in[port][vc]; port len(neighbors) is the injection port.
	in [][]*vcState
	// credits[port][vc]: free downstream buffer slots for each output.
	credits [][]int
	// outOwner[port][vc]: packet id currently holding the output VC
	// (wormhole channel ownership), 0 when free.
	outOwner [][]uint64
}

const noOwner = 0

// Fabric is the running flit-level simulation.
type Fabric struct {
	cfg     Config
	routers []*router
	esc     *routing.Router // escape: dimension-order
	escVCs  int             // 1 (mesh/hypercube) or 2 (torus dateline)
	vcs     int             // per physical channel: escVCs + 1 adaptive

	cycle    int64
	nextPkt  uint64
	injectQ  [][]flit // per-node pending flits (unbounded source queue)
	inFlight int

	// Stats
	injectedPkts, deliveredPkts uint64
	latencySum                  uint64
	flitHops                    uint64

	onDeliver func(cycle int64, pk *packet.Packet)

	// Per-cycle scratch buffers, reused across Step calls so the steady
	// state allocates nothing: pending flit moves and credit returns,
	// switch-allocation candidate lists, and routing scratch (minimal
	// moves + coordinate buffers).
	moveBuf   []move
	creditBuf []creditReturn
	candBuf   []*vcState
	dimBuf    []topology.DimDir
	cc, dc    topology.Coord
}

// New builds the fabric.
func New(cfg Config) (*Fabric, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	nd := len(cfg.Net.Dims())
	f := &Fabric{
		cfg:     cfg,
		esc:     routing.NewRouter(cfg.Net, routing.NewDimensionOrder(cfg.Net)),
		escVCs:  1,
		injectQ: make([][]flit, cfg.Net.NumNodes()),
		nextPkt: 1,
		cc:      make(topology.Coord, nd),
		dc:      make(topology.Coord, nd),
	}
	// Meshes and hypercubes need one dimension-order escape VC; tori
	// need two (Dally–Seitz dateline: packets that will still cross the
	// wraparound link of the current dimension ride VC1, switching to
	// VC0 after the dateline, which breaks the ring's cyclic channel
	// dependency). One adaptive VC rides above the escape channels.
	if cfg.Net.Wraparound() {
		f.escVCs = 2
	}
	f.vcs = f.escVCs + 1
	for id := 0; id < cfg.Net.NumNodes(); id++ {
		nbs := cfg.Net.Neighbors(topology.NodeID(id))
		rt := &router{id: topology.NodeID(id), neighbors: nbs}
		ports := len(nbs) + 1 // + injection port
		rt.in = make([][]*vcState, ports)
		for p := range rt.in {
			rt.in[p] = make([]*vcState, f.vcs)
			for v := range rt.in[p] {
				rt.in[p][v] = &vcState{}
			}
		}
		rt.credits = make([][]int, len(nbs))
		rt.outOwner = make([][]uint64, len(nbs))
		for p := range rt.credits {
			rt.credits[p] = make([]int, f.vcs)
			rt.outOwner[p] = make([]uint64, f.vcs)
			for v := range rt.credits[p] {
				rt.credits[p][v] = bufDepth
			}
		}
		f.routers = append(f.routers, rt)
	}
	return f, nil
}

// OnDeliver registers the delivery sink.
func (f *Fabric) OnDeliver(fn func(cycle int64, pk *packet.Packet)) { f.onDeliver = fn }

// Inject enqueues a packet at its source node. The scheme's OnInject
// hook runs immediately (the packet is entering its first switch).
func (f *Fabric) Inject(pk *packet.Packet) {
	n := int(pk.Hdr.Length) - packet.HeaderLen
	flits := 1 + (packet.HeaderLen+n+flitBytes-1)/flitBytes
	pk.Seq = f.nextPkt
	f.nextPkt++
	pk.InjectedAt = f.cycle
	f.cfg.Scheme.OnInject(pk)
	f.injectedPkts++
	f.inFlight++
	q := f.injectQ[pk.SrcNode]
	if flits == 1 {
		q = append(q, flit{typ: HeadTailFlit, pk: pk, id: pk.Seq})
	} else {
		q = append(q, flit{typ: HeadFlit, pk: pk, id: pk.Seq})
		for i := 1; i < flits-1; i++ {
			q = append(q, flit{typ: BodyFlit, pk: pk, id: pk.Seq})
		}
		q = append(q, flit{typ: TailFlit, pk: pk, id: pk.Seq})
	}
	f.injectQ[pk.SrcNode] = q
}

// Stats summarizes delivery counters.
type Stats struct {
	Injected, Delivered uint64
	AvgLatency          float64 // cycles, injection to tail delivery
	FlitHops            uint64
}

// Stats returns a snapshot.
func (f *Fabric) Stats() Stats {
	s := Stats{Injected: f.injectedPkts, Delivered: f.deliveredPkts, FlitHops: f.flitHops}
	if f.deliveredPkts > 0 {
		s.AvgLatency = float64(f.latencySum) / float64(f.deliveredPkts)
	}
	return s
}
