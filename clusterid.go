// Package clusterid is the public API of this reproduction of
// "A Source Identification Scheme against DDoS Attacks in Cluster
// Interconnects" (Lee, Kim & Lee, ICPP Workshops 2004).
//
// It provides:
//
//   - cluster construction over the paper's direct networks (mesh,
//     torus, hypercube) with deterministic, partially adaptive and
//     fully adaptive routing;
//   - every marking scheme the paper analyzes, including the
//     contributed Deterministic Distance Packet Marking (DDPM);
//   - a victim-side Monitor that runs the full pipeline — detect the
//     DDoS, identify sources from single packets via DDPM, block them;
//   - the experiment runners that regenerate the paper's tables and
//     figures (see EXPERIMENTS.md).
//
// Quick start:
//
//	cl, _ := clusterid.New(clusterid.Config{Topo: clusterid.Mesh2D(8), Seed: 1})
//	mon, _ := clusterid.NewMonitor(cl, victimNode)
//	cl.Sim.OnDeliver(mon.Deliver)
//	// ... inject traffic, run cl.Sim, then:
//	sources := mon.IdentifiedSources(10)
package clusterid

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/marking"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traceback"
)

// Re-exported configuration and cluster types. See internal/core for
// the full documentation of each field.
type (
	// Config assembles a cluster simulation (topology, routing,
	// marking scheme, fabric parameters, seed).
	Config = core.Config
	// TopoSpec names a topology by kind and radixes.
	TopoSpec = core.TopoSpec
	// Cluster is a fully wired simulation.
	Cluster = core.Cluster
)

// Topology spec constructors.
var (
	// Mesh2D builds a k×k mesh spec; Torus2D a k-ary 2-cube; Cube an
	// n-dimensional hypercube; Mesh an arbitrary n-dimensional mesh.
	Mesh2D  = core.Mesh2D
	Torus2D = core.Torus2D
	Cube    = core.Cube
	Mesh    = core.Mesh
)

// New builds a cluster from a config. The default scheme is DDPM on a
// congestion-aware fully-adaptive-minimal fabric.
func New(cfg Config) (*Cluster, error) { return core.Build(cfg) }

// RoutingNames and SchemeNames enumerate the accepted config values.
func RoutingNames() []string { return core.RoutingNames() }
func SchemeNames() []string  { return core.SchemeNames() }

// NodeID and Time are the simulator's node and clock types.
type (
	NodeID = topology.NodeID
	Time   = eventq.Time
	Packet = packet.Packet
)

// Monitor is the victim-side pipeline: detectors watch delivered
// traffic, the DDPM identifier attributes every packet to its true
// injection node, and a blocklist filters once sources are confirmed.
type Monitor struct {
	cluster *Cluster
	victim  NodeID

	Detectors  *core.VictimDetectors
	Identifier *traceback.DDPMIdentifier
	Blocklist  *filter.Blocklist

	// AutoBlock, when positive, arms automatic response: once any
	// detector alarms, every source whose attributed-packet tally
	// exceeds AutoBlock is blocklisted on the spot, with no operator in
	// the loop. Zero (the default) leaves blocking manual.
	AutoBlock int64

	// accepted counts packets that passed the blocklist; dropped those
	// it rejected.
	accepted, dropped uint64
}

// NewMonitor attaches a monitor to a DDPM cluster for one victim node.
func NewMonitor(cl *Cluster, victim NodeID) (*Monitor, error) {
	if victim < 0 || int(victim) >= cl.Net.NumNodes() {
		return nil, fmt.Errorf("clusterid: victim %d outside %s", victim, cl.Net.Name())
	}
	d, err := cl.DDPM()
	if err != nil {
		return nil, err
	}
	return &Monitor{
		cluster:    cl,
		victim:     victim,
		Detectors:  core.NewVictimDetectors(1000),
		Identifier: traceback.NewDDPMIdentifier(d, victim),
		Blocklist:  filter.NewBlocklist(d, victim),
	}, nil
}

// Deliver is the netsim delivery hook: call it from Sim.OnDeliver (or
// register it directly). Packets for other destinations are ignored.
func (m *Monitor) Deliver(now Time, pk *Packet) {
	if pk.DstNode != m.victim {
		return
	}
	if m.Blocklist.Len() > 0 && m.Blocklist.Check(pk) == filter.Drop {
		m.dropped++
		return
	}
	m.accepted++
	m.Detectors.Observe(now, pk)
	src, ok := m.Identifier.Observe(pk)
	if m.AutoBlock > 0 && ok && m.Detectors.Alarmed() &&
		m.Identifier.Count(src) > m.AutoBlock {
		m.Blocklist.Block(src)
	}
}

// UnderAttack reports whether any detector has alarmed, and when.
func (m *Monitor) UnderAttack() (bool, Time) {
	return m.Detectors.Alarmed(), m.Detectors.AlarmedAt()
}

// IdentifiedSources returns every source attributed strictly more than
// threshold packets — the candidates to block. Only sources that were
// attributed a packet qualify: a negative threshold returns everyone
// heard from, never the silent rest of the cluster.
func (m *Monitor) IdentifiedSources(threshold int64) []NodeID {
	return m.Identifier.SourcesAbove(threshold)
}

// BlockSources adds nodes to the victim's blocklist; subsequent
// deliveries from them are dropped at the NIC.
func (m *Monitor) BlockSources(nodes []NodeID) { m.Blocklist.BlockAll(nodes) }

// Counts returns the accepted and blocklist-dropped delivery tallies.
func (m *Monitor) Counts() (accepted, dropped uint64) { return m.accepted, m.dropped }

// Victim returns the monitored node.
func (m *Monitor) Victim() NodeID { return m.victim }

// IdentifySource decodes one marking field as the victim would:
// S = D − V (mod k on a torus) or S = D ⊕ V on a hypercube.
func IdentifySource(cl *Cluster, victim NodeID, mf uint16) (NodeID, bool) {
	d, err := cl.DDPM()
	if err != nil {
		return topology.None, false
	}
	return d.IdentifySource(victim, mf)
}

// Experiment runners, re-exported for downstream benchmarking. See
// EXPERIMENTS.md for what each regenerates.
type (
	E1Row    = core.E1Row
	E2Row    = core.E2Row
	E3Row    = core.E3Row
	E5Row    = core.E5Row
	E5Config = core.E5Config
)

var (
	RunE1      = core.RunE1
	RunE2      = core.RunE2
	RunE3      = core.RunE3
	RunE5      = core.RunE5
	E1Analytic = core.E1Analytic
)

// Scalability re-exports for table regeneration.
var (
	ScalabilityTable = core.ScalabilityTable
	WriteTable       = core.WriteTable
	WriteFigure2     = core.WriteFigure2
)

// NewIngressFilter exposes the Ferguson–Senie baseline over a cluster's
// address plan (§2 [10]): switches verify the source address of locally
// injected packets.
func NewIngressFilter(cl *Cluster) *filter.IngressFilter {
	return filter.NewIngressFilter(cl.Plan)
}

// NewSYNTable exposes the SYN-flood detector for standalone use.
func NewSYNTable(capacity int, timeout Time) *detect.SYNTable {
	return detect.NewSYNTable(capacity, timeout)
}

// DDPMOf returns the cluster's DDPM scheme for direct marking-field
// work (codec access, manual identification).
func DDPMOf(cl *Cluster) (*marking.DDPM, error) { return cl.DDPM() }
