// Package core wires the substrates into runnable clusters and
// implements the paper's experiments (the per-experiment index in
// DESIGN.md §3). It is the engine behind the public clusterid facade,
// the cmd/ tools and the benchmark harness.
package core

import (
	"fmt"
	"strings"

	"repro/internal/eventq"
	"repro/internal/marking"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TopoSpec names a topology: Kind is "mesh", "torus" or "hypercube";
// Dims carries the radixes (for a hypercube, a single entry holding the
// dimension count).
type TopoSpec struct {
	Kind string
	Dims []int
}

// String renders the spec, e.g. "mesh-8x8".
func (t TopoSpec) String() string {
	parts := make([]string, len(t.Dims))
	for i, d := range t.Dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return t.Kind + "-" + strings.Join(parts, "x")
}

// Mesh2D, Torus2D and Cube are spec constructors for the common cases.
func Mesh2D(k int) TopoSpec     { return TopoSpec{Kind: "mesh", Dims: []int{k, k}} }
func Torus2D(k int) TopoSpec    { return TopoSpec{Kind: "torus", Dims: []int{k, k}} }
func Cube(n int) TopoSpec       { return TopoSpec{Kind: "hypercube", Dims: []int{n}} }
func Mesh(dims ...int) TopoSpec { return TopoSpec{Kind: "mesh", Dims: dims} }

// BuildTopology materializes a spec.
func BuildTopology(spec TopoSpec) (topology.Network, error) {
	switch spec.Kind {
	case "mesh":
		if len(spec.Dims) == 0 {
			return nil, fmt.Errorf("core: mesh needs dims")
		}
		return topology.NewMesh(spec.Dims...), nil
	case "torus":
		if len(spec.Dims) == 0 {
			return nil, fmt.Errorf("core: torus needs dims")
		}
		return topology.NewTorus(spec.Dims...), nil
	case "hypercube":
		if len(spec.Dims) != 1 {
			return nil, fmt.Errorf("core: hypercube needs exactly one dim (the cube dimension)")
		}
		return topology.NewHypercube(spec.Dims[0]), nil
	default:
		return nil, fmt.Errorf("core: unknown topology kind %q", spec.Kind)
	}
}

// RoutingNames lists the supported routing algorithm names.
func RoutingNames() []string {
	return []string{"xy", "dor", "west-first", "north-last", "negative-first", "minimal-adaptive", "fully-adaptive"}
}

// BuildRouting materializes a named algorithm for a network.
func BuildRouting(name string, net topology.Network) (alg routing.Algorithm, err error) {
	defer func() {
		// Turn-model constructors panic on unsupported topologies; turn
		// that into a configuration error for CLI users.
		if r := recover(); r != nil {
			alg, err = nil, fmt.Errorf("core: routing %q on %s: %v", name, net.Name(), r)
		}
	}()
	switch name {
	case "xy":
		return routing.NewXY(net), nil
	case "dor", "ecube":
		return routing.NewDimensionOrder(net), nil
	case "west-first":
		return routing.NewWestFirst(net), nil
	case "north-last":
		return routing.NewNorthLast(net), nil
	case "negative-first":
		return routing.NewNegativeFirst(net), nil
	case "minimal-adaptive":
		return routing.NewMinimalAdaptive(net), nil
	case "fully-adaptive":
		return routing.NewFullyAdaptiveMisroute(net), nil
	default:
		return nil, fmt.Errorf("core: unknown routing %q (have %v)", name, RoutingNames())
	}
}

// SchemeNames lists the supported marking scheme names.
func SchemeNames() []string {
	return []string{"none", "ddpm", "simple-ppm", "xor-ppm", "bitdiff-ppm", "wide-ppm", "fragment-ppm", "ams", "dpm", "ingress-stamp"}
}

// BuildScheme materializes a named marking scheme. markProb is the PPM
// sampling probability (ignored by deterministic schemes).
func BuildScheme(name string, net topology.Network, markProb float64, r *rng.Stream) (marking.Scheme, error) {
	switch name {
	case "none", "":
		return marking.Nop{}, nil
	case "ddpm":
		return marking.NewDDPM(net)
	case "simple-ppm":
		return marking.NewSimplePPM(net, markProb, r)
	case "xor-ppm":
		return marking.NewXORPPM(net, markProb, r)
	case "bitdiff-ppm":
		return marking.NewBitDiffPPM(net, markProb, r)
	case "wide-ppm":
		return marking.NewWidePPM(markProb, r)
	case "fragment-ppm":
		return marking.NewFragmentPPM(markProb, r)
	case "ams":
		return marking.NewAMS(markProb, 0, r)
	case "dpm":
		return marking.NewDPM(), nil
	case "ingress-stamp":
		return marking.NewIngressStamp(net)
	default:
		return nil, fmt.Errorf("core: unknown scheme %q (have %v)", name, SchemeNames())
	}
}

// ppmMarkProb is the PPM schemes' sampling probability: Savage's choice.
const ppmMarkProb = 0.04

// Config assembles a full cluster simulation. The router picks among an
// adaptive algorithm's candidate hops with routing.CongestionSelector.
type Config struct {
	Topo    TopoSpec
	Routing string // name from RoutingNames; default minimal-adaptive
	Scheme  string // name from SchemeNames; default ddpm

	MisrouteBudget int
	QueueCap       int
	LinkLatency    eventq.Time

	Seed uint64

	// WrapScheme, when set, wraps the built marking scheme before the
	// simulator is wired — the hook observability layers (e.g.
	// internal/trace) use to ride along without changing behavior.
	WrapScheme func(marking.Scheme) marking.Scheme
}

// Cluster is a fully wired simulation: fabric, router, scheme, address
// plan and the event-driven network.
type Cluster struct {
	Cfg    Config
	Net    topology.Network
	Router *routing.Router
	Scheme marking.Scheme
	Plan   *packet.AddrPlan
	Sim    *netsim.Network
	Rng    *rng.Source
}

// Build materializes a Config.
func Build(cfg Config) (*Cluster, error) {
	if cfg.Routing == "" {
		cfg.Routing = "minimal-adaptive"
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "ddpm"
	}
	src := rng.NewSource(cfg.Seed)
	net, err := BuildTopology(cfg.Topo)
	if err != nil {
		return nil, err
	}
	alg, err := BuildRouting(cfg.Routing, net)
	if err != nil {
		return nil, err
	}
	router := routing.NewRouter(net, alg)
	router.MisrouteBudget = cfg.MisrouteBudget
	router.Sel = routing.CongestionSelector{R: src.Stream("selector")}
	scheme, err := BuildScheme(cfg.Scheme, net, ppmMarkProb, src.Stream("marking"))
	if err != nil {
		return nil, err
	}
	if cfg.WrapScheme != nil {
		scheme = cfg.WrapScheme(scheme)
		if scheme == nil {
			return nil, fmt.Errorf("core: WrapScheme returned nil")
		}
	}
	plan := packet.NewAddrPlan(packet.DefaultBase, net.NumNodes())
	sim, err := netsim.New(netsim.Config{
		Net: net, Router: router, Scheme: scheme, Plan: plan,
		LinkLatency: cfg.LinkLatency, QueueCap: cfg.QueueCap,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{
		Cfg: cfg, Net: net, Router: router, Scheme: scheme,
		Plan: plan, Sim: sim, Rng: src,
	}, nil
}

// DDPM returns the cluster's scheme as a DDPM instance, unwrapping any
// observability layers, or an error if another scheme is configured.
func (c *Cluster) DDPM() (*marking.DDPM, error) {
	s := c.Scheme
	for {
		if d, ok := s.(*marking.DDPM); ok {
			return d, nil
		}
		u, ok := s.(interface{ Unwrap() marking.Scheme })
		if !ok {
			return nil, fmt.Errorf("core: cluster scheme is %s, not ddpm", c.Scheme.Name())
		}
		s = u.Unwrap()
	}
}
