// Package victim models the service under attack at connection-level
// fidelity: a TCP-like server with a bounded half-open table that
// answers SYNs with SYN-ACKs (sent to the — possibly spoofed — header
// source, producing real backscatter), benign clients that complete the
// three-way handshake, and the service-denial metric the paper's §1
// scenario is ultimately about: what fraction of legitimate connection
// attempts still succeed during the flood, and how much of that
// recovers once DDPM-identified sources are blocked.
package victim

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/filter"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Service is the attacked server: it owns a bounded half-open table
// (the SYN flood's target resource) and replies through the fabric.
type Service struct {
	Node     topology.NodeID
	Capacity int
	Timeout  eventq.Time

	sim  *netsim.Network
	plan *packet.AddrPlan

	// Blocklist, when set, is consulted before the SYN occupies table
	// space — the identify-then-block payoff.
	Blocklist *filter.Blocklist

	halfOpen map[packet.Addr]eventq.Time

	// Counters.
	SynSeen     uint64
	Refused     uint64 // SYNs dropped because the table was full
	Blocked     uint64 // SYNs dropped by the blocklist
	Established uint64 // handshakes completed
}

// NewService attaches a server to a node.
func NewService(sim *netsim.Network, plan *packet.AddrPlan, node topology.NodeID,
	capacity int, timeout eventq.Time) (*Service, error) {
	if capacity <= 0 || timeout <= 0 {
		return nil, fmt.Errorf("victim: bad service spec capacity=%d timeout=%d", capacity, timeout)
	}
	return &Service{
		Node: node, Capacity: capacity, Timeout: timeout,
		sim: sim, plan: plan,
		halfOpen: make(map[packet.Addr]eventq.Time),
	}, nil
}

// HandleDeliver processes one packet delivered to the service's node.
// Call it from the simulator's delivery fan-out.
func (s *Service) HandleDeliver(now eventq.Time, pk *packet.Packet) {
	if pk.DstNode != s.Node {
		return
	}
	// Reap stale half-opens.
	for a, t0 := range s.halfOpen {
		if now-t0 > s.Timeout {
			delete(s.halfOpen, a)
		}
	}
	switch pk.Hdr.Proto {
	case packet.ProtoTCPSYN:
		s.SynSeen++
		if s.Blocklist != nil && s.Blocklist.Check(pk) == filter.Drop {
			s.Blocked++
			return
		}
		if len(s.halfOpen) >= s.Capacity {
			s.Refused++
			return
		}
		s.halfOpen[pk.Hdr.Src] = now
		// SYN-ACK goes to whatever the header claims — spoofed sources
		// turn this into backscatter at innocent nodes.
		if claimed, ok := s.plan.NodeOf(pk.Hdr.Src); ok && claimed != s.Node {
			reply := packet.NewPacket(s.plan, s.Node, claimed, packet.ProtoTCPACK, 0)
			reply.PayloadLen = synAckMarker
			reply.Hdr.Length = packet.HeaderLen + synAckMarker
			s.sim.Inject(reply)
		}
	case packet.ProtoTCPACK:
		if _, open := s.halfOpen[pk.Hdr.Src]; open && pk.PayloadLen != synAckMarker {
			delete(s.halfOpen, pk.Hdr.Src)
			s.Established++
		}
	}
}

// synAckMarker distinguishes the server's SYN-ACK from a client's final
// ACK (both ride ProtoTCPACK in this reduced TCP model).
const synAckMarker = 1

// Clients drives benign connection attempts: each client sends a SYN
// and, upon receiving the SYN-ACK, immediately ACKs to complete the
// handshake.
type Clients struct {
	sim     *netsim.Network
	plan    *packet.AddrPlan
	service topology.NodeID

	Attempts    uint64
	SynAcksSeen uint64

	// Backscatter counts SYN-ACKs arriving at nodes that never opened a
	// connection — the spoofed-source fallout.
	Backscatter uint64

	pending map[topology.NodeID]int // node -> outstanding attempts
}

// NewClients builds the benign population targeting one service.
func NewClients(sim *netsim.Network, plan *packet.AddrPlan, service topology.NodeID) *Clients {
	return &Clients{sim: sim, plan: plan, service: service, pending: make(map[topology.NodeID]int)}
}

// Connect schedules one legitimate connection attempt from node at time
// at.
func (c *Clients) Connect(at eventq.Time, node topology.NodeID) {
	if node == c.service {
		panic("victim: service cannot connect to itself")
	}
	c.Attempts++
	c.pending[node]++
	syn := packet.NewPacket(c.plan, node, c.service, packet.ProtoTCPSYN, 0)
	c.sim.InjectAt(at, syn)
}

// HandleDeliver processes SYN-ACKs arriving at client nodes. Call it
// from the simulator's delivery fan-out.
func (c *Clients) HandleDeliver(_ eventq.Time, pk *packet.Packet) {
	if pk.Hdr.Proto != packet.ProtoTCPACK || pk.PayloadLen != synAckMarker {
		return
	}
	if pk.DstNode == c.service {
		return
	}
	if c.pending[pk.DstNode] > 0 {
		c.pending[pk.DstNode]--
		c.SynAcksSeen++
		ack := packet.NewPacket(c.plan, pk.DstNode, c.service, packet.ProtoTCPACK, 0)
		c.sim.Inject(ack)
	} else {
		c.Backscatter++
	}
}
