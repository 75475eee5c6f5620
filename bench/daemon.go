package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipeline"
	"repro/internal/topology"
)

// memSink is the in-memory journal sink: the journal's writer goroutine
// appends JSONL to it, the runner parses it after the drain.
type memSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (m *memSink) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

// events parses what the journal wrote. Call it after the journal is
// closed, or accept a prefix.
func (m *memSink) events() ([]pipeline.Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []pipeline.Event
	sc := bufio.NewScanner(bytes.NewReader(m.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev pipeline.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("bench: journal line: %w", err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// ddpmd serve's defaults that the stream and the gate are sized by.
const (
	shards       = 4    // -shards
	sketchAdmit  = 64   // -sketch-admit: records before a destination earns exact state
	heavyHitters = 512  // pipeline.Config.SketchHeavyHitters: victim states per shard
	journalDepth = 1024 // -journal-depth
)

// serveDefaults is the pipeline configuration `ddpmd serve` runs with
// when given no flags, plus the journal.
func serveDefaults(net topology.Network, j *pipeline.Journal) pipeline.Config {
	return pipeline.Config{
		Net: net, Shards: shards, QueueLen: 4096,
		CUSUMWindow: windowTicks, CUSUMSlack: 4, CUSUMThreshold: 40,
		EntropyWindow: windowTicks, EntropyDelta: 1.5,
		BlockThreshold: blockThreshold, BlockTTL: time.Minute,
		SketchAdmit: sketchAdmit, VictimTTL: 10 * time.Minute,
		Journal:     j,
		TraceBuffer: 4096, TraceSampleN: 64, TraceSlowThreshold: time.Millisecond,
	}
}

// member is one running daemon with its sinks.
type member struct {
	d       *pipeline.Daemon
	p       *pipeline.Pipeline
	node    *cluster.Node // nil outside a fleet
	journal *pipeline.Journal
	sink    *memSink
}

// fleet is the system under test: one daemon, or n clustered ones.
type fleet struct {
	members []*member
	ring    *cluster.Ring // nil for a single daemon
}

// startFleet starts n daemons on loopback. For n > 1 they form a
// cluster whose members are named by memberName, with a dialer that
// maps a name to the port its daemon bound, and startFleet returns once
// every member has gossiped with every other and sees all n alive.
func startFleet(netw topology.Network, n int) (*fleet, error) {
	f := &fleet{}
	var mu sync.Mutex
	addrs := make(map[string]string, n)
	dial := func(name string) (net.Conn, error) {
		mu.Lock()
		addr, ok := addrs[name]
		mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("bench: member %s not listening yet", name)
		}
		return net.Dial("tcp", addr)
	}
	for i := 0; i < n; i++ {
		m := &member{sink: &memSink{}}
		m.journal = pipeline.NewJournal(m.sink, journalDepth)
		cfg := pipeline.ServerConfig{
			Pipeline: serveDefaults(netw, m.journal),
			TCPAddr:  "127.0.0.1:0",
		}
		if n > 1 {
			var peers []string
			for j := 0; j < n; j++ {
				if j != i {
					peers = append(peers, memberName(j))
				}
			}
			self := memberName(i)
			cfg.NewCluster = func(p *pipeline.Pipeline) (pipeline.ClusterNode, error) {
				node, err := cluster.New(p, cluster.Config{Self: self, Peers: peers, SketchAdmit: sketchAdmit, Dial: dial})
				if err != nil {
					return nil, err
				}
				m.node = node
				return node, nil
			}
		}
		d, err := pipeline.Start(cfg)
		if err != nil {
			// The error in hand is the one to report.
			_ = m.journal.Close()
			_ = f.stop()
			return nil, err
		}
		m.d, m.p = d, d.Pipeline()
		mu.Lock()
		addrs[memberName(i)] = d.TCPAddr().String()
		mu.Unlock()
		f.members = append(f.members, m)
	}
	if n > 1 {
		f.ring = fleetRing(n)
		if err := f.converge(30 * time.Second); err != nil {
			_ = f.stop()
			return nil, err
		}
	}
	return f, nil
}

// converge polls every member's status until each reports the whole
// fleet alive and a completed gossip exchange with every peer.
func (f *fleet) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, m := range f.members {
			st, isStatus := m.node.StatusJSON().(cluster.Status)
			if !isStatus || st.Alive != len(f.members) {
				ok = false
				break
			}
			for _, ms := range st.Members {
				if !ms.Self && (!ms.Alive || ms.LastGossipMs < 0) {
					ok = false
				}
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: fleet of %d did not converge in %v", len(f.members), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ingestAddr is where both exporters attach: the first member.
func (f *fleet) ingestAddr() string { return f.members[0].d.TCPAddr().String() }

// owner returns the member that owns a victim's exact state.
func (f *fleet) owner(v topology.NodeID) *member {
	if f.ring == nil {
		return f.members[0]
	}
	id := f.ring.Owner(v)
	for i, m := range f.members {
		if cluster.MemberID(memberName(i)) == id {
			return m
		}
	}
	return f.members[0]
}

// processed sums the records the members' shard workers have consumed.
func (f *fleet) processed() uint64 {
	var n uint64
	for _, m := range f.members {
		n += m.p.C.Processed.Load()
	}
	return n
}

// idle reports whether every pooled slab is back: nothing queued,
// nothing being processed.
func (f *fleet) idle() bool {
	for _, m := range f.members {
		if m.p.SlabsOutstanding() != 0 {
			return false
		}
	}
	return true
}

// stop shuts every member down in order (draining its queues and forward
// sessions, closing its journal), waits for it, and returns the first
// error.
func (f *fleet) stop() error {
	var first error
	for _, m := range f.members {
		if err := m.d.Shutdown(context.Background()); err != nil && first == nil {
			first = err
		}
	}
	return first
}
