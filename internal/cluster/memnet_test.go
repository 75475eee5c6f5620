package cluster

// The tests' transport: nodes built unstarted, connected through
// Config.Dial to an in-memory network that serves each address the way
// a daemon serves its TCP port — gossip frames through the node's
// HandleGossip, forward sessions through fwdPeer into its pipeline — so
// a test steps the production gossipWith, gossipRound and forwardStep
// and reads the outcome the moment the step returns.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

var errDown = errors.New("test: member down")

// memNet maps addresses to what answers them. A dial gets one end of a
// net.Pipe; a goroutine serves the other until either end closes.
type memNet struct {
	mu    sync.Mutex
	peers map[string]*fwdPeer
	conns map[string][]net.Conn // server ends, closed when the address goes down
	lose  map[string]int        // gossip responses still to lose, per server address
}

func newMemNet() *memNet {
	return &memNet{peers: map[string]*fwdPeer{}, conns: map[string][]net.Conn{}, lose: map[string]int{}}
}

// memNets holds one network per test, so helpers that build nodes
// share it without threading it through every call.
var memNets sync.Map // *testing.T → *memNet

func netFor(t *testing.T) *memNet {
	m, loaded := memNets.LoadOrStore(t, newMemNet())
	if !loaded {
		t.Cleanup(func() { memNets.Delete(t) })
	}
	return m.(*memNet)
}

// up makes addr answer with f, replacing whatever answered before.
func (m *memNet) up(addr string, f *fwdPeer) {
	m.down(addr)
	m.mu.Lock()
	m.peers[addr] = f
	m.mu.Unlock()
}

// down makes addr unreachable and cuts every connection it served.
func (m *memNet) down(addr string) {
	m.mu.Lock()
	conns := m.conns[addr]
	delete(m.conns, addr)
	delete(m.peers, addr)
	m.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// loseNext makes the next gossip response addr sends vanish: the
// request is absorbed, and faultnet cuts the connection before the
// response's first byte.
func (m *memNet) loseNext(addr string) {
	m.mu.Lock()
	m.lose[addr]++
	m.mu.Unlock()
}

func (m *memNet) dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.peers[addr]
	if f == nil {
		return nil, errDown
	}
	c, srv := net.Pipe()
	m.conns[addr] = append(m.conns[addr], srv)
	go m.serve(addr, f, srv)
	return clockFree{c}, nil
}

// serve answers one connection: a forward session, or gossip requests
// until the client hangs up.
func (m *memNet) serve(addr string, f *fwdPeer, conn net.Conn) {
	defer conn.Close()
	rd := wire.NewReader(conn)
	ftype, payload, err := rd.ReadFrame()
	if err != nil {
		return
	}
	if ftype == wire.TypeHello {
		f.serve(conn, rd, payload)
		return
	}
	for ftype == wire.TypeGossip && f.node != nil {
		body, err := wire.ParseGossip(payload)
		if err != nil {
			return
		}
		resp, err := f.node.HandleGossip(body)
		if err != nil {
			return
		}
		w := conn
		m.mu.Lock()
		if m.lose[addr] > 0 {
			m.lose[addr]--
			w = faultnet.Config{CutAfter: 1}.Wrap(conn, 0)
		}
		m.mu.Unlock()
		if _, err := w.Write(wire.AppendGossip(nil, resp)); err != nil {
			return
		}
		if ftype, payload, err = rd.ReadFrame(); err != nil {
			return
		}
	}
}

// clockFree is a client's end of an in-memory connection. It ignores
// deadlines: gossipWith sets its deadline on the injected clock, which
// a test clock puts in 1970, and net.Pipe honours deadlines.
type clockFree struct{ net.Conn }

func (clockFree) SetDeadline(time.Time) error      { return nil }
func (clockFree) SetReadDeadline(time.Time) error  { return nil }
func (clockFree) SetWriteDeadline(time.Time) error { return nil }

// fwdPeer is the tests' one forward-session server. It answers a
// forwarding client's hello, echoing the trace flag only when trace is
// set, acks forwarded frames by their stream's cumulative count —
// dropping records an earlier connection already delivered, as the
// daemon's session dedup does — and hands the fresh records to node's
// pipeline, as the daemon's forwarded ingest does, or, with no node,
// releases them. Every delivered record is counted: direct when it
// carries a trace context, replayed when not (with every offered
// record traced, an untraced one is a gate replay). A traced frame on
// a session that refused the lane is counted in tracedFrames and
// hangs up, as a pre-trace build's session does.
type fwdPeer struct {
	node  *Node
	trace bool

	direct, replayed, tracedFrames atomic.Uint64

	mu      sync.Mutex
	streams map[uint64]uint64
}

// received counts every record delivered.
func (f *fwdPeer) received() uint64 { return f.direct.Load() + f.replayed.Load() }

func (f *fwdPeer) serve(conn net.Conn, rd *wire.Reader, hello []byte) {
	stream, base, flags, err := wire.ParseHello(hello)
	if err != nil {
		return
	}
	echo := wire.HelloFlagForward
	if f.trace {
		echo |= wire.HelloFlagTrace
	}
	f.mu.Lock()
	if f.streams == nil {
		f.streams = map[uint64]uint64{}
	}
	count := max(f.streams[stream], base)
	f.streams[stream] = count
	f.mu.Unlock()
	if _, err := conn.Write(wire.AppendAck(nil, count, flags&echo)); err != nil {
		return
	}
	// Acks go out from their own goroutine, coalesced to the latest
	// count: the pipe holds no bytes in flight, so an inline ack would
	// block this loop until the client reads it, while a client with a
	// window open is writing its next frame.
	acks := make(chan uint64, 1)
	defer close(acks)
	go func() {
		for c := range acks {
			if _, err := conn.Write(wire.AppendAck(nil, c, 0)); err != nil {
				return
			}
		}
	}()
	pool := wire.NewSlabPool(1)
	for {
		ftype, payload, err := rd.ReadFrame()
		if err != nil {
			return
		}
		if ftype == wire.TypeTracedForwarded && !f.trace {
			f.tracedFrames.Add(1)
			return
		}
		get := pool.Get
		if f.node != nil {
			get = f.node.p.GetSlab
		}
		s := get()
		h, err := s.AppendBatch(ftype, payload)
		if err != nil || !h.Forwarded || h.Seq > count {
			s.Release()
			return
		}
		end := h.Seq + uint64(s.Len())
		if count > h.Seq {
			s.Keep([][2]int{{int(min(count-h.Seq, uint64(s.Len()))), s.Len()}})
		}
		count = max(count, end)
		f.mu.Lock()
		f.streams[stream] = count
		f.mu.Unlock()
		for i := range s.Recs {
			if s.Ctxs != nil && s.Ctxs[i].ID != 0 {
				f.direct.Add(1)
			} else {
				f.replayed.Add(1)
			}
		}
		if f.node != nil {
			k := s.Len()
			f.node.p.SubmitSlab(s)
			f.node.NoteForwardedIn(h.Origin, k)
		} else {
			s.Release()
		}
		select {
		case <-acks: // superseded by count
		default:
		}
		acks <- count
	}
}

// testPipelineConfig is the test nodes' pipeline: an 8×8 torus that
// never blocks on its own.
func testPipelineConfig() pipeline.Config {
	return pipeline.Config{
		Net: topology.NewTorus2D(8), Shards: 2, QueueLen: 1 << 12,
		BlockThreshold: 1 << 30, BlockTTL: time.Hour,
	}
}

// newTestNode builds an unstarted node over a fresh pipeline, on the
// test's network: gossip and forwarding happen only when a test steps
// them.
func newTestNode(t *testing.T, self string, peers []string, now *atomic.Int64) (*Node, *pipeline.Pipeline) {
	t.Helper()
	return newTestNodeOn(t, testPipelineConfig(), self, peers, now)
}

// newTestNodeOn is newTestNode over a pipeline built from pcfg.
func newTestNodeOn(t *testing.T, pcfg pipeline.Config, self string, peers []string, now *atomic.Int64) (*Node, *pipeline.Pipeline) {
	t.Helper()
	return newTestNodeWith(t, pcfg, Config{Self: self, Peers: peers, FailAfter: time.Second, Now: now.Load})
}

// newTestNodeWith builds cfg's node over a pipeline built from pcfg on
// the test's network, closed at cleanup. cfg.Dial defaults to the
// network's.
func newTestNodeWith(t *testing.T, pcfg pipeline.Config, cfg Config) (*Node, *pipeline.Pipeline) {
	t.Helper()
	p, err := pipeline.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	m := netFor(t)
	if cfg.Dial == nil {
		cfg.Dial = m.dial
	}
	n, err := build(p, cfg)
	if err != nil {
		p.Close()
		t.Fatal(err)
	}
	m.up(cfg.Self, &fwdPeer{node: n, trace: true})
	t.Cleanup(func() {
		m.down(cfg.Self)
		n.Close()
		p.Close()
	})
	return n, p
}

// peerOf is client's peer entry for server.
func peerOf(t *testing.T, client, server *Node) *peer {
	t.Helper()
	pr := client.members.Load().byID[server.self]
	if pr == nil {
		t.Fatalf("client %s does not know server %s", client.cfg.Self, server.cfg.Self)
	}
	return pr
}

// exchange runs the production client side of one anti-entropy
// exchange, client's gossipWith toward server. A connection to a
// previous life of server fails its first exchange, as over TCP; the
// exchange then redials once.
func exchange(t *testing.T, server, client *Node) {
	t.Helper()
	pr := peerOf(t, client, server)
	stale := pr.conn != nil
	err := client.gossipWith(pr)
	if err != nil && stale {
		err = client.gossipWith(pr)
	}
	if err != nil {
		t.Fatalf("exchange %s → %s: %v", client.cfg.Self, server.cfg.Self, err)
	}
}

// exchangeLost is exchange with server's response lost: server absorbs
// the request, and client never completes the exchange.
func exchangeLost(t *testing.T, server, client *Node) {
	t.Helper()
	netFor(t).loseNext(server.cfg.Self)
	if err := client.gossipWith(peerOf(t, client, server)); err == nil {
		t.Fatalf("exchange %s → %s completed with its response lost", client.cfg.Self, server.cfg.Self)
	}
}

// waitTallied blocks until the pipeline's exact state for victim holds
// n records. (Processed is not that barrier: it ticks when a worker
// picks a sub-batch up, before the victim's state exists.)
func waitTallied(t *testing.T, p *pipeline.Pipeline, victim topology.NodeID, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if snap, ok := p.ExportVictim(victim); ok && snap.Identified()+snap.Undecodable == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %d never tallied %d records", victim, n)
		}
	}
}

// outboxLen counts the entries n still owes other members; a slot
// claimed for a detach that has not landed yet is not one.
func (n *Node) outboxLen() int {
	n.outMu.Lock()
	defer n.outMu.Unlock()
	owed := 0
	for _, h := range n.outbox {
		if h != detaching {
			owed++
		}
	}
	return owed
}
