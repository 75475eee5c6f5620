package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/topology"
	"repro/internal/wire"
)

// ServerConfig wires a Pipeline to the outside world.
type ServerConfig struct {
	Pipeline Config

	// TCPAddr accepts length-prefixed wire frames over stream
	// connections; UDPAddr accepts frames packed into datagrams;
	// HTTPAddr is the admin plane (/healthz, /metrics, /blocklist).
	// Empty disables that listener; ":0" picks an ephemeral port.
	TCPAddr  string
	UDPAddr  string
	HTTPAddr string

	// DrainGrace bounds how long Shutdown lets live TCP streams keep
	// delivering already-sent frames before cutting them (default
	// 250ms).
	DrainGrace time.Duration

	// IdleTimeout sheds TCP peers that go this long without completing
	// a frame (slowloris protection) and bounds ack writes. Default 2
	// minutes; negative disables.
	IdleTimeout time.Duration

	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// admin plane. Opt-in: profiling endpoints expose heap contents,
	// so they stay off unless the operator asks.
	EnablePprof bool

	// NewCluster, when set, builds the cluster tier right after the
	// pipeline; every ingest slab is then routed through it (owned
	// records processed here, foreign ones forwarded to their owner),
	// forwarding sessions are accepted, gossip is answered, and
	// /cluster plus the cluster metrics appear on the admin plane. Nil
	// keeps the single-instance hot path: ingest submits straight to
	// the pipeline with no ownership check.
	NewCluster func(*Pipeline) (ClusterNode, error)
}

// session is the server half of a wire exporter session: the cumulative
// count of records accepted for one stream id, and the slab credit that
// paces it. The mutex serializes ingest across connections claiming the
// same stream (a reconnecting client may briefly race its own dying
// conn), which is what makes dedup-by-seq exact.
type session struct {
	mu     sync.Mutex
	count  uint64
	credit chan struct{} // one token per slab the session holds in the pipeline
}

// sessionSlabs is a session's slab credit: the pooled slabs it may hold
// in the pipeline at once. A slab puts at most one element on a shard
// queue, so a queue this long never sheds one acked session's records.
const sessionSlabs = 4

// Daemon is the running ddpmd service: ingest listeners feeding a
// Pipeline plus the HTTP admin plane.
type Daemon struct {
	cfg     ServerConfig
	p       *Pipeline
	cluster ClusterNode // nil when cluster mode is off
	start   time.Time

	tcpLn   net.Listener
	udpConn net.PacketConn
	httpLn  net.Listener
	httpSrv *http.Server

	draining atomic.Bool
	drainAt  atomic.Int64 // drain deadline, unix nanos; 0 = not draining

	decodeErrs    atomic.Uint64
	resyncSkipped atomic.Uint64
	connsAccepted atomic.Uint64
	idleTimeouts  atomic.Uint64
	sessionCount  atomic.Uint64
	sessionRecs   atomic.Uint64

	connsMu     sync.Mutex
	conns       map[net.Conn]struct{}
	sessMu      sync.Mutex
	sessions    map[uint64]*session
	ingestersWG sync.WaitGroup

	errCh  chan error
	failMu sync.Mutex
	failed error
}

// Start builds the pipeline, binds every configured listener and
// begins serving. On error nothing is left running.
func Start(cfg ServerConfig) (*Daemon, error) {
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 250 * time.Millisecond
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	p, err := New(cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg: cfg, p: p, start: time.Now(),
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[uint64]*session),
		errCh:    make(chan error, 1),
	}
	fail := func(err error) (*Daemon, error) {
		d.closeListeners()
		if d.cluster != nil {
			d.cluster.Close()
		}
		p.Close()
		return nil, err
	}
	if cfg.NewCluster != nil {
		if d.cluster, err = cfg.NewCluster(p); err != nil {
			return fail(fmt.Errorf("pipeline: cluster: %w", err))
		}
	}
	if cfg.TCPAddr != "" {
		if d.tcpLn, err = net.Listen("tcp", cfg.TCPAddr); err != nil {
			return fail(fmt.Errorf("pipeline: tcp listen: %w", err))
		}
		d.ingestersWG.Add(1)
		go d.acceptLoop()
	}
	if cfg.UDPAddr != "" {
		if d.udpConn, err = net.ListenPacket("udp", cfg.UDPAddr); err != nil {
			return fail(fmt.Errorf("pipeline: udp listen: %w", err))
		}
		d.ingestersWG.Add(1)
		go d.udpLoop()
	}
	if cfg.HTTPAddr != "" {
		if d.httpLn, err = net.Listen("tcp", cfg.HTTPAddr); err != nil {
			return fail(fmt.Errorf("pipeline: http listen: %w", err))
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", d.handleHealthz)
		mux.HandleFunc("/metrics", d.handleMetrics)
		mux.HandleFunc("/blocklist", d.handleBlocklist)
		mux.HandleFunc("/victims", d.handleVictims)
		mux.HandleFunc("/cluster", d.handleCluster)
		mux.HandleFunc("/debug/traces", d.handleTraces)
		if cfg.EnablePprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		d.httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := d.httpSrv.Serve(d.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				d.fail(fmt.Errorf("pipeline: admin serve: %w", err))
			}
		}()
		// Tell the cluster tier where the admin plane landed so it can
		// gossip the address; /cluster lists it for the fleet commands.
		if d.cluster != nil {
			d.cluster.SetAdminAddr(d.httpLn.Addr().String())
		}
	}
	return d, nil
}

// fail records the daemon's first fatal background error and signals
// Errors(). Later errors are dropped: the first one is the cause.
func (d *Daemon) fail(err error) {
	d.failMu.Lock()
	if d.failed == nil {
		d.failed = err
	}
	d.failMu.Unlock()
	select {
	case d.errCh <- err:
	default:
	}
}

// Err reports the daemon's first fatal background error (nil while
// healthy). A failed daemon also reports unready on /healthz.
func (d *Daemon) Err() error {
	d.failMu.Lock()
	defer d.failMu.Unlock()
	return d.failed
}

// Errors delivers fatal background errors — e.g. the admin plane dying
// under the daemon — so a supervisor can exit instead of serving
// blindly with no metrics endpoint.
func (d *Daemon) Errors() <-chan error { return d.errCh }

// Pipeline exposes the underlying pipeline (tests, embedding).
func (d *Daemon) Pipeline() *Pipeline { return d.p }

// submit is the ingest sink: cluster mode routes by victim ownership,
// single-instance mode submits straight to the pipeline. Consumes the
// slab reference either way.
func (d *Daemon) submit(s *wire.Slab) {
	if d.cluster != nil {
		d.cluster.Route(s)
		return
	}
	d.p.SubmitSlab(s)
}

// TCPAddr, UDPAddr and HTTPAddr return the bound addresses (nil when
// that listener is disabled) — needed when configured with ":0".
func (d *Daemon) TCPAddr() net.Addr {
	if d.tcpLn == nil {
		return nil
	}
	return d.tcpLn.Addr()
}

func (d *Daemon) UDPAddr() net.Addr {
	if d.udpConn == nil {
		return nil
	}
	return d.udpConn.LocalAddr()
}

func (d *Daemon) HTTPAddr() net.Addr {
	if d.httpLn == nil {
		return nil
	}
	return d.httpLn.Addr()
}

// Shutdown drains and stops: flip /healthz to draining, stop
// accepting, give live TCP streams DrainGrace to deliver already-sent
// frames, drain every shard queue, then stop the admin plane. Queued
// records are never discarded.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.draining.Store(true)
	deadline := time.Now().Add(d.cfg.DrainGrace)
	d.drainAt.Store(deadline.UnixNano())
	if d.tcpLn != nil {
		d.tcpLn.Close()
	}
	if d.udpConn != nil {
		d.udpConn.SetReadDeadline(time.Now()) // unblock the udp loop
	}
	d.connsMu.Lock()
	for c := range d.conns {
		c.SetReadDeadline(deadline)
	}
	d.connsMu.Unlock()
	d.ingestersWG.Wait()
	if d.udpConn != nil {
		d.udpConn.Close()
	}
	if d.cluster != nil {
		// After ingest stops and before the pipeline closes: the node
		// flushes its forward queues (which submit nothing locally) and
		// stops gossiping.
		d.cluster.Close()
	}
	d.p.Close() // drain shard queues
	var jerr error
	if j := d.p.Journal(); j != nil {
		// Flush after the drain so every event from queued records is
		// on disk before the process exits.
		jerr = j.Close()
	}
	if d.httpSrv != nil {
		if err := d.httpSrv.Shutdown(ctx); err != nil {
			return err
		}
	}
	return jerr
}

func (d *Daemon) closeListeners() {
	if d.tcpLn != nil {
		d.tcpLn.Close()
	}
	if d.udpConn != nil {
		d.udpConn.Close()
	}
	if d.httpLn != nil {
		d.httpLn.Close()
	}
}

func (d *Daemon) acceptLoop() {
	defer d.ingestersWG.Done()
	for {
		conn, err := d.tcpLn.Accept()
		if err != nil {
			return // listener closed
		}
		d.connsAccepted.Add(1)
		d.connsMu.Lock()
		d.conns[conn] = struct{}{}
		d.connsMu.Unlock()
		d.ingestersWG.Add(1)
		go d.serveConn(conn)
	}
}

// armDeadline sets the idle read deadline, always ending at or before
// the drain deadline once Shutdown has begun. Re-checking drainAt after
// the idle arm closes the race where Shutdown stamps every conn and
// this conn then extends itself past the grace window.
func (d *Daemon) armDeadline(conn net.Conn) {
	if t := d.cfg.IdleTimeout; t > 0 {
		conn.SetReadDeadline(time.Now().Add(t))
	}
	if at := d.drainAt.Load(); at != 0 {
		conn.SetReadDeadline(time.Unix(0, at))
	}
}

// journalStream emits a stream-level audit event (resync, session
// loss) when a journal is configured.
func (d *Daemon) journalStream(evType string, stream uint64, detail string) {
	if j := d.p.Journal(); j != nil {
		j.Emit(Event{T: d.p.cfg.Now(), Type: evType, Victim: -1, Source: -1, Stream: stream, Detail: detail})
	}
}

// noteReadErr classifies a stream read failure into the counters.
func (d *Daemon) noteReadErr(err error) {
	if errors.Is(err, wire.ErrBadFrame) {
		d.decodeErrs.Add(1)
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() && !d.draining.Load() {
		d.idleTimeouts.Add(1)
	}
}

// serveConn dispatches a TCP stream on its first frame: a hello starts
// a strict acked session (the exporter client); anything else is a
// legacy plain stream served leniently with resync.
func (d *Daemon) serveConn(conn net.Conn) {
	defer d.ingestersWG.Done()
	defer func() {
		conn.Close()
		d.connsMu.Lock()
		delete(d.conns, conn)
		d.connsMu.Unlock()
	}()
	if d.draining.Load() {
		// Accepted in the race with Shutdown: honor the drain deadline.
		conn.SetReadDeadline(time.Unix(0, d.drainAt.Load()))
	}
	// One maximal frame, so one read can bring in a slab's worth.
	r := wire.NewReaderSize(conn, wire.HeaderSize+wire.MaxFramePayload)
	d.armDeadline(conn)
	ftype, payload, err := r.ReadFrame()
	if err != nil {
		d.noteReadErr(err)
		return
	}
	switch ftype {
	case wire.TypeHello:
		d.serveSession(conn, r, payload)
	case wire.TypeGossip:
		d.serveGossip(conn, r, payload)
	default:
		d.servePlain(conn, r, ftype, payload)
	}
}

// serveGossip answers cluster anti-entropy rounds: one TypeGossip
// request in, one TypeGossip response out, repeated until the peer
// hangs up. Without a cluster tier the frame is a protocol violation.
func (d *Daemon) serveGossip(conn net.Conn, r *wire.Reader, payload []byte) {
	if d.cluster == nil {
		d.decodeErrs.Add(1)
		return
	}
	var scratch []byte
	for {
		body, err := wire.ParseGossip(payload)
		if err != nil {
			d.decodeErrs.Add(1)
			return
		}
		resp, err := d.cluster.HandleGossip(body)
		if err != nil {
			d.decodeErrs.Add(1)
			return
		}
		if t := d.cfg.IdleTimeout; t > 0 {
			conn.SetWriteDeadline(time.Now().Add(t))
		}
		scratch = wire.AppendGossip(scratch[:0], resp)
		if _, err := conn.Write(scratch); err != nil {
			return
		}
		d.armDeadline(conn)
		var ftype uint8
		if ftype, payload, err = r.ReadFrame(); err != nil {
			d.noteReadErr(err)
			return
		}
		if ftype != wire.TypeGossip {
			d.decodeErrs.Add(1)
			return
		}
	}
}

// servePlain consumes a legacy stream with resync enabled: a framing
// error skips forward to the next magic (counted per skip in
// DecodeErrors, per byte in the skipped-bytes counter) instead of
// killing the connection. There are no acks, so leniency beats
// strictness — dropping the conn would lose everything in flight.
//
// Each frame decodes into one pooled slab submitted whole, so the
// pipeline sees the frame as a single batch.
func (d *Daemon) servePlain(conn net.Conn, r *wire.Reader, ftype uint8, payload []byte) {
	r.EnableResync()
	var lastResyncs, lastSkipped uint64
	for {
		// Hello is handled by the dispatcher; stray acks and other
		// control frames are noise.
		if wire.IsBatch(ftype) {
			s := d.p.GetSlab()
			// Sealed frames outside a session still carry records; the
			// CRC makes them safe to tally without acks. Forwarded
			// frames do not: outside a cluster session they must never
			// be flattened into plain ingest (they would be re-routed
			// and loop), so they are refused — and counted, like every
			// other frame whose records did not reach the pipeline.
			if h, err := s.AppendBatch(ftype, payload); err != nil || h.Forwarded {
				d.decodeErrs.Add(1)
				s.Release()
			} else {
				d.submit(s)
			}
		}
		d.armDeadline(conn)
		var err error
		ftype, payload, err = r.ReadFrame()
		if rs := r.Resyncs(); rs != lastResyncs {
			d.decodeErrs.Add(rs - lastResyncs)
			lastResyncs = rs
		}
		if sk := r.SkippedBytes(); sk != lastSkipped {
			d.journalStream(EventResync,
				0, fmt.Sprintf("%s: skipped %d bytes to next magic", conn.RemoteAddr(), sk-lastSkipped))
			d.resyncSkipped.Add(sk - lastSkipped)
			d.traceResync(0)
			lastSkipped = sk
		}
		if err != nil {
			d.noteReadErr(err)
			return
		}
	}
}

// traceResync retains a synthetic stream-level trace for a resync skip,
// so the flight recorder shows framing damage alongside record traces.
// (A lost session is journaled, not traced.)
func (d *Daemon) traceResync(stream uint64) {
	if fr := d.p.Recorder(); fr != nil {
		fr.CommitEventWithID(fr.MintEventID(stream), OutcomeResync, d.p.cfg.Now(), -1)
	}
}

// serveSession speaks the exporter session protocol: ack the hello at
// the stream's cumulative count, then per burst — a sealed frame and
// the whole frames of its type buffered behind it, in one slab — skip
// each frame's already-accepted prefix, submit the rest, advance the
// count and ack once. The reader stays strict — any framing damage drops
// the connection and the client resends from the last acked count,
// which is exactly what keeps accepted records counted once.
func (d *Daemon) serveSession(conn net.Conn, r *wire.Reader, helloPayload []byte) {
	streamID, base, flags, err := wire.ParseHello(helloPayload)
	if err != nil {
		d.decodeErrs.Add(1)
		return
	}
	// Echo back the extensions this server honors: the trace flag, plus
	// the forward flag when a cluster tier is running. A client whose
	// trace flag is not echoed falls back to plain sealed frames; a
	// forwarding client with an unechoed flag fails the connection
	// (forwarded records must never be silently flattened into plain
	// ingest on a non-cluster daemon — they would be re-routed and loop).
	flagMask := uint32(wire.HelloFlagTrace)
	if d.cluster != nil {
		flagMask |= wire.HelloFlagForward
	}
	ackFlags := flags & flagMask
	sess := d.session(streamID)
	var scratch []byte
	if !d.ackHello(conn, sess, base, &scratch, ackFlags) {
		return
	}
	// lose accounts the protocol violation that ends the session. The
	// reader stays strict: the client resends from the acked count.
	lose := func(why string) {
		d.decodeErrs.Add(1)
		d.journalStream(EventSessionLoss, streamID, why)
	}
	var (
		ftype   uint8
		payload []byte
		carried bool // ftype and payload hold a frame read but not yet handled
		frames  []burstFrame
		kept    [][2]int
	)
	for {
		if !carried {
			d.armDeadline(conn)
			if ftype, payload, err = r.ReadFrame(); err != nil {
				d.noteReadErr(err)
				return
			}
		}
		carried = false
		switch {
		case wire.IsBatch(ftype):
			sess.credit <- struct{}{} // returned by the slab's last Release
			s := d.p.GetSlab()
			s.Credit = sess.credit
			first, why := ftype, ""
			var h0 wire.BatchHeader
			var readErr error
			frames = frames[:0]
			for {
				at := s.Len()
				h, err := s.AppendBatch(ftype, payload)
				if errors.Is(err, wire.ErrSlabFull) {
					carried = true // it opens the next burst
					break
				}
				switch {
				case err != nil:
					why = fmt.Sprintf("type-%d frame rejected", ftype)
				case !h.Sealed:
					why = "non-session frame" // a bare batch has no sequence number to dedup or ack
				case h.Forwarded && d.cluster == nil:
					why = "forwarded frame without cluster tier"
				}
				if why != "" {
					break
				}
				if len(frames) == 0 {
					h0 = h
				}
				frames = append(frames, burstFrame{seq: h.Seq, n: s.Len() - at})
				if !r.FrameBuffered() {
					break
				}
				if ftype, payload, readErr = r.ReadFrame(); readErr != nil {
					break
				}
				if ftype != first {
					carried = true
					break
				}
			}
			// The session count advances by every accepted frame regardless
			// of what the pipeline sheds downstream — delivery is what the
			// ack attests. Forwarded-in records bypass cluster routing: they
			// are always processed locally (the sender already resolved
			// ownership), which is what makes forwarding loop-free.
			sess.mu.Lock()
			k, count, gap := dedupBurst(frames, sess.count, kept[:0])
			kept, sess.count = k, count
			fresh := s.Keep(kept)
			switch {
			case fresh == 0:
				s.Release() // nothing new: pure retransmits
			case h0.Forwarded:
				d.p.SubmitSlab(s)
			default:
				d.submit(s)
			}
			d.sessionRecs.Add(uint64(fresh))
			sess.mu.Unlock()
			if h0.Forwarded && gap > 0 {
				d.cluster.NoteForwardedIn(h0.Origin, fresh)
			}
			switch {
			case gap < len(frames):
				lose("sequence gap") // a frame past the accepted count
				return
			case why != "":
				lose(why)
				return
			case readErr != nil:
				d.noteReadErr(readErr)
				return
			}
			if !d.writeAck(conn, &scratch, count, ackFlags) {
				return
			}
		case ftype == wire.TypeHello:
			// A re-hello on a live conn re-synchronizes the client.
			_, b, f, err := wire.ParseHello(payload)
			if err != nil {
				lose("re-hello rejected")
				return
			}
			ackFlags = f & flagMask
			if !d.ackHello(conn, sess, b, &scratch, ackFlags) {
				return
			}
		default:
			lose("non-session frame")
			return
		}
	}
}

// burstFrame is one sealed frame of a burst, which sits back to back
// with the others in one slab: its first record's sequence number and
// its record count.
type burstFrame struct {
	seq uint64
	n   int
}

// dedupBurst dedups a burst frame by frame, as if each had come alone:
// a frame past the count is a gap, and it and all after it are refused;
// else its records below the count are retransmits and the rest are
// fresh, advancing the count to its end. It appends the fresh records'
// slab ranges to kept, adjacent ones merged, and returns them, the new
// count and the gap frame's index (len(frames) if none).
func dedupBurst(frames []burstFrame, count uint64, kept [][2]int) ([][2]int, uint64, int) {
	off := 0
	for i, f := range frames {
		if f.seq > count {
			return kept, count, i
		}
		if skip := count - f.seq; skip < uint64(f.n) {
			lo, hi := off+int(skip), off+f.n
			if k := len(kept); k > 0 && kept[k-1][1] == lo {
				kept[k-1][1] = hi
			} else {
				kept = append(kept, [2]int{lo, hi})
			}
			count = f.seq + uint64(f.n)
		}
		off += f.n
	}
	return kept, count, len(frames)
}

// ackHello fast-forwards the session to the client's base (a restarted
// daemon trusts the exporter's delivered count rather than re-ingesting
// history it never saw) and acks the result.
func (d *Daemon) ackHello(conn net.Conn, sess *session, base uint64, scratch *[]byte, flags uint32) bool {
	sess.mu.Lock()
	if base > sess.count {
		sess.count = base
	}
	c := sess.count
	sess.mu.Unlock()
	return d.writeAck(conn, scratch, c, flags)
}

func (d *Daemon) writeAck(conn net.Conn, scratch *[]byte, count uint64, flags uint32) bool {
	if t := d.cfg.IdleTimeout; t > 0 {
		conn.SetWriteDeadline(time.Now().Add(t))
	}
	*scratch = wire.AppendAck((*scratch)[:0], count, flags)
	_, err := conn.Write(*scratch)
	return err == nil
}

// session finds or creates the state for a stream id.
func (d *Daemon) session(id uint64) *session {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	s := d.sessions[id]
	if s == nil {
		s = &session{credit: make(chan struct{}, sessionSlabs)}
		d.sessions[id] = s
		d.sessionCount.Add(1)
	}
	return s
}

func (d *Daemon) udpLoop() {
	defer d.ingestersWG.Done()
	buf := make([]byte, 1<<16)
	for {
		n, _, err := d.udpConn.ReadFrom(buf)
		if err != nil {
			return // closed or drain deadline
		}
		// A datagram may pack several frames back to back; consume them
		// all rather than silently discarding everything after the first.
		// Each frame becomes one slab batch.
		rest := buf[:n]
		for len(rest) > 0 {
			s := d.p.GetSlab()
			consumed, err := s.AppendDatagramFrame(rest)
			if err != nil {
				s.Release()
				// Position unknown inside the datagram: reject the rest.
				d.decodeErrs.Add(1)
				break
			}
			d.submit(s)
			rest = rest[consumed:]
		}
	}
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if err := d.Err(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "failed: %v\n", err)
		return
	}
	if d.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.p.WritePrometheus(w, time.Since(d.start))
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("ddpmd_decode_errors_total", "wire frames rejected or skipped at the listeners", d.decodeErrs.Load())
	counter("ddpmd_resync_skipped_bytes_total", "bytes discarded scanning for the next frame magic", d.resyncSkipped.Load())
	counter("ddpmd_conns_accepted_total", "TCP ingest connections accepted", d.connsAccepted.Load())
	counter("ddpmd_conn_idle_timeouts_total", "TCP ingest connections shed for idling", d.idleTimeouts.Load())
	counter("ddpmd_sessions_total", "distinct exporter stream ids seen", d.sessionCount.Load())
	counter("ddpmd_session_records_total", "records accepted through acked sessions (deduplicated)", d.sessionRecs.Load())
	d.connsMu.Lock()
	active := len(d.conns)
	d.connsMu.Unlock()
	fmt.Fprintf(w, "# HELP ddpmd_conns_active TCP ingest connections currently open\n"+
		"# TYPE ddpmd_conns_active gauge\nddpmd_conns_active %d\n", active)
	draining := 0
	if d.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "# HELP ddpmd_draining whether shutdown drain has begun\n"+
		"# TYPE ddpmd_draining gauge\nddpmd_draining %d\n", draining)
	if d.cluster != nil {
		d.cluster.WriteMetrics(w)
	}
}

// handleCluster reports the cluster tier's status document (ring
// version, members, forwarding/gossip counters). 404 when the daemon
// runs single-instance.
func (d *Daemon) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if d.cluster == nil {
		http.Error(w, "cluster mode off", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d.cluster.StatusJSON())
}

// handleVictims reports per-victim pipeline state as JSON, sorted by
// node id: alarm latch, identified/undecodable record counts, and the
// top identified sources with tallies (?k=N, default 5, clamped to
// empty evidence for non-positive N).
func (d *Daemon) handleVictims(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	k := 5
	if q := r.URL.Query().Get("k"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad k %q", q), http.StatusBadRequest)
			return
		}
		k = v
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(d.p.VictimReports(k))
}

// blocklistEntry is the admin-plane JSON shape of one block.
type blocklistEntry struct {
	Node          int64 `json:"node"`
	UntilUnixNano int64 `json:"until_unix_nano"` // 0 = permanent
	TTLMillis     int64 `json:"ttl_ms,omitempty"`
}

// blocklistOp is the POST body: block (default) or unblock a node,
// with an optional TTL.
type blocklistOp struct {
	Node    int64 `json:"node"`
	TTLMs   int64 `json:"ttl_ms"`
	Unblock bool  `json:"unblock"`
}

func (d *Daemon) handleBlocklist(w http.ResponseWriter, r *http.Request) {
	bl, now := d.p.Blocklist(), d.p.cfg.Now()
	switch r.Method {
	case http.MethodGet:
		d.p.expireBlocks(now)
		entries := bl.Snapshot()
		out := make([]blocklistEntry, 0, len(entries))
		for _, e := range entries {
			be := blocklistEntry{Node: int64(e.Node), UntilUnixNano: e.Until}
			if e.Until != filter.Permanent {
				be.TTLMillis = (e.Until - now) / int64(time.Millisecond)
			}
			out = append(out, be)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	case http.MethodPost:
		var op blocklistOp
		if err := json.NewDecoder(r.Body).Decode(&op); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if op.Node < 0 || int(op.Node) >= d.p.cfg.Net.NumNodes() {
			http.Error(w, fmt.Sprintf("node %d outside %s", op.Node, d.p.cfg.Net.Name()), http.StatusBadRequest)
			return
		}
		n := topology.NodeID(op.Node)
		switch {
		case op.Unblock:
			bl.Unblock(n)
		case op.TTLMs > (math.MaxInt64-now)/int64(time.Millisecond):
			http.Error(w, fmt.Sprintf("ttl_ms %d: deadline past the int64 nanosecond clock", op.TTLMs), http.StatusBadRequest)
			return
		case op.TTLMs > 0:
			bl.BlockUntil(n, now+op.TTLMs*int64(time.Millisecond))
		default:
			bl.Block(n)
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
