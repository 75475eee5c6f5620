// Command ddpmd is the online source-identification daemon: it ingests
// marked-packet header records from victim NICs over the wire protocol
// (TCP frames, UDP datagrams, or JSONL replay), runs the paper's
// detect → identify → block loop per victim, and exposes an HTTP admin
// plane (/healthz, /metrics, /blocklist).
//
//	ddpmd serve -topo torus -dims 8x8 -tcp :7420 -http :7421
//	ddpmd serve -topo torus -dims 8x8 -replay trace.jsonl -http :7421
//	ddpmd serve -topo torus -dims 8x8 -journal audit.jsonl -pprof
//	ddpmd loadgen -topo torus -dims 8x8 -zombies 3 -addr 127.0.0.1:7420
//	ddpmd loadgen -topo torus -dims 8x8 -addr 127.0.0.1:7420 -retry 8 -trace
//	ddpmd loadgen -topo torus -dims 8x8 -jsonl flood.jsonl
//	ddpmd status -http 127.0.0.1:7421
//
// Clustered operation: each instance names itself and its peers, and
// the fleet partitions victims by consistent hashing — records landing
// on the wrong instance are forwarded to their owner, and blocklist
// mutations gossip fleet-wide:
//
//	ddpmd serve -topo torus -dims 8x8 -tcp :7420 -http :7421 \
//	    -cluster 127.0.0.1:7420 -peers 127.0.0.1:7430,127.0.0.1:7440
//	ddpmd loadgen -topo torus -dims 8x8 -targets 127.0.0.1:7420,127.0.0.1:7430,127.0.0.1:7440
//	ddpmd cluster status -http 127.0.0.1:7421
//	ddpmd fleet trace 1f3a9c0b2d4e5f60 -http 127.0.0.1:7421
//
// A late instance joins a running fleet with -join: it dials any live
// member, learns the roster via gossip, and enters the ring; departing
// victims are handed back to it with their identification state:
//
//	ddpmd serve -topo torus -dims 8x8 -tcp :7450 -http :7451 \
//	    -cluster 127.0.0.1:7450 -join 127.0.0.1:7420
//
// SIGTERM/SIGINT drain gracefully: listeners close, queued records are
// processed, /healthz reports "draining" until exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/loadgen"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "loadgen":
		runLoadgen(os.Args[2:])
	case "status":
		runStatus(os.Args[2:])
	case "cluster":
		runCluster(os.Args[2:])
	case "trace":
		runTrace(os.Args[2:])
	case "fleet":
		runFleet(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ddpmd serve|loadgen|status|cluster|trace|fleet [flags] (-h for flags)")
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("ddpmd serve", flag.ExitOnError)
	var (
		topoKind = fs.String("topo", "torus", "topology: mesh, torus, hypercube")
		dims     = fs.String("dims", "8x8", "dims, e.g. 8x8, 4x4x4, or cube dimension")
		tcpAddr  = fs.String("tcp", ":7420", "TCP ingest listen address (empty disables)")
		udpAddr  = fs.String("udp", "", "UDP ingest listen address (empty disables)")
		httpAddr = fs.String("http", ":7421", "HTTP admin listen address (empty disables)")
		shards   = fs.Int("shards", 4, "worker shards")
		queue    = fs.Int("queue", 4096, "record sub-batches buffered per shard")
		cusumWin = fs.Int64("cusum-window", 500, "CUSUM window in ticks")
		cusumK   = fs.Float64("cusum-slack", 4, "CUSUM slack")
		cusumH   = fs.Float64("cusum-threshold", 40, "CUSUM alarm threshold")
		entWin   = fs.Int64("entropy-window", 500, "entropy window in ticks (-1 disables)")
		entDelta = fs.Float64("entropy-delta", 1.5, "entropy alarm delta in bits")
		blockN   = fs.Int64("block-threshold", 100, "identifications before auto-block")
		blockTTL = fs.Duration("block-ttl", time.Minute, "auto-block TTL (0 or negative = permanent)")
		admitN   = fs.Int("sketch-admit", 64, "records from a destination before exact victim state materializes (1 = first record; negative is refused)")
		vicTTL   = fs.Duration("victim-ttl", 10*time.Minute, "sweep idle victim state back to sketch-only after this (0 disables)")
		grace    = fs.Duration("drain-grace", 250*time.Millisecond, "per-connection drain grace")
		idle     = fs.Duration("idle-timeout", 2*time.Minute, "shed TCP peers idle this long (negative disables)")
		replay   = fs.String("replay", "", "replay a JSONL record/trace file instead of exiting on idle")
		victim   = fs.Int("replay-victim", -1, "victim filter for trace replay (-1 = all forward hops)")
		journal  = fs.String("journal", "", "append attack-audit events as JSONL to this file")
		jdepth   = fs.Int("journal-depth", 1024, "audit events buffered before shedding")
		enablePP = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the admin plane")
		trBuf    = fs.Int("trace-buffer", 4096, "flight-recorder capacity in traces (negative disables tracing)")
		trSample = fs.Int("trace-sample", 64, "retain 1 in N boring traces: identified, undecodable, suppressed, blocked hits (decisions always retained)")
		trSlow   = fs.Duration("trace-slow", time.Millisecond, "always retain traces with a daemon-side span (ingest, identify, detect, block) above this")

		clSelf   = fs.String("cluster", "", "this instance's advertised TCP ingest address: enables cluster mode")
		clPeers  = fs.String("peers", "", "comma-separated peer ingest addresses (cluster mode)")
		clJoin   = fs.String("join", "", "address of any live fleet member to join at runtime (cluster mode; the roster is learned via gossip)")
		clGossip = fs.Duration("gossip-interval", 500*time.Millisecond, "anti-entropy gossip cadence (cluster mode)")
		clFail   = fs.Duration("fail-after", 0, "declare a silent peer dead after this long (0 = 4×gossip-interval)")
		clVNodes = fs.Int("vnodes", 64, "virtual nodes per member on the ownership ring (cluster mode)")
	)
	fs.Parse(args)

	net2, err := buildNet(*topoKind, *dims)
	if err != nil {
		fatal(err)
	}
	var j *pipeline.Journal
	if *journal != "" {
		if j, err = pipeline.OpenJournal(*journal, *jdepth); err != nil {
			fatal(err)
		}
	}
	var newCluster func(*pipeline.Pipeline) (pipeline.ClusterNode, error)
	if *clSelf != "" {
		var peers []string
		for _, a := range strings.Split(*clPeers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				peers = append(peers, a)
			}
		}
		self, join, interval, failAfter, vnodes, admit := *clSelf, *clJoin, *clGossip, *clFail, *clVNodes, *admitN
		newCluster = func(p *pipeline.Pipeline) (pipeline.ClusterNode, error) {
			n, err := cluster.New(p, cluster.Config{
				Self: self, Peers: peers, Join: join,
				SketchAdmit:    admit,
				GossipInterval: interval, FailAfter: failAfter, VNodes: vnodes,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, format+"\n", args...)
				},
			})
			if err != nil {
				return nil, err
			}
			return n, nil
		}
	} else if *clPeers != "" {
		fatal(fmt.Errorf("serve: -peers requires -cluster <self-addr>"))
	} else if *clJoin != "" {
		fatal(fmt.Errorf("serve: -join requires -cluster <self-addr>"))
	}
	d, err := pipeline.Start(pipeline.ServerConfig{
		Pipeline: pipeline.Config{
			Net: net2, Shards: *shards, QueueLen: *queue,
			CUSUMWindow: eventq.Time(*cusumWin), CUSUMSlack: *cusumK, CUSUMThreshold: *cusumH,
			EntropyWindow: eventq.Time(*entWin), EntropyDelta: *entDelta,
			BlockThreshold: *blockN, BlockTTL: effectiveBlockTTL(*blockTTL),
			SketchAdmit: *admitN, VictimTTL: *vicTTL,
			Journal:     j,
			TraceBuffer: *trBuf, TraceSampleN: *trSample, TraceSlowThreshold: *trSlow,
		},
		TCPAddr: *tcpAddr, UDPAddr: *udpAddr, HTTPAddr: *httpAddr,
		DrainGrace: *grace, IdleTimeout: *idle,
		EnablePprof: *enablePP,
		NewCluster:  newCluster,
	})
	if err != nil {
		if j != nil {
			j.Close()
		}
		fatal(err)
	}
	if *journal != "" {
		fmt.Printf("ddpmd: attack audit journal %s\n", *journal)
	}
	fmt.Printf("ddpmd: fabric %s (topo id %#08x)\n", net2.Name(), d.Pipeline().TopoID())
	for name, addr := range map[string]net.Addr{"tcp": d.TCPAddr(), "udp": d.UDPAddr(), "http": d.HTTPAddr()} {
		if addr != nil {
			fmt.Printf("ddpmd: %s %s\n", name, addr)
		}
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		// Batch the replay through pooled slabs: records accumulate until
		// the slab fills, then ship as one partitioned batch — the same
		// hot path the wire listeners feed.
		slab := d.Pipeline().GetSlab()
		n, err := wire.ReadJSONL(f, wire.JSONLConfig{
			Topo:   d.Pipeline().TopoID(),
			Victim: topology.NodeID(*victim),
		}, func(rec wire.Record) error {
			slab.Append(rec)
			if slab.Free() == 0 {
				d.Pipeline().SubmitSlab(slab)
				slab = d.Pipeline().GetSlab()
			}
			return nil
		})
		d.Pipeline().SubmitSlab(slab)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ddpmd: replayed %d records from %s\n", n, *replay)
	}

	// SIGQUIT dumps the flight recorder to stderr and keeps serving —
	// the "what just happened" signal, distinct from the drain signals.
	stopDump := d.WatchDumpSignal(os.Stderr, syscall.SIGQUIT)
	defer stopDump()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	failed := false
	select {
	case s := <-sig:
		fmt.Printf("ddpmd: %v, draining\n", s)
	case err := <-d.Errors():
		// A fatal background failure (e.g. the admin plane dying) must
		// stop the daemon, not leave it serving blind.
		fmt.Fprintln(os.Stderr, "ddpmd: fatal:", err)
		failed = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		fatal(err)
	}
	snap := d.Pipeline().Snapshot()
	fmt.Printf("ddpmd: drained; processed %d records (%d dropped, %d identified, %d alarms, %d blocks)\n",
		snap.Processed, snap.Dropped, snap.Identified, snap.Alarms, snap.Blocks)
	if failed {
		os.Exit(1)
	}
}

func runLoadgen(args []string) {
	fs := flag.NewFlagSet("ddpmd loadgen", flag.ExitOnError)
	var (
		topoKind = fs.String("topo", "torus", "topology: mesh, torus, hypercube")
		dims     = fs.String("dims", "8x8", "dims, e.g. 8x8, 4x4x4, or cube dimension")
		zombies  = fs.Int("zombies", 3, "number of compromised nodes")
		seed     = fs.Uint64("seed", 1, "deterministic scenario seed")
		gap      = fs.Int64("gap", 2, "attack CBR gap in ticks per zombie")
		bg       = fs.Float64("bg", 0.002, "background injection rate per node per tick")
		warmup   = fs.Int64("warmup", 3000, "quiet ticks before the flood")
		atk      = fs.Int64("attack", 6000, "flood duration in ticks")
		victim   = fs.Int("victim", -1, "victim node (-1 = highest-numbered)")
		addr     = fs.String("addr", "", "deliver records to this ddpmd TCP address (acked session)")
		targets  = fs.String("targets", "", "comma-separated ddpmd TCP addresses: spray batches round-robin across a cluster fleet, one acked session each")
		jsonl    = fs.String("jsonl", "", "write records as JSONL to this file (\"-\" = stdout)")
		retry    = fs.Int("retry", 1, "consecutive connection attempts before a session gives up and counts its unacked records lost (at least 1)")
		buffer   = fs.Int("buffer", 1<<16, "unacked records the resilient client buffers across reconnects")
		batch    = fs.Int("batch", 1024, "records per sealed frame (capped by the wire format; oversize is an error)")
		trace    = fs.Bool("trace", false, "stamp a trace context on every record (negotiated in the session hello)")
	)
	fs.Parse(args)
	sinks := 0
	for _, s := range []string{*addr, *targets, *jsonl} {
		if s != "" {
			sinks++
		}
	}
	if sinks != 1 {
		fatal(fmt.Errorf("loadgen: exactly one of -addr, -targets or -jsonl is required"))
	}

	dimList, err := parseDims(*dims)
	if err != nil {
		fatal(err)
	}
	res, err := loadgen.Generate(loadgen.Scenario{
		Topo:   core.TopoSpec{Kind: *topoKind, Dims: dimList},
		Victim: topology.NodeID(*victim), Zombies: *zombies, Seed: *seed,
		AttackGap: eventq.Time(*gap), Background: *bg,
		Warmup: eventq.Time(*warmup), Attack: eventq.Time(*atk),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %s victim %d, zombies %v, %d records (%d in attack window)\n",
		res.TopoName, res.Victim, res.Zombies, len(res.Records), res.AttackRecords)

	switch {
	case *addr != "" || *targets != "":
		var addrs []string // -addr is the one-element list
		for _, a := range strings.Split(*addr+*targets, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			fatal(fmt.Errorf("loadgen: no address in -addr or -targets"))
		}
		_, _, lost, err := deliver(res, addrs, wire.ClientConfig{
			Seed: *seed, BufferRecords: *buffer, MaxAttempts: max(*retry, 1),
			MaxBatch: *batch, Trace: *trace,
		})
		if err != nil {
			fatal(err)
		}
		if lost > 0 {
			os.Exit(1)
		}
	default:
		out := os.Stdout
		if *jsonl != "-" {
			f, err := os.Create(*jsonl)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		for _, r := range res.Records {
			if err := enc.Encode(map[string]any{
				"t": int64(r.T), "topo": res.TopoName, "victim": int64(r.Victim),
				"mf": r.MF, "src": r.Src.String(), "proto": uint8(r.Proto),
			}); err != nil {
				fatal(err)
			}
		}
	}
}

// deliver streams res to the daemons at addrs over one acked session
// each, dealing batches round-robin: every instance of a fleet ingests
// a slice of the campaign and its forwarding tier regroups records by
// victim (identification tallies are order-insensitive, so the
// interleaving is harmless). -addr is the one-element list. cfg is the
// sessions' template; the i-th takes Seed+i. It reports the summed
// ledger and returns the records lost: every record is delivered or
// counted, sent == delivered + lost.
func deliver(res *loadgen.Result, addrs []string, cfg wire.ClientConfig) (sent, delivered, lost uint64, err error) {
	clients := make([]*wire.Client, len(addrs))
	for i, a := range addrs {
		c := cfg
		c.Addr, c.Seed = a, cfg.Seed+uint64(i)
		if clients[i], err = wire.NewClient(c); err != nil {
			return 0, 0, 0, err
		}
	}
	next := 0
	if err := res.Stream(func(recs []wire.Record) error {
		c := clients[next%len(clients)]
		next++
		return c.Send(recs)
	}, cfg.MaxBatch); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
	}
	var resent, reconnects uint64
	for i, c := range clients {
		if err := c.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", addrs[i], err)
		}
		sent += c.Sent()
		delivered += c.Delivered()
		lost += c.Lost()
		resent += c.Resent()
		reconnects += c.Reconnects()
	}
	fmt.Fprintf(os.Stderr, "loadgen: delivered %d of %d records to %s (%d lost, %d resent, %d reconnects)\n",
		delivered, sent, strings.Join(addrs, ","), lost, resent, reconnects)
	return sent, delivered, lost, nil
}

// effectiveBlockTTL maps the user-facing -block-ttl convention (0 or
// negative = permanent) onto pipeline.Config.BlockTTL, where zero means
// "use the default" and only a negative value means permanent. Without
// this translation a `-block-ttl 0` would silently become the 60s
// default — the opposite of what the flag promised.
func effectiveBlockTTL(d time.Duration) time.Duration {
	if d <= 0 {
		return -1
	}
	return d
}

func buildNet(kind, dims string) (topology.Network, error) {
	dimList, err := parseDims(dims)
	if err != nil {
		return nil, err
	}
	return core.BuildTopology(core.TopoSpec{Kind: kind, Dims: dimList})
}

func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dims %q: %v", s, err)
		}
		out[i] = v
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddpmd:", err)
	os.Exit(1)
}

// adminGet is the client commands' one read of a daemon's admin plane:
// GET path from addr and, on 200, decode the body into v (nil skips the
// decode). v is the type the daemon encodes at that path, so a schema
// change breaks the build here rather than reading zero. The status is
// 0 when no answer arrived; a non-200 answer comes back as its status,
// its body and an error naming both.
func adminGet(client *http.Client, addr, path string, v any) (int, []byte, error) {
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	route, _, _ := strings.Cut(path, "?")
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, body, fmt.Errorf("GET %s: %d: %s", route, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, body, fmt.Errorf("bad %s response: %w", route, err)
		}
	}
	return resp.StatusCode, body, nil
}
