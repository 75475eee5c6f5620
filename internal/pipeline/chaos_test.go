package pipeline_test

// The chaos acceptance test for fault-tolerant ingest: a seeded flood
// is streamed into a live daemon through a network that flips bits,
// splits writes, stalls, refuses dials and cuts connections mid-frame —
// and the daemon must still end up with exactly the records the
// exporter client reports as delivered: no silent loss, no double
// counting. Identification over what arrived must match the offline
// identifier over the same (ground truth minus acknowledged-lost)
// record multiset.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/loadgen"
	"repro/internal/marking"
	"repro/internal/pipeline"
	"repro/internal/topology"
	"repro/internal/traceback"
	"repro/internal/wire"
)

// cutCountingConn counts the writes on it that an injected fault cut.
type cutCountingConn struct {
	net.Conn
	cuts *atomic.Int64
}

func (c cutCountingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if errors.Is(err, faultnet.ErrInjected) {
		c.cuts.Add(1)
	}
	return n, err
}

func TestChaosIngestLosesNothingSilently(t *testing.T) {
	const blockThreshold = 100

	// 1. Seeded ground truth: the same flood scenario the clean e2e
	// test uses.
	res, err := loadgen.Generate(loadgen.Scenario{
		Topo: core.Torus2D(8), Victim: -1, Zombies: 3, Seed: 42,
		AttackGap: 2, Background: 0.002, Warmup: 3000, Attack: 6000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackRecords < 1000 {
		t.Fatalf("weak scenario: %d attack records", res.AttackRecords)
	}

	// 2. A live daemon with queues big enough that backpressure cannot
	// shed — any discrepancy is then the ingest path's fault alone. The
	// attack audit journal rides along: at the end it must tell exactly
	// the same story as the pipeline's own state.
	journalPath := filepath.Join(t.TempDir(), "audit.jsonl")
	t.Logf("attack audit journal: %s", journalPath)
	j, err := pipeline.OpenJournal(journalPath, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pipeline.Start(pipeline.ServerConfig{
		Pipeline: pipeline.Config{
			Net: topology.NewTorus2D(8), Shards: 4, QueueLen: 1 << 15,
			BlockThreshold: blockThreshold, BlockTTL: time.Hour,
			Journal: j,
			// Tracing tuned so tail sampling is the only retention path:
			// boring traces effectively never sampled, nothing "slow", a
			// ring too big to evict. Whatever the recorder holds at the
			// end got there because its outcome was interesting.
			LatencySampleEvery: 4,
			TraceBuffer:        1 << 15,
			TraceSampleN:       1 << 30,
			TraceSlowThreshold: time.Hour,
		},
		TCPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	// 3. Every fault at once, deterministically scheduled: bit flips
	// (caught by the sealed CRC), writes shredded into tiny chunks,
	// stalls, dial refusals, and a mid-stream cut roughly every 16 KiB.
	faults := faultnet.Config{
		Seed:          7,
		FlipPerByte:   0.0005,
		CutAfter:      16 << 10,
		Truncate:      true,
		MaxWriteChunk: 500,
		StallEvery:    8 << 10,
		Stall:         time.Millisecond,
		FailDial:      0.2,
		ReadFaults:    true, // acks get corrupted too
	}
	addr := d.TCPAddr().String()
	dial := faults.WrapDial(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	var cutWrites atomic.Int64
	var lost []wire.Record
	c, err := wire.NewClient(wire.ClientConfig{
		Dial: func() (net.Conn, error) {
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			return cutCountingConn{conn, &cutWrites}, nil
		},
		Seed: 13,
		// 150 traced records (40 B each) is the same wire footprint as
		// the pre-trace 256-record frames (24 B each), so per-frame
		// corruption odds — exponential in frame bytes under FlipPerByte
		// — stay at the level this fault schedule was tuned for.
		MaxBatch:    150,
		MaxAttempts: 8,
		Sleep:       func(d time.Duration) { time.Sleep(min(d/10, 20*time.Millisecond)) },
		OnLost:      func(rs []wire.Record) { lost = append(lost, rs...) },
		Trace:       true, // stamp every record with a trace context
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	// 4. Stream the whole scenario. Send errors are advisory (counted
	// shed), never fatal.
	res.Stream(c.Send, 200)
	c.Close()
	t.Logf("sent %d delivered %d lost %d reconnects %d resent %d cut writes %d",
		c.Sent(), c.Delivered(), c.Lost(), c.Reconnects(), c.Resent(), cutWrites.Load())

	// 5. The exactly-once invariant. After Close the client's buffer is
	// empty, so sent = delivered + lost with every loss announced via
	// OnLost; the daemon must process precisely the delivered records.
	if c.Sent() != uint64(len(res.Records)) {
		t.Fatalf("client sent %d of %d records", c.Sent(), len(res.Records))
	}
	if c.Delivered()+c.Lost() != c.Sent() {
		t.Fatalf("counters leak: delivered %d + lost %d != sent %d", c.Delivered(), c.Lost(), c.Sent())
	}
	if uint64(len(lost)) != c.Lost() {
		t.Fatalf("OnLost saw %d records, counter says %d", len(lost), c.Lost())
	}
	p := d.Pipeline()
	deadline := time.Now().Add(30 * time.Second)
	for p.C.Processed.Load() < c.Delivered() {
		if time.Now().After(deadline) {
			t.Fatalf("daemon processed %d, client delivered %d", p.C.Processed.Load(), c.Delivered())
		}
		time.Sleep(time.Millisecond)
	}
	// Give any stray duplicate a moment to land, then require equality.
	time.Sleep(50 * time.Millisecond)
	if got := p.C.Processed.Load(); got != c.Delivered() {
		t.Fatalf("daemon processed %d records, client delivered %d — double counting", got, c.Delivered())
	}
	if p.C.Dropped.Load() != 0 || p.C.RejectedClosed.Load() != 0 {
		t.Fatalf("pipeline shed records (dropped=%d rejectedClosed=%d); invariant void",
			p.C.Dropped.Load(), p.C.RejectedClosed.Load())
	}

	// 6. The chaos actually engaged: connections were cut and re-dialed,
	// and cuts landed inside the client's writes. (Resent() counts only
	// what an earlier write completed, so a cut inside a burst's write
	// never shows there.)
	if c.Reconnects() == 0 {
		t.Error("no reconnects — the fault schedule never cut a connection")
	}
	if cutWrites.Load() == 0 {
		t.Error("no write failed with an injected fault — cuts never landed mid-stream")
	}

	// 7. Identification over what arrived equals the offline answer over
	// ground truth minus exactly the acknowledged-lost multiset.
	remaining := make(map[wire.Record]int, len(lost))
	for _, r := range lost {
		remaining[r]++
	}
	scheme, err := marking.NewDDPM(topology.NewTorus2D(8))
	if err != nil {
		t.Fatal(err)
	}
	offline := traceback.NewDDPMIdentifier(scheme, res.Victim)
	delivered := 0
	for _, rec := range res.Records {
		if remaining[rec] > 0 {
			remaining[rec]--
			continue
		}
		offline.ObserveMF(rec.MF)
		delivered++
	}
	if uint64(delivered) != c.Delivered() {
		t.Fatalf("lost-record bookkeeping broken: %d delivered by subtraction, client says %d",
			delivered, c.Delivered())
	}
	want := offline.SourcesAbove(blockThreshold)
	got := p.SourcesAbove(res.Victim, blockThreshold)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("online identification %v != offline-over-delivered %v", got, want)
	}
	if !reflect.DeepEqual(want, res.Zombies) {
		t.Logf("note: loss changed the identified set vs ground truth %v -> %v", res.Zombies, want)
	}

	// 8. Per-record tracing: the blocked attack must be explicable after
	// the fact. Block-outcome traces are retrievable over the admin
	// plane with the full exporter-send → ingest → identify → detect →
	// block timeline, and the stage-latency histogram exemplars resolve
	// back to retained traces — /metrics is a working index into
	// /debug/traces.
	fr := p.Recorder()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/traces?outcome=block", d.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	var blockJSON []pipeline.TraceJSON
	err = json.NewDecoder(resp.Body).Decode(&blockJSON)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	if len(blockJSON) == 0 {
		t.Fatal("no block-outcome traces on /debug/traces after a blocking chaos run")
	}
	blocked := map[int64]bool{}
	for _, e := range p.Blocklist().Snapshot() {
		blocked[int64(e.Node)] = true
	}
	for _, bt := range blockJSON {
		id, err := strconv.ParseUint(bt.ID, 16, 64)
		if err != nil || id == 0 {
			t.Fatalf("trace id %q is not hex", bt.ID)
		}
		if bt.SentNS <= 0 {
			t.Fatalf("block trace lost its exporter send stamp: %+v", bt)
		}
		if bt.WireNS < 0 || bt.IngestNS < 0 || bt.IdentifyNS < 0 || bt.DetectNS < 0 || bt.BlockNS < 0 {
			t.Fatalf("block trace has unreached spans: %+v", bt)
		}
		if bt.Victim != int64(res.Victim) {
			t.Errorf("block trace victim %d, want %d", bt.Victim, res.Victim)
		}
		if !blocked[bt.Source] {
			t.Errorf("block trace source %d is not in the blocklist", bt.Source)
		}
		f := pipeline.AllTraces()
		f.ID = id
		if len(fr.Snapshot(f)) != 1 {
			t.Errorf("trace %s served over HTTP but not findable in the recorder", bt.ID)
		}
	}
	// Decisions are always retained and the ring is too big to evict,
	// so the recorder's tally of them must equal the pipeline's
	// counters: decisions and traces come from one pass. Blocked hits
	// are boring, sampled 1 in 2^30 here: none is kept, and the counter
	// alone counts them.
	snapNow := p.Snapshot()
	for out, want := range map[pipeline.Outcome]uint64{
		pipeline.OutcomeBlock:      snapNow.Blocks,
		pipeline.OutcomeBlockedHit: 0,
	} {
		f := pipeline.AllTraces()
		f.Outcome, f.HasOut = out, true
		if got := uint64(len(fr.Snapshot(f))); got != want {
			t.Errorf("%d %v traces retained, counters say %d", got, out, want)
		}
	}
	// Detect-stage bins can only be stamped by full-journey traces, and
	// with boring sampling off those are exactly the alarm/block traces.
	// Every exemplar on /metrics must still resolve, and at least one
	// must lead to a block trace: the debugging loop the feature exists
	// for — histogram bin → trace id → timeline of the record that
	// triggered the block.
	exemplarOutcomes := map[pipeline.Outcome]int{}
	exemplar := regexp.MustCompile(`(?m)^ddpmd_stage_latency_seconds_bucket\{stage="(\w+)",le="[^"]*"\} \d+ # \{trace_id="([0-9a-f]{16})"\}`)
	for _, m := range exemplar.FindAllStringSubmatch(httpBody(t, d, "/metrics"), -1) {
		name := m[1]
		f := pipeline.AllTraces()
		f.ID, _ = strconv.ParseUint(m[2], 16, 64)
		ets := fr.Snapshot(f)
		if len(ets) != 1 {
			t.Errorf("stage %s exemplar %s does not resolve to a retained trace", name, m[2])
			continue
		}
		et := ets[0]
		exemplarOutcomes[et.Outcome]++
		if name == "detect" && et.Outcome != pipeline.OutcomeAlarm && et.Outcome != pipeline.OutcomeBlock {
			t.Errorf("detect exemplar %s has outcome %v; only alarm/block traces reach detect with retention on", m[2], et.Outcome)
		}
	}
	if exemplarOutcomes[pipeline.OutcomeBlock] == 0 {
		t.Errorf("no histogram exemplar resolves to a block trace (exemplar outcomes: %v)", exemplarOutcomes)
	}

	// 9. The audit journal agrees with the pipeline's final state.
	// Capture that state, then shut the daemon down — Shutdown drains
	// and flushes the journal to disk.
	blockedNodes := map[int64]bool{}
	for _, e := range p.Blocklist().Snapshot() {
		blockedNodes[int64(e.Node)] = true
	}
	alarmedVictims := map[int64]bool{}
	for _, v := range p.Victims() {
		if p.AlarmLatched(v) {
			alarmedVictims[int64(v)] = true
		}
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if dropped := j.Dropped(); dropped != 0 {
		t.Fatalf("journal shed %d events; the audit trail is incomplete", dropped)
	}
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	journalBlocks := map[int64]bool{}
	journalAlarms := map[int64]bool{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var ev pipeline.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case pipeline.EventBlock:
			if journalBlocks[ev.Source] {
				t.Errorf("source %d block-journaled twice", ev.Source)
			}
			journalBlocks[ev.Source] = true
			if len(ev.Top) == 0 || ev.Count <= blockThreshold {
				t.Errorf("block event missing evidence: %+v", ev)
			}
		case pipeline.EventAlarm:
			if journalAlarms[ev.Victim] {
				t.Errorf("victim %d alarm-journaled twice", ev.Victim)
			}
			journalAlarms[ev.Victim] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(journalBlocks, blockedNodes) {
		t.Errorf("journal block events %v != blocklist %v", keysOf(journalBlocks), keysOf(blockedNodes))
	}
	if !reflect.DeepEqual(journalAlarms, alarmedVictims) {
		t.Errorf("journal alarm events %v != latched victims %v", keysOf(journalAlarms), keysOf(alarmedVictims))
	}
	if len(journalBlocks) == 0 || len(journalAlarms) == 0 {
		t.Error("chaos run raised no audited alarms/blocks — scenario too weak to exercise the journal")
	}
}

func keysOf(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
