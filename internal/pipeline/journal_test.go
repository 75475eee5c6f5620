package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/topology"
	"repro/internal/wire"
)

// decodeEvents parses a JSONL journal body.
func decodeEvents(t *testing.T, data []byte) []Event {
	t.Helper()
	var out []Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJournalWritesJSONLAndCloseFlushes(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, 16)
	if !j.Emit(Event{T: 1, Type: EventAlarm, Victim: 7, Source: -1, Detail: "cusum"}) {
		t.Fatal("emit shed with an empty queue")
	}
	if !j.Emit(Event{T: 2, Type: EventBlock, Victim: 7, Source: 3, Count: 101, Until: 99,
		Top: []SourceCount{{Node: 3, Count: 101}}}) {
		t.Fatal("emit shed with an empty queue")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	evs := decodeEvents(t, buf.Bytes())
	if len(evs) != 2 {
		t.Fatalf("journal holds %d events, want 2:\n%s", len(evs), buf.String())
	}
	if evs[0].Type != EventAlarm || evs[0].Victim != 7 || evs[0].Source != -1 {
		t.Errorf("alarm event = %+v", evs[0])
	}
	if evs[1].Type != EventBlock || evs[1].Source != 3 || len(evs[1].Top) != 1 || evs[1].Top[0].Count != 101 {
		t.Errorf("block event = %+v", evs[1])
	}
	if j.Written() != 2 || j.Dropped() != 0 {
		t.Errorf("written=%d dropped=%d, want 2 and 0", j.Written(), j.Dropped())
	}
	// Close again is a no-op; Emit after Close is counted, not a panic.
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if j.Emit(Event{Type: EventAlarm}) {
		t.Error("emit after close reported success")
	}
	if j.Dropped() != 1 {
		t.Errorf("post-close dropped = %d, want 1", j.Dropped())
	}
}

// gateWriter blocks every Write until released — it wedges the journal's
// writer goroutine so the bounded queue visibly sheds.
type gateWriter struct {
	gate     chan struct{}
	released atomic.Bool
	buf      bytes.Buffer
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if !g.released.Load() {
		<-g.gate
	}
	return g.buf.Write(p)
}

func TestJournalBoundedQueueDropsInsteadOfBlocking(t *testing.T) {
	g := &gateWriter{gate: make(chan struct{})}
	j := NewJournal(g, 1)
	// Big events defeat the bufio buffer quickly, so the write loop ends
	// up blocked in g.Write while the depth-1 channel fills. Every Emit
	// must return immediately either way — that's the contract.
	pad := strings.Repeat("x", 4096)
	const total = 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			j.Emit(Event{T: int64(i), Type: EventResync, Victim: -1, Source: -1, Detail: pad})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a wedged journal writer")
	}
	g.released.Store(true)
	close(g.gate)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if j.Dropped() == 0 {
		t.Error("no events shed despite a wedged writer and depth-1 queue")
	}
	if j.Written()+j.Dropped() != total {
		t.Errorf("written %d + dropped %d != emitted %d", j.Written(), j.Dropped(), total)
	}
	if got := uint64(len(decodeEvents(t, g.buf.Bytes()))); got != j.Written() {
		t.Errorf("sink holds %d events, counter says %d", got, j.Written())
	}
}

func TestOpenJournalOwnsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{T: 1, Type: EventBlockExpired, Victim: -1, Source: 4, Until: 5})
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs := decodeEvents(t, data)
	if len(evs) != 1 || evs[0].Type != EventBlockExpired || evs[0].Source != 4 {
		t.Fatalf("journal file = %+v", evs)
	}
}

// TestJournalAuditTrailMatchesPipelineState drives a deterministic
// flood on a fake clock and checks the journal tells the same story as
// the pipeline: one alarm for the latched victim, block events exactly
// matching the blocklist, and an expiry once the TTL lapses.
func TestJournalAuditTrailMatchesPipelineState(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, 1<<12)
	net := topology.NewTorus2D(4)
	victim := topology.NodeID(15)
	zombie := topology.NodeID(5)

	var clock atomic.Int64
	p, err := New(Config{
		Net: net, Shards: 1, QueueLen: 8192,
		CUSUMWindow: 100, CUSUMSlack: 2, CUSUMThreshold: 20,
		EntropyWindow:  -1,
		BlockThreshold: 50, BlockTTL: time.Second,
		Now:     func() int64 { return clock.Load() },
		Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	zmf := mkMF(t, net, zombie, victim)
	// Quiet baseline windows from seven legitimate sources — more than
	// the evidence carries — then a 1-record/tick flood from the zombie.
	var lmfs []uint16
	for _, src := range []topology.NodeID{9, 0, 1, 2, 3, 6, 7} {
		lmfs = append(lmfs, mkMF(t, net, src, victim))
	}
	now := eventq.Time(0)
	for i := 0; now < 500; now, i = now+25, i+1 {
		submitWait(t, p, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: lmfs[i%len(lmfs)]})
	}
	for ; now < 2500; now++ {
		submitWait(t, p, wire.Record{T: now, Topo: p.TopoID(), Victim: victim, MF: zmf})
	}
	waitProcessed(t, p)
	if !p.AlarmLatched(victim) {
		t.Fatal("flood never latched the alarm")
	}
	// TTL lapse: Snapshot prunes and journals the expiry.
	clock.Add(2 * time.Second.Nanoseconds())
	if n := p.Snapshot().ActiveBlocks; n != 0 {
		t.Fatalf("active blocks after TTL = %d, want 0", n)
	}
	p.Close()
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	if j.Dropped() != 0 {
		t.Fatalf("journal shed %d events with an oversized queue", j.Dropped())
	}

	var alarms, blocks, expiries []Event
	for _, ev := range decodeEvents(t, buf.Bytes()) {
		switch ev.Type {
		case EventAlarm:
			alarms = append(alarms, ev)
		case EventBlock:
			blocks = append(blocks, ev)
		case EventBlockExpired:
			expiries = append(expiries, ev)
		}
	}
	if len(alarms) != 1 || alarms[0].Victim != int64(victim) || alarms[0].Detail != "cusum" {
		t.Errorf("alarm events = %+v, want one cusum alarm for victim %d", alarms, victim)
	}
	if len(blocks) != 1 || blocks[0].Source != int64(zombie) || blocks[0].Victim != int64(victim) {
		t.Fatalf("block events = %+v, want one for source %d", blocks, zombie)
	}
	if blocks[0].Count <= 50 || blocks[0].Until == 0 {
		t.Errorf("block event evidence missing: %+v", blocks[0])
	}
	if top := blocks[0].Top; len(top) != 5 || top[0].Node != int64(zombie) {
		t.Errorf("block top-k = %+v, want the top 5 of 8 sources, %d first", top, zombie)
	}
	if len(expiries) != 1 || expiries[0].Source != int64(zombie) {
		t.Errorf("expiry events = %+v, want one for source %d", expiries, zombie)
	}
}
