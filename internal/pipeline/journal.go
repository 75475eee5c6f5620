package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Journal event types. One JSONL line per event; the schema is the
// Event struct below (DESIGN.md §9.2).
const (
	EventAlarm         = "alarm_raised"   // a victim's detector fired
	EventBlock         = "source_blocked" // auto-block insertion, with top-k evidence
	EventBlockExpired  = "block_expired"  // a TTL block aged out
	EventVictimExpired = "victim_expired" // an idle victim's exact state was swept back to sketch-only
	EventResync        = "stream_resync"  // lenient stream skipped to the next magic
	EventSessionLoss   = "session_loss"   // a strict exporter session conn was dropped

	// Cluster-op events (DESIGN.md §14): fleet state transitions leave
	// audit lines with the ring version + member set in Detail.
	EventRingChange     = "ring_change"        // ownership ring rebuilt for a new alive set
	EventGossipRound    = "gossip_round"       // periodic anti-entropy summary (sampled, not per-round)
	EventVictimDetached = "victim_detached"    // a departing victim's exact state was detached for handback
	EventHandbackShip   = "handback_shipped"   // cumulative snapshot shipped to the new owner
	EventHandbackRecv   = "handback_received"  // snapshot received and seeded from an interim owner
	EventTakeover       = "takeover_seeded"    // stored replica seeded on owner takeover
	EventGateAdmit      = "forward_gate_admit" // fwGate opened the forward path for a victim
	EventTraceDowngrade = "trace_downgraded"   // a forward peer did not echo the trace flag; contexts shed
)

// SourceCount pairs an identified source with its tally — the per-
// victim evidence attached to block events and /victims reports.
type SourceCount struct {
	Node  int64 `json:"node"`
	Count int64 `json:"count"`
}

// Event is one attack-audit journal line. Victim and Source are -1
// when the event has none (stream-level events); Until follows the
// blocklist convention (0 = permanent).
type Event struct {
	T      int64         `json:"t_unix_nano"`
	Type   string        `json:"type"`
	Victim int64         `json:"victim"`
	Source int64         `json:"source"`
	Count  int64         `json:"count,omitempty"`           // identification tally at block time
	Until  int64         `json:"until_unix_nano,omitempty"` // block expiry
	Top    []SourceCount `json:"top_sources,omitempty"`     // evidence at block time
	Stream uint64        `json:"stream,omitempty"`          // exporter stream id
	Detail string        `json:"detail,omitempty"`
}

// Journal is a bounded, asynchronous, drop-counting JSONL writer for
// attack-audit events. Emit never blocks the hot path: events are
// handed to a background writer over a bounded channel, and when that
// queue is full the event is counted dropped instead of stalling a
// shard worker — the same shed-don't-stall policy as the ingest queues
// (an audit log that can wedge the detector under flood would be its
// own DoS amplifier).
//
// Close flushes everything queued and, for journals opened with
// OpenJournal, closes the underlying file; the daemon calls it on the
// SIGTERM drain path after the pipeline has emptied its queues.
type Journal struct {
	mu     sync.RWMutex // guards closed vs. Emit's channel send
	closed bool
	ch     chan Event
	done   chan struct{}

	bw     *bufio.Writer
	closer io.Closer // nil unless the journal owns the sink

	written   atomic.Uint64
	dropped   atomic.Uint64
	writeErrs atomic.Uint64
}

// NewJournal starts a journal writing JSONL to w with the given queue
// depth (default 1024 for depth <= 0). The caller keeps ownership of w
// but must not write to it until Close returns.
func NewJournal(w io.Writer, depth int) *Journal {
	if depth <= 0 {
		depth = 1024
	}
	j := &Journal{
		ch:   make(chan Event, depth),
		done: make(chan struct{}),
		bw:   bufio.NewWriter(w),
	}
	go j.writeLoop()
	return j
}

// OpenJournal creates (or truncates) a journal file at path. The
// journal owns the file and closes it in Close.
func OpenJournal(path string, depth int) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: journal: %w", err)
	}
	j := NewJournal(f, depth)
	j.closer = f
	return j, nil
}

func (j *Journal) writeLoop() {
	defer close(j.done)
	enc := json.NewEncoder(j.bw)
	for ev := range j.ch {
		if err := enc.Encode(ev); err != nil {
			j.writeErrs.Add(1)
			continue
		}
		j.written.Add(1)
	}
	if err := j.bw.Flush(); err != nil {
		j.writeErrs.Add(1)
	}
}

// Emit queues one event without blocking. It reports false when the
// event was dropped — queue full or journal closed — with the loss
// visible in Dropped.
func (j *Journal) Emit(ev Event) bool {
	j.mu.RLock()
	defer j.mu.RUnlock()
	if j.closed {
		j.dropped.Add(1)
		return false
	}
	select {
	case j.ch <- ev:
		return true
	default:
		j.dropped.Add(1)
		return false
	}
}

// Written and Dropped report how many events reached the sink and how
// many were shed; Close reports how many encodes or the final flush
// failed.
func (j *Journal) Written() uint64 { return j.written.Load() }
func (j *Journal) Dropped() uint64 { return j.dropped.Load() }

// Close drains the queue, flushes the buffered writer and closes the
// file when the journal owns one. Safe to call more than once; Emit
// after Close counts the event dropped.
func (j *Journal) Close() error {
	j.mu.Lock()
	already := j.closed
	j.closed = true
	if !already {
		close(j.ch)
	}
	j.mu.Unlock()
	<-j.done
	var err error
	if j.writeErrs.Load() > 0 {
		err = fmt.Errorf("pipeline: journal: %d events failed to encode or flush", j.writeErrs.Load())
	}
	if j.closer != nil {
		cerr := j.closer.Close()
		j.closer = nil
		if err == nil {
			err = cerr
		}
	}
	return err
}
