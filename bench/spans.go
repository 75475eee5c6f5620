package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around its own calls into
// the system: set-up steps, every Send, the drain wait, each gauge
// sample, each batch of calls in the layer walk.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_unix_nano"`
	End      int64  `json:"end_unix_nano"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil
// *spanLog records nothing, so call sites need no "is tracing on" test.
type spanLog struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(name string, parent int32) int32 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int32(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Workload: l.workload, Name: name, Start: time.Now().UnixNano()})
	return id
}

func (l *spanLog) end(id int32) {
	if l == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records a finished span.
func (l *spanLog) add(name string, parent int32, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := start.UnixNano()
	l.spans = append(l.spans, span{
		ID: int32(len(l.spans) + 1), Parent: parent, Workload: l.workload,
		Name: name, Start: s, End: s + d.Nanoseconds(),
	})
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans dumps every span as one JSON array.
func writeSpans(path string, logs []*spanLog) error {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
