package eventq

import "testing"

// recorder collects typed-event dispatches for assertions.
type recorder struct {
	events []recorded
}

type recorded struct {
	now  Time
	kind int32
	a    int64
	p    any
}

func (r *recorder) HandleEvent(now Time, kind int32, a int64, p any) {
	r.events = append(r.events, recorded{now, kind, a, p})
}

func TestTypedEventsDispatchInOrder(t *testing.T) {
	q := New()
	r := &recorder{}
	q.SetHandler(r)
	payload := &recorded{}
	q.PostAt(30, 2, 300, nil)
	q.PostAt(10, 0, 100, payload)
	q.PostAt(20, 1, 200, nil)
	q.Drain(10)
	want := []recorded{{10, 0, 100, payload}, {20, 1, 200, nil}, {30, 2, 300, nil}}
	if len(r.events) != len(want) {
		t.Fatalf("got %d events, want %d", len(r.events), len(want))
	}
	for i, ev := range r.events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

type handlerFunc func(now Time, kind int32, a int64, p any)

func (f handlerFunc) HandleEvent(now Time, kind int32, a int64, p any) { f(now, kind, a, p) }

func TestNegativeKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PostAt with negative kind did not panic")
		}
	}()
	New().PostAt(1, -1, 0, nil)
}

func TestStaleHandleCannotCancelReusedSlot(t *testing.T) {
	q := New()
	r := &recorder{}
	q.SetHandler(r)
	h := q.PostAt(1, 0, 11, nil)
	if !q.Step() {
		t.Fatal("Step found no event")
	}
	// The slot is back on the freelist; the next post reuses it.
	q.PostAt(2, 0, 22, nil)
	h.Cancel() // stale: must not kill the new occupant
	q.Drain(10)
	if len(r.events) != 2 || r.events[1].a != 22 {
		t.Fatalf("reused-slot event lost to a stale cancel: %+v", r.events)
	}
}

func TestCancelledEventsDoNotCountTowardFired(t *testing.T) {
	q, r := recordingQueue()
	var handles []Handle
	for i := 0; i < 10; i++ {
		handles = append(handles, q.PostAfter(Time(i+1), 0, 0, nil))
	}
	for i, h := range handles {
		if i%2 == 0 {
			h.Cancel()
		}
	}
	q.Run(100)
	if fired := len(r.events); fired != 5 {
		t.Fatalf("dispatched %d events, want 5", fired)
	}
	if q.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5 (cancelled events must not count)", q.Fired())
	}
}

func TestSlotReuseKeepsOrderingDeterministic(t *testing.T) {
	// Heavy schedule/fire/reschedule churn through the freelist must
	// preserve (time, seq) FIFO order — the invariant the simulator's
	// determinism rests on.
	q := New()
	var got []int
	q.SetHandler(handlerFunc(func(now Time, _ int32, label int64, _ any) {
		got = append(got, int(label))
		if label < 100 {
			q.PostAt(now+1, 0, label+10, nil)
		}
	}))
	for i := 0; i < 10; i++ {
		q.PostAt(1, 0, int64(i), nil)
	}
	q.Drain(1000)
	for i := 1; i < len(got); i++ {
		// Same-time events must preserve posting order: labels at each
		// time step ascend.
		if got[i-1]/10 == got[i]/10 && got[i-1] >= got[i] {
			t.Fatalf("order violated at %d: %v", i, got)
		}
	}
}

// BenchmarkTypedPostStep measures the allocation-free hot path: post +
// dispatch of typed events through the freelist-backed heap.
func BenchmarkTypedPostStep(b *testing.B) {
	q := New()
	n := 0
	q.SetHandler(handlerFunc(func(Time, int32, int64, any) { n++ }))
	// Warm the slab so steady state is measured.
	for i := 0; i < 64; i++ {
		q.PostAfter(1, 0, 0, nil)
	}
	q.Drain(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PostAfter(1, 0, int64(i), nil)
		q.Step()
	}
}

// BenchmarkCancelHeavySchedule models a retransmission-timer workload:
// most scheduled events are cancelled before firing, so Run spends its
// time discarding dead items. This guards the lazy-deletion path.
func BenchmarkCancelHeavySchedule(b *testing.B) {
	q := New()
	q.SetHandler(handlerFunc(func(Time, int32, int64, any) {}))
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 64
	var handles [batch]Handle
	for i := 0; i < b.N; i++ {
		for j := range handles {
			handles[j] = q.PostAfter(Time(j%8+1), 0, int64(j), nil)
		}
		for j := range handles {
			if j%8 != 0 { // cancel 7 of every 8
				handles[j].Cancel()
			}
		}
		q.Run(q.Now() + 16)
	}
}
