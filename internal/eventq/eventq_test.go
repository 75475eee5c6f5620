package eventq

import (
	"testing"
)

// recordingQueue returns a queue whose handler logs every dispatch into r.
func recordingQueue() (*Queue, *recorder) {
	q, r := New(), &recorder{}
	q.SetHandler(r)
	return q, r
}

// payloads lists the a words of r's dispatches in firing order.
func (r *recorder) payloads() []int64 {
	out := make([]int64, len(r.events))
	for i, ev := range r.events {
		out[i] = ev.a
	}
	return out
}

func TestOrderingByTime(t *testing.T) {
	q, r := recordingQueue()
	q.PostAt(30, 0, 3, nil)
	q.PostAt(10, 0, 1, nil)
	q.PostAt(20, 0, 2, nil)
	q.Drain(100)
	if got := r.payloads(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order %v, want [1 2 3]", got)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %d, want 30", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	q, r := recordingQueue()
	for i := 0; i < 10; i++ {
		q.PostAt(5, int32(i%3), int64(i), nil) // kinds interleave; order is insertion only
	}
	q.Drain(100)
	for i, v := range r.payloads() {
		if v != int64(i) {
			t.Fatalf("same-time events ran out of insertion order: %v", r.payloads())
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	q, r := recordingQueue()
	q.PostAt(42, 0, 0, nil)
	q.Step()
	if at := r.events[0].now; at != 42 || q.Now() != 42 {
		t.Errorf("event saw time %d, queue at %d; want 42", at, q.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	q, _ := recordingQueue()
	q.PostAt(10, 0, 0, nil)
	q.Step()
	defer func() {
		if recover() == nil {
			t.Error("PostAt(5) at now=10 did not panic")
		}
	}()
	q.PostAt(5, 0, 0, nil)
}

func TestRunHorizonExclusive(t *testing.T) {
	q, r := recordingQueue()
	for _, at := range []Time{5, 10, 15, 20} {
		q.PostAt(at, 0, 0, nil)
	}
	n := q.Run(15)
	if n != 2 {
		t.Errorf("Run(15) executed %d events, want 2 (horizon exclusive)", n)
	}
	if q.Now() != 15 {
		t.Errorf("Now = %d, want 15 after Run(15)", q.Now())
	}
	n = q.Run(100)
	if n != 2 {
		t.Errorf("second Run executed %d, want 2", n)
	}
	if len(r.events) != 4 {
		t.Errorf("events fired: %+v", r.events)
	}
}

func TestRunAdvancesClockOnEmptyQueue(t *testing.T) {
	q := New()
	q.Run(50)
	if q.Now() != 50 {
		t.Errorf("Now = %d, want 50", q.Now())
	}
}

func TestSelfRescheduling(t *testing.T) {
	q := New()
	count := 0
	q.SetHandler(handlerFunc(func(Time, int32, int64, any) {
		count++
		if count < 10 {
			q.PostAt(q.Now()+3, 0, 0, nil)
		}
	}))
	q.PostAt(3, 0, 0, nil)
	q.Drain(1000)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %d, want 30", q.Now())
	}
}

func TestDrainRunawayGuard(t *testing.T) {
	q := New()
	q.SetHandler(handlerFunc(func(now Time, _ int32, _ int64, _ any) { q.PostAt(now+1, 0, 0, nil) }))
	q.PostAt(1, 0, 0, nil)
	defer func() {
		if recover() == nil {
			t.Error("runaway Drain did not panic")
		}
	}()
	q.Drain(100)
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	q, _ := recordingQueue()
	if q.Step() {
		t.Error("Step on empty queue returned true")
	}
	q.PostAt(1, 0, 0, nil)
	if !q.Step() || q.Step() {
		t.Error("Step did not run the one posted event and then report the queue empty")
	}
}
