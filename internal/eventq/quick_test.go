package eventq

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestExecutionOrderMatchesStableSortQuick(t *testing.T) {
	// Property: for any schedule of timestamps, execution order equals
	// a stable sort by time (FIFO among equal times), and the clock is
	// monotone.
	f := func(stamps []uint16) bool {
		q := New()
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		q.SetHandler(handlerFunc(func(now Time, _ int32, i int64, _ any) { got = append(got, rec{at: now, idx: int(i)}) }))
		for i, s := range stamps {
			q.PostAt(Time(s%512), 0, int64(i), nil)
		}
		q.Drain(uint64(len(stamps)) + 1)
		if len(got) != len(stamps) {
			return false
		}
		want := make([]rec, len(stamps))
		for i, s := range stamps {
			want[i] = rec{at: Time(s % 512), idx: i}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		last := Time(-1)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			if got[i].at < last {
				return false
			}
			last = got[i].at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCancelSubsetQuick(t *testing.T) {
	// Property: cancelling any subset removes exactly those events.
	f := func(stamps []uint8, cancelMask []bool) bool {
		q := New()
		fired := map[int]bool{}
		q.SetHandler(handlerFunc(func(_ Time, _ int32, i int64, _ any) { fired[int(i)] = true }))
		var hs []Handle
		for i, s := range stamps {
			hs = append(hs, q.PostAt(Time(s), 0, int64(i), nil))
		}
		cancelled := map[int]bool{}
		for i, h := range hs {
			if i < len(cancelMask) && cancelMask[i] {
				h.Cancel()
				cancelled[i] = true
			}
		}
		q.Drain(uint64(len(stamps)) + 1)
		for i := range stamps {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
