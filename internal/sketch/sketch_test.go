package sketch

import (
	"slices"
	"testing"
)

func TestCountMinNeverUndercounts(t *testing.T) {
	cm := NewCountMin(1<<10, 4)
	truth := map[uint64]uint32{}
	// Skewed stream: a few hot keys over a wide cold tail.
	for i := 0; i < 20000; i++ {
		key := uint64(i % 997)
		if i%3 == 0 {
			key = uint64(i % 7) // hot subset
		}
		cm.Add(key)
		truth[key]++
	}
	// Add returns the estimate including the occurrence it counts.
	for key, want := range truth {
		if got := cm.Add(key) - 1; got < want {
			t.Fatalf("key %d: estimate %d < true count %d", key, got, want)
		}
	}
	if got := cm.Add(1<<40) - 1; got > 64 {
		t.Fatalf("never-seen key estimated at %d", got)
	}
}

func TestCountMinHalve(t *testing.T) {
	cm := NewCountMin(64, 2)
	for i := 0; i < 99; i++ {
		cm.Add(42)
	}
	before := cm.Add(42)
	cm.Halve()
	if got := cm.Add(42) - 1; got != before/2 {
		t.Fatalf("after Halve: estimate %d, want %d", got, before/2)
	}
}

func TestCountMinWidthRounding(t *testing.T) {
	cm := NewCountMin(1000, 3)
	if cm.mask+1 != 1024 {
		t.Fatalf("width %d, want 1024", cm.mask+1)
	}
	if cm.Bytes() != 1024*3*4 {
		t.Fatalf("Bytes %d", cm.Bytes())
	}
}

func TestSpaceSavingTracksHeavyHitters(t *testing.T) {
	cm := NewCountMin(1<<12, 4)
	ss := NewSpaceSaving[int](8, 4)
	// 4 heavy keys (1000 each) interleaved with 10k one-shot keys.
	heavy := []uint64{100, 200, 300, 400}
	hi, cold := 0, uint64(1_000_000)
	for i := 0; i < 4000+10000; i++ {
		var key uint64
		if i%14 < 4 {
			key = heavy[hi%4]
			hi++
		} else {
			key = cold
			cold++
		}
		ss.Touch(key, cm.Add(key), i)
	}
	for _, h := range heavy {
		s := ss.Get(h)
		if s == nil {
			t.Fatalf("heavy key %d not tracked", h)
		}
		if g := s.Guaranteed(); g < 900 {
			t.Fatalf("heavy key %d: guaranteed %d, want ~1000", h, g)
		}
		if len(s.Buf) != 4 {
			t.Fatalf("heavy key %d: buffer %d items, cap 4", h, len(s.Buf))
		}
	}
}

func TestSpaceSavingScanDoesNotChurn(t *testing.T) {
	// A sweep of distinct keys over a full table must not evict
	// established slots: every newcomer's estimate equals the minimum,
	// never exceeds it.
	cm := NewCountMin(1<<14, 4)
	ss := NewSpaceSaving[int](4, 0)
	for k := uint64(0); k < 4; k++ {
		for i := 0; i < 10; i++ {
			ss.Touch(k, cm.Add(k), 0)
		}
	}
	for k := uint64(1000); k < 6000; k++ {
		if s := ss.Touch(k, cm.Add(k), 0); s != nil {
			t.Fatalf("one-shot key %d evicted an established slot", k)
		}
	}
	for k := uint64(0); k < 4; k++ {
		if ss.Get(k) == nil {
			t.Fatalf("established key %d lost to the scan", k)
		}
	}
}

func TestSpaceSavingEvictionInheritsError(t *testing.T) {
	cm := NewCountMin(1<<12, 4)
	ss := NewSpaceSaving[int](2, 8)
	for i := 0; i < 5; i++ {
		ss.Touch(1, cm.Add(1), i)
	}
	for i := 0; i < 3; i++ {
		ss.Touch(2, cm.Add(2), i)
	}
	// Key 3 overtakes key 2 (count 3) once its estimate exceeds it; the
	// three touches turned away before that are still in the missed ring.
	var s *Slot[int]
	for i := 0; i < 4; i++ {
		s = ss.Touch(3, cm.Add(3), i)
	}
	if s == nil {
		t.Fatal("key 3 never evicted the minimum slot")
	}
	if s.Key != 3 || s.Errs != 3 || s.Count != 7 {
		t.Fatalf("evicted slot = %+v, want Key 3 Errs 3 Count 7", *s)
	}
	if s.Guaranteed() != 4 {
		t.Fatalf("Guaranteed %d, want 4 (the crossing touch and the three recovered)", s.Guaranteed())
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(s.Buf, want) {
		t.Fatalf("replay buffer %v after eviction, want %v (key 2's items gone, key 3's in order)", s.Buf, want)
	}
	if ss.Get(2) != nil {
		t.Fatal("evicted key 2 still tracked")
	}
}

func TestSpaceSavingRemove(t *testing.T) {
	cm := NewCountMin(1<<10, 2)
	ss := NewSpaceSaving[int](4, 2)
	for k := uint64(1); k <= 4; k++ {
		ss.Touch(k, cm.Add(k), int(k))
	}
	if !ss.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if ss.Remove(2) {
		t.Fatal("double Remove(2) = true")
	}
	if ss.Len() != 3 {
		t.Fatalf("Len %d, want 3", ss.Len())
	}
	for _, k := range []uint64{1, 3, 4} {
		if ss.Get(k) == nil {
			t.Fatalf("key %d lost after unrelated Remove", k)
		}
	}
	// The freed capacity is reusable.
	if s := ss.Touch(9, 1, 9); s == nil || s.Key != 9 {
		t.Fatal("freed slot not reusable")
	}
}

// TestSpaceSavingReinsertReusesBuffer: a slot Remove freed keeps its
// replay buffer, and the next insert takes it instead of allocating —
// the path every Gate.Admit and every slot Halve drops goes through.
func TestSpaceSavingReinsertReusesBuffer(t *testing.T) {
	ss := NewSpaceSaving[int](4, 64)
	for k := uint64(1); k <= 4; k++ {
		ss.Touch(k, 1, int(k))
	}
	allocs := testing.AllocsPerRun(100, func() {
		ss.Remove(2)
		if s := ss.Touch(2, 1, 2); s == nil || s.Count != 1 || s.Errs != 0 || !slices.Equal(s.Buf, []int{2}) {
			t.Fatalf("re-inserted slot = %+v, want Key 2 Count 1 Errs 0 Buf [2]", s)
		}
	})
	if allocs != 0 {
		t.Fatalf("Remove then re-insert: %v allocations per round, want 0", allocs)
	}
}

func TestSpaceSavingHalveDropsCold(t *testing.T) {
	cm := NewCountMin(1<<10, 2)
	ss := NewSpaceSaving[int](4, 0)
	for i := 0; i < 8; i++ {
		ss.Touch(1, cm.Add(1), 0)
	}
	ss.Touch(2, cm.Add(2), 0) // count 1 → halves to 0
	ss.Halve()
	if ss.Get(2) != nil {
		t.Fatal("cold key survived Halve")
	}
	s := ss.Get(1)
	if s == nil || s.Count != 4 {
		t.Fatalf("hot key after Halve = %+v, want Count 4", s)
	}
}
