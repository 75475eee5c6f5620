package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/eventq"
	"repro/internal/wire"
)

func TestDedupBurst(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []burstFrame
		count  uint64
		kept   [][2]int
		next   uint64
		gap    int
	}{
		{"empty burst", nil, 7, nil, 7, 0},
		{"all fresh, one range", []burstFrame{{0, 4}, {4, 4}, {8, 2}}, 0, [][2]int{{0, 10}}, 10, 3},
		{"whole-frame retransmit", []burstFrame{{0, 4}, {0, 4}, {4, 4}}, 0, [][2]int{{0, 4}, {8, 12}}, 8, 3},
		{"prefix retransmit ends mid-frame", []burstFrame{{3, 4}, {7, 2}}, 5, [][2]int{{2, 6}}, 9, 2},
		{"everything already accepted", []burstFrame{{0, 4}, {2, 2}}, 10, nil, 10, 2},
		{"empty frame", []burstFrame{{0, 2}, {2, 0}, {2, 2}}, 0, [][2]int{{0, 4}}, 4, 3},
		{"gap in the first frame", []burstFrame{{6, 4}}, 5, nil, 5, 0},
		{"gap in the third frame", []burstFrame{{0, 2}, {2, 2}, {5, 2}, {7, 2}}, 0, [][2]int{{0, 4}}, 4, 2},
		{"gap after an overlap", []burstFrame{{1, 3}, {5, 1}}, 2, [][2]int{{1, 3}}, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kept, next, gap := dedupBurst(tc.frames, tc.count, nil)
			if !reflect.DeepEqual(kept, tc.kept) || next != tc.next || gap != tc.gap {
				t.Errorf("dedupBurst = %v, %d, gap %d; want %v, %d, gap %d", kept, next, gap, tc.kept, tc.next, tc.gap)
			}
		})
	}
}

// FuzzSessionBurstDedup checks dedupBurst against the one-frame-at-a-time
// rule the session applied before bursts: each frame alone is refused
// past the count, and otherwise contributes its records at or above the
// count and advances the count to its end. Kept on a slab whose records
// carry their stream index, the survivors must also read count, count+1,
// … up to the new count — every record accepted exactly once, in order.
func FuzzSessionBurstDedup(f *testing.F) {
	f.Add(uint8(0), []byte{0, 4, 0, 4, 0xFC, 4, 3, 2}) // fresh, fresh, retransmit, gap
	f.Add(uint8(5), []byte{0xFE, 4, 1, 2})
	f.Fuzz(func(t *testing.T, start uint8, data []byte) {
		count := uint64(start)
		// Each byte pair is one frame: its seq as a signed offset from
		// where the previous frame ended, and its record count.
		var frames []burstFrame
		end := int64(count)
		for i := 0; i+1 < len(data) && len(frames) < 64; i += 2 {
			seq := max(0, end+int64(int8(data[i])))
			frames = append(frames, burstFrame{seq: uint64(seq), n: int(data[i+1] % 40)})
			end = seq + int64(data[i+1]%40)
		}

		var want [][2]int
		wantCount, wantGap, off := count, len(frames), 0
		for i, fr := range frames {
			if fr.seq > wantCount {
				wantGap = i
				break
			}
			for j := 0; j < fr.n; j++ {
				if fr.seq+uint64(j) >= wantCount {
					want = append(want, [2]int{off + j, off + j + 1})
				}
			}
			wantCount = max(wantCount, fr.seq+uint64(fr.n))
			off += fr.n
		}
		kept, gotCount, gotGap := dedupBurst(frames, count, nil)
		if gotCount != wantCount || gotGap != wantGap {
			t.Fatalf("count %d gap %d, want %d gap %d", gotCount, gotGap, wantCount, wantGap)
		}
		var got [][2]int
		for i, r := range kept {
			if r[0] >= r[1] || (i > 0 && r[0] <= kept[i-1][1]) {
				t.Fatalf("kept ranges %v not ascending, disjoint, non-empty and merged", kept)
			}
			for j := r[0]; j < r[1]; j++ {
				got = append(got, [2]int{j, j + 1})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kept %v, want one at a time %v", kept, want)
		}

		s := wire.NewSlabPool(1).Get()
		defer s.Release()
		for _, fr := range frames {
			for j := 0; j < fr.n; j++ {
				s.Append(wire.Record{T: eventq.Time(fr.seq) + eventq.Time(j)})
			}
		}
		if n := s.Keep(kept); uint64(n) != gotCount-count {
			t.Fatalf("kept %d records, count advanced by %d", n, gotCount-count)
		}
		for i, rec := range s.Recs {
			if uint64(rec.T) != count+uint64(i) {
				t.Fatalf("survivor %d has stream index %d, want %d", i, rec.T, count+uint64(i))
			}
		}
	})
}
