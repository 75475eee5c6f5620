package detect

import (
	"math"
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/stats"
)

// refCUSUM and refEntropy are the per-record detectors the batch forms
// replaced, kept as the reference: one Observe per packet, and the
// entropy window counted into a stats.Counter (a Go map).
type refCUSUM struct {
	alarm
	window        eventq.Time
	slack, thresh float64
	base          *stats.EWMA
	g             float64
	winStart      eventq.Time
	winCount      int64
	trained       int
}

func (d *refCUSUM) observe(now eventq.Time) {
	for now-d.winStart >= d.window {
		x := float64(d.winCount)
		d.winCount = 0
		d.winStart += d.window
		if d.trained < 2 {
			d.base.Update(x)
			d.trained++
			continue
		}
		d.g += x - (d.base.Value() + d.slack)
		if d.g < 0 {
			d.g = 0
		}
		if d.g > d.thresh {
			d.raise(d.winStart)
			continue
		}
		if x <= d.base.Value()+d.slack {
			d.base.Update(x)
		}
	}
	d.winCount++
}

type refEntropy struct {
	alarm
	window    eventq.Time
	delta     float64
	base      *stats.EWMA
	winStart  eventq.Time
	counter   *stats.Counter[packet.Addr]
	windowsOK int
}

func (d *refEntropy) observe(now eventq.Time, src packet.Addr) {
	for now-d.winStart >= d.window {
		h, n := d.counter.Entropy(), d.counter.Total()
		d.counter.Reset()
		d.winStart += d.window
		if n == 0 {
			continue
		}
		if d.windowsOK >= 2 && math.Abs(h-d.base.Value()) > d.delta {
			d.raise(d.winStart)
			continue
		}
		d.base.Update(h)
		d.windowsOK++
	}
	d.counter.Add(src)
}

// seededFlood is a victim's arrival stream: a quiet baseline from a few
// true sources, then — for most seeds — a flood, randomly or fixedly
// spoofed, at a seeded rate, with the odd silent gap of whole windows.
func seededFlood(seed uint64, window eventq.Time) (ts []eventq.Time, srcs []packet.Addr) {
	r := rng.NewStream(seed)
	quiet := eventq.Time(4+r.Intn(8)) * window
	end := quiet + eventq.Time(6+r.Intn(10))*window
	rate := 2 + r.Intn(30) // flood records per 10 ticks
	spoof := r.Intn(3)     // 0: random, 1: one fixed address, 2: no flood
	for now := eventq.Time(0); now < end; now++ {
		if r.Intn(200) == 0 {
			now += eventq.Time(r.Intn(3)) * window // a silent stretch
		}
		if r.Intn(20) == 0 {
			ts, srcs = append(ts, now), append(srcs, packet.Addr(1+r.Intn(6)))
		}
		if now < quiet || spoof == 2 {
			continue
		}
		for k := 0; k < rate/10+boolInt(r.Intn(10) < rate%10); k++ {
			src := packet.Addr(0xFFFF_FF00)
			if spoof == 0 {
				src = packet.Addr(r.Uint64())
			}
			ts, srcs = append(ts, now), append(srcs, src)
		}
	}
	return ts, srcs
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBatchMatchesPerRecordReference: fed a seeded stream in seeded
// chunks, each batch detector alarms at the same instant as the
// per-record detector it replaced, names the record the reference first
// read alarmed after, and carries the same window state — the CUSUM's
// bit for bit, the entropy baseline within 1e-12 relative (the Go map
// summed its window in another order).
func TestBatchMatchesPerRecordReference(t *testing.T) {
	const window = 100
	var alarms [2]int
	for seed := uint64(1); seed <= 60; seed++ {
		ts, srcs := seededFlood(seed, window)
		cu, en := NewCUSUM(window, 4, 40), NewEntropyDetector(window, 1.5)
		rcu := &refCUSUM{window: window, slack: 4, thresh: 40, base: stats.NewEWMA(0.3)}
		ren := &refEntropy{window: window, delta: 1.5, base: stats.NewEWMA(0.3), counter: stats.NewCounter[packet.Addr]()}
		rCuAt, rEnAt := -1, -1 // the record after which each reference first read alarmed
		for i := range ts {
			rcu.observe(ts[i])
			ren.observe(ts[i], srcs[i])
			if rCuAt < 0 && rcu.fired {
				rCuAt = i
			}
			if rEnAt < 0 && ren.fired {
				rEnAt = i
			}
		}
		r := rng.NewStream(seed ^ 0xba7c4)
		cuAt, enAt := -1, -1
		for i := 0; i < len(ts); {
			n := min(1+r.Intn(300), len(ts)-i)
			if k := cu.ObserveBatch(ts[i : i+n]); k >= 0 {
				if cuAt >= 0 {
					t.Fatalf("seed %d: CUSUM reported a second first alarm at %d (first %d)", seed, i+k, cuAt)
				}
				cuAt = i + k
			}
			if k := en.ObserveBatch(ts[i:i+n], srcs[i:i+n]); k >= 0 {
				if enAt >= 0 {
					t.Fatalf("seed %d: entropy reported a second first alarm at %d (first %d)", seed, i+k, enAt)
				}
				enAt = i + k
			}
			i += n
		}
		if cuAt != rCuAt || cu.Alarmed() != rcu.fired || cu.AlarmedAt() != rcu.at {
			t.Errorf("seed %d: CUSUM alarm at record %d (%v, tick %d), reference %d (%v, tick %d)",
				seed, cuAt, cu.Alarmed(), cu.AlarmedAt(), rCuAt, rcu.fired, rcu.at)
		}
		if math.Float64bits(cu.base.Value()) != math.Float64bits(rcu.base.Value()) || math.Float64bits(cu.g) != math.Float64bits(rcu.g) ||
			cu.winStart != rcu.winStart || cu.winCount != rcu.winCount || cu.trained != rcu.trained {
			t.Errorf("seed %d: CUSUM state base %v g %v window %d+%d trained %d, reference %v %v %d+%d %d", seed,
				cu.base.Value(), cu.g, cu.winStart, cu.winCount, cu.trained, rcu.base.Value(), rcu.g, rcu.winStart, rcu.winCount, rcu.trained)
		}
		if enAt != rEnAt || en.Alarmed() != ren.fired || en.AlarmedAt() != ren.at {
			t.Errorf("seed %d: entropy alarm at record %d (%v, tick %d), reference %d (%v, tick %d)",
				seed, enAt, en.Alarmed(), en.AlarmedAt(), rEnAt, ren.fired, ren.at)
		}
		if got, want := en.base.Value(), ren.base.Value(); math.Abs(got-want) > 1e-12*math.Abs(want) ||
			en.winStart != ren.winStart || en.windowsOK != ren.windowsOK || en.counts.Total() != ren.counter.Total() {
			t.Errorf("seed %d: entropy baseline %v window %d ok %d open %d, reference %v %d %d %d", seed,
				got, en.winStart, en.windowsOK, en.counts.Total(), want, ren.winStart, ren.windowsOK, ren.counter.Total())
		}
		if cuAt >= 0 {
			alarms[0]++
		}
		if enAt >= 0 {
			alarms[1]++
		}
	}
	if alarms[0] < 10 || alarms[1] < 10 || alarms[0] == 60 || alarms[1] == 60 {
		t.Fatalf("alarms on %d (CUSUM) and %d (entropy) of 60 seeds: the streams must alarm and stay quiet for both", alarms[0], alarms[1])
	}
}

// TestEntropyWindowsReproduceBitForBit: two entropy detectors fed one
// seeded stream end every window on the same float64 baseline, bit for
// bit. A window summed in Go map order does not: the same 4 096 adds
// gave 15 distinct bit patterns in 50 runs.
func TestEntropyWindowsReproduceBitForBit(t *testing.T) {
	const window, perWindow = 1000, 4096
	a, b := NewEntropyDetector(window, 1.5), NewEntropyDetector(window, 1.5)
	r := rng.NewStream(7)
	var pk packet.Packet
	for w := 0; w < 40; w++ {
		for i := 0; i < perWindow; i++ {
			// Skewed over ~1 000 sources: many distinct terms per sum.
			pk.Hdr.Src = packet.Addr(r.Intn(1+r.Intn(1000)) * 7919)
			now := eventq.Time(w*window + i*window/perWindow)
			a.Observe(now, &pk)
			b.Observe(now, &pk)
		}
		if ga, gb := math.Float64bits(a.base.Value()), math.Float64bits(b.base.Value()); ga != gb {
			t.Fatalf("window %d: baselines %016x and %016x from one stream", w, ga, gb)
		}
	}
	if a.Alarmed() || a.base.Value() == 0 {
		t.Fatalf("alarmed %v, baseline %v: the stream must be steady and counted", a.Alarmed(), a.base.Value())
	}
}
