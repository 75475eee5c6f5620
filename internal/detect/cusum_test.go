package detect

import (
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
)

func feedWindows(d Detector, startWindow int, window eventq.Time, perWindow []int) {
	for w, count := range perWindow {
		base := eventq.Time(startWindow+w) * window
		for i := 0; i < count; i++ {
			d.Observe(base+eventq.Time(i)%window, pkt(1, packet.ProtoRaw))
		}
	}
}

func TestCUSUMDetectsSustainedShift(t *testing.T) {
	d := NewCUSUM(100, 5, 30)
	// Baseline ≈ 10/window, then a sustained shift to 25/window —
	// under a 3x rate threshold but clearly anomalous cumulatively.
	quiet := []int{10, 10, 11, 9, 10, 10}
	feedWindows(d, 0, 100, quiet)
	if d.Alarmed() {
		t.Fatal("alarmed on baseline")
	}
	flood := []int{25, 25, 25, 25, 25}
	feedWindows(d, len(quiet), 100, flood)
	d.Observe(eventq.Time(len(quiet)+len(flood)+1)*100, pkt(1, packet.ProtoRaw))
	if !d.Alarmed() {
		t.Fatalf("CUSUM missed a sustained 2.5x shift (g=%v)", d.g)
	}
}

func TestCUSUMAbsorbsSingleBurst(t *testing.T) {
	d := NewCUSUM(100, 5, 100)
	quiet := []int{10, 10, 10, 10}
	feedWindows(d, 0, 100, quiet)
	// One 40-packet window, then quiet again: g rises then drains.
	feedWindows(d, 4, 100, []int{40, 10, 10, 10, 10, 10})
	d.Observe(11*100, pkt(1, packet.ProtoRaw))
	if d.Alarmed() {
		t.Errorf("CUSUM alarmed on a single burst (g=%v)", d.g)
	}
	if d.g > 30 {
		t.Errorf("g did not drain after the burst: %v", d.g)
	}
}

func TestCUSUMBaselineNotPoisonedByAttack(t *testing.T) {
	d := NewCUSUM(100, 5, 1e9) // huge threshold: never alarms
	feedWindows(d, 0, 100, []int{10, 10, 10})
	feedWindows(d, 3, 100, []int{100, 100, 100, 100})
	// After the "attack", g must have grown roughly 4×(100−15): the
	// baseline stayed near 10 instead of chasing the flood.
	d.Observe(8*100, pkt(1, packet.ProtoRaw))
	if d.g < 300 {
		t.Errorf("g = %v; baseline appears to have chased the attack", d.g)
	}
}

func TestCUSUMSpecValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewCUSUM(0, 1, 1) },
		func() { NewCUSUM(10, 0, 1) },
		func() { NewCUSUM(10, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad CUSUM spec accepted")
				}
			}()
			f()
		}()
	}
	if NewCUSUM(10, 1, 1).Name() != "cusum" {
		t.Error("bad name")
	}
}
