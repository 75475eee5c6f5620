package detect

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/stats"
)

// CUSUM is the sequential change-point detector used for SYN-flood
// detection in the literature (Wang–Zhang–Shin style): per window of
// traffic it accumulates g ← max(0, g + x − (μ̂ + Slack)), where μ̂ is
// an EWMA baseline of the windowed count learned during quiet periods,
// and alarms when g exceeds Threshold. Compared to a plain rate
// threshold it reacts to *sustained* small shifts (low-and-slow floods)
// while absorbing single bursty windows.
type CUSUM struct {
	alarm
	Window    eventq.Time
	Slack     float64 // tolerated per-window excess over the baseline
	Threshold float64 // cumulative excess that triggers the alarm

	base     *stats.EWMA
	g        float64
	winStart eventq.Time
	winCount int64
	trained  int
}

// NewCUSUM builds the detector; all parameters must be positive.
func NewCUSUM(window eventq.Time, slack, threshold float64) *CUSUM {
	if window <= 0 || slack <= 0 || threshold <= 0 {
		panic(fmt.Sprintf("detect: bad CUSUM spec window=%d slack=%v threshold=%v", window, slack, threshold))
	}
	return &CUSUM{Window: window, Slack: slack, Threshold: threshold, base: stats.NewEWMA(0.3)}
}

func (d *CUSUM) Name() string { return "cusum" }

// Observe is ObserveBatch of one packet.
func (d *CUSUM) Observe(now eventq.Time, _ *packet.Packet) {
	d.ObserveBatch([]eventq.Time{now})
}

// ObserveBatch feeds the arrival ticks of a run of packets, in order,
// and returns the index of the packet whose arrival raised the alarm, or
// -1 when none did.
func (d *CUSUM) ObserveBatch(ts []eventq.Time) int {
	at := -1
	for i, now := range ts {
		if now-d.winStart >= d.Window {
			fired := d.fired
			for now-d.winStart >= d.Window {
				d.closeWindow()
			}
			if !fired && d.fired {
				at = i
			}
		}
		d.winCount++
	}
	return at
}

func (d *CUSUM) closeWindow() {
	x := float64(d.winCount)
	d.winCount = 0
	d.winStart += d.Window
	if d.trained < 2 {
		// Train the baseline on the first quiet windows.
		d.base.Update(x)
		d.trained++
		return
	}
	d.g += x - (d.base.Value() + d.Slack)
	if d.g < 0 {
		d.g = 0
	}
	if d.g > d.Threshold {
		d.raise(d.winStart)
		return
	}
	// Only quiet windows update the baseline, so the attack itself
	// cannot drag μ̂ upward and mask itself.
	if x <= d.base.Value()+d.Slack {
		d.base.Update(x)
	}
}
