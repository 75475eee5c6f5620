// Package detect provides the DDoS detection substrate the paper
// assumes exists (§6.1: "we assumed there exists an efficient DDoS
// detection method in cluster interconnects"). Three victim-NIC
// detectors are implemented so end-to-end experiments can run the whole
// detect → identify → block pipeline:
//
//   - RateDetector: windowed packet-rate threshold with EWMA baseline
//   - EntropyDetector: source-address entropy anomaly (random spoofing
//     inflates entropy, fixed spoofing collapses it)
//   - SYNTable: half-open connection counting for SYN floods, the
//     paper's §1 example ("as many TCP half-open connections as the
//     victim host is limited to receive")
//
// Detectors see only header fields, never simulator ground truth.
package detect

import (
	"fmt"
	"math"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/stats"
)

// Detector consumes the victim's delivered packets and raises an alarm.
type Detector interface {
	Name() string
	// Observe processes one delivered packet.
	Observe(now eventq.Time, pk *packet.Packet)
	// Alarmed reports whether the detector has fired; AlarmedAt returns
	// the time of the first alarm (valid only when Alarmed).
	Alarmed() bool
	AlarmedAt() eventq.Time
}

type alarm struct {
	fired bool
	at    eventq.Time
}

func (a *alarm) raise(now eventq.Time) {
	if !a.fired {
		a.fired = true
		a.at = now
	}
}

func (a *alarm) Alarmed() bool          { return a.fired }
func (a *alarm) AlarmedAt() eventq.Time { return a.at }

// RateDetector alarms when a window's packet count exceeds Factor times
// the EWMA baseline of previous windows (and an absolute floor, so an
// idle victim does not alarm on its first busy window).
type RateDetector struct {
	alarm
	Window   eventq.Time
	Factor   float64
	MinCount int64

	base      *stats.EWMA
	winStart  eventq.Time
	winCount  int64
	windowsOK int
}

// NewRateDetector builds a detector; window must be positive.
func NewRateDetector(window eventq.Time, factor float64, minCount int64) *RateDetector {
	if window <= 0 || factor <= 1 {
		panic(fmt.Sprintf("detect: bad rate detector spec window=%d factor=%v", window, factor))
	}
	return &RateDetector{Window: window, Factor: factor, MinCount: minCount, base: stats.NewEWMA(0.3)}
}

func (d *RateDetector) Name() string { return "rate" }

func (d *RateDetector) Observe(now eventq.Time, _ *packet.Packet) {
	for now-d.winStart >= d.Window {
		d.closeWindow()
	}
	d.winCount++
}

func (d *RateDetector) closeWindow() {
	count := d.winCount
	d.winCount = 0
	d.winStart += d.Window
	if d.windowsOK >= 1 && float64(count) > d.Factor*d.base.Value() && count >= d.MinCount {
		d.raise(d.winStart)
		return
	}
	d.base.Update(float64(count))
	d.windowsOK++
}

// EntropyDetector alarms when the windowed source-address entropy
// deviates from its EWMA baseline by more than Delta bits in either
// direction.
type EntropyDetector struct {
	alarm
	Window eventq.Time
	Delta  float64

	base      *stats.EWMA
	winStart  eventq.Time
	counts    stats.Tally // the open window's sources
	windowsOK int
}

// NewEntropyDetector builds the detector.
func NewEntropyDetector(window eventq.Time, delta float64) *EntropyDetector {
	if window <= 0 || delta <= 0 {
		panic(fmt.Sprintf("detect: bad entropy detector spec window=%d delta=%v", window, delta))
	}
	return &EntropyDetector{
		Window: window,
		Delta:  delta,
		base:   stats.NewEWMA(0.3),
		counts: stats.NewTally(0),
	}
}

func (d *EntropyDetector) Name() string { return "entropy" }

// Observe is ObserveBatch of one packet.
func (d *EntropyDetector) Observe(now eventq.Time, pk *packet.Packet) {
	d.ObserveBatch([]eventq.Time{now}, []packet.Addr{pk.Hdr.Src})
}

// ObserveBatch feeds a run of packets in arrival order, ts[i] and
// srcs[i] being the i-th one's tick and source, and returns the index of
// the packet whose arrival raised the alarm, or -1 when none did.
func (d *EntropyDetector) ObserveBatch(ts []eventq.Time, srcs []packet.Addr) int {
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
		d.counts.Add(uint32(srcs[i]), 1)
	}
	return at
}

func (d *EntropyDetector) closeWindow() {
	h := d.counts.Entropy()
	n := d.counts.Total()
	d.counts.Reset()
	d.winStart += d.Window
	if n == 0 {
		return // empty window: keep the baseline
	}
	if d.windowsOK >= 2 && math.Abs(h-d.base.Value()) > d.Delta {
		d.raise(d.winStart)
		return
	}
	d.base.Update(h)
	d.windowsOK++
}

// SYNTable tracks half-open TCP connections per the paper's SYN-flood
// description: a SYN from address A opens an entry; a later non-SYN
// segment from A completes (removes) it; exceeding Capacity alarms.
// Entries also age out after Timeout ticks, modeling the victim OS
// reaping stale half-opens.
type SYNTable struct {
	alarm
	Capacity int
	Timeout  eventq.Time

	halfOpen map[packet.Addr]eventq.Time
}

// NewSYNTable builds the table.
func NewSYNTable(capacity int, timeout eventq.Time) *SYNTable {
	if capacity <= 0 || timeout <= 0 {
		panic(fmt.Sprintf("detect: bad SYN table spec cap=%d timeout=%d", capacity, timeout))
	}
	return &SYNTable{Capacity: capacity, Timeout: timeout, halfOpen: make(map[packet.Addr]eventq.Time)}
}

func (d *SYNTable) Name() string { return "syn-table" }

func (d *SYNTable) Observe(now eventq.Time, pk *packet.Packet) {
	// Reap stale half-opens first.
	for a, t0 := range d.halfOpen {
		if now-t0 > d.Timeout {
			delete(d.halfOpen, a)
		}
	}
	switch pk.Hdr.Proto {
	case packet.ProtoTCPSYN:
		d.halfOpen[pk.Hdr.Src] = now
		if len(d.halfOpen) >= d.Capacity {
			d.raise(now)
		}
	case packet.ProtoTCPACK:
		delete(d.halfOpen, pk.Hdr.Src)
	}
}

// Fanout combines several detectors behind one Observe call; it alarms
// when any member alarms.
type Fanout []Detector

func (f Fanout) Name() string { return "fanout" }

func (f Fanout) Observe(now eventq.Time, pk *packet.Packet) {
	for _, d := range f {
		d.Observe(now, pk)
	}
}

func (f Fanout) Alarmed() bool {
	for _, d := range f {
		if d.Alarmed() {
			return true
		}
	}
	return false
}

func (f Fanout) AlarmedAt() eventq.Time {
	var first eventq.Time
	found := false
	for _, d := range f {
		if d.Alarmed() && (!found || d.AlarmedAt() < first) {
			first = d.AlarmedAt()
			found = true
		}
	}
	return first
}
