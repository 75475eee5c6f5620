package detect

import (
	"testing"

	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

var plan = packet.NewAddrPlan(packet.DefaultBase, 64)

// pkt builds a delivered packet whose header source is node src.
func pkt(src int, proto packet.Proto) *packet.Packet {
	p := packet.NewPacket(plan, topology.NodeID(src), 1, proto, 0)
	return p
}

func TestRateDetectorFiresOnFlood(t *testing.T) {
	d := NewRateDetector(100, 3, 10)
	// Baseline: 5 packets per 100-tick window for 5 windows.
	now := eventq.Time(0)
	for w := 0; w < 5; w++ {
		for i := 0; i < 5; i++ {
			d.Observe(now, pkt(1, packet.ProtoRaw))
			now += 20
		}
	}
	if d.Alarmed() {
		t.Fatal("alarmed on baseline traffic")
	}
	// Flood: 100 packets in one window.
	for i := 0; i < 100; i++ {
		d.Observe(now, pkt(2, packet.ProtoRaw))
		now++
	}
	// Push time forward to close the flooded window.
	d.Observe(now+200, pkt(1, packet.ProtoRaw))
	if !d.Alarmed() {
		t.Fatal("rate detector missed a 20x flood")
	}
	if d.AlarmedAt() <= 0 {
		t.Errorf("AlarmedAt = %d", d.AlarmedAt())
	}
}

func TestRateDetectorMinCountSuppressesIdleSpikes(t *testing.T) {
	d := NewRateDetector(100, 2, 50)
	// Nearly idle baseline, then a small absolute burst below MinCount.
	d.Observe(10, pkt(1, packet.ProtoRaw))
	d.Observe(150, pkt(1, packet.ProtoRaw))
	for i := 0; i < 20; i++ {
		d.Observe(220+eventq.Time(i), pkt(1, packet.ProtoRaw))
	}
	d.Observe(500, pkt(1, packet.ProtoRaw))
	if d.Alarmed() {
		t.Error("alarmed below the absolute floor")
	}
}

func TestRateDetectorSpecValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewRateDetector(0, 3, 1) },
		func() { NewRateDetector(10, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad spec accepted")
				}
			}()
			f()
		}()
	}
}

func TestEntropyDetectorFiresOnRandomSpoofing(t *testing.T) {
	d := NewEntropyDetector(100, 1.5)
	now := eventq.Time(0)
	// Baseline: traffic from 3 fixed peers → entropy ≈ 1.58 bits.
	for w := 0; w < 6; w++ {
		for i := 0; i < 30; i++ {
			d.Observe(now, pkt(i%3, packet.ProtoRaw))
			now += 3
		}
		now = eventq.Time((w + 1) * 100)
	}
	if d.Alarmed() {
		t.Fatal("alarmed on baseline")
	}
	// Random spoofing across 64 sources → entropy ≈ 6 bits.
	r := rng.NewStream(5)
	for i := 0; i < 200; i++ {
		d.Observe(now, pkt(r.Intn(64), packet.ProtoTCPSYN))
		now++
	}
	d.Observe(now+300, pkt(0, packet.ProtoRaw))
	if !d.Alarmed() {
		t.Fatal("entropy detector missed random spoofing")
	}
}

func TestEntropyDetectorFiresOnCollapse(t *testing.T) {
	d := NewEntropyDetector(100, 1.5)
	now := eventq.Time(0)
	// Baseline: uniform across 32 peers (5 bits).
	r := rng.NewStream(6)
	for w := 0; w < 6; w++ {
		for i := 0; i < 60; i++ {
			d.Observe(now, pkt(r.Intn(32), packet.ProtoRaw))
		}
		now = eventq.Time((w + 1) * 100)
	}
	if d.Alarmed() {
		t.Fatal("alarmed on baseline")
	}
	// Fixed-source flood (0 bits).
	for i := 0; i < 100; i++ {
		d.Observe(now, pkt(7, packet.ProtoTCPSYN))
	}
	d.Observe(now+300, pkt(7, packet.ProtoRaw))
	if !d.Alarmed() {
		t.Fatal("entropy detector missed the collapse")
	}
}

func TestEntropyDetectorSpecValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad entropy spec accepted")
		}
	}()
	NewEntropyDetector(10, 0)
}

func TestSYNTableHalfOpenLifecycle(t *testing.T) {
	d := NewSYNTable(10, 1000)
	d.Observe(0, pkt(1, packet.ProtoTCPSYN))
	d.Observe(1, pkt(2, packet.ProtoTCPSYN))
	if len(d.halfOpen) != 2 {
		t.Errorf("HalfOpen = %d", len(d.halfOpen))
	}
	// Completing the handshake removes the entry.
	d.Observe(2, pkt(1, packet.ProtoTCPACK))
	if len(d.halfOpen) != 1 {
		t.Errorf("HalfOpen after ACK = %d", len(d.halfOpen))
	}
	// Non-TCP traffic is ignored.
	d.Observe(3, pkt(9, packet.ProtoUDP))
	if len(d.halfOpen) != 1 {
		t.Error("UDP affected the SYN table")
	}
	if d.Alarmed() {
		t.Error("alarmed under capacity")
	}
}

func TestSYNTableAlarmsAtCapacity(t *testing.T) {
	d := NewSYNTable(20, 10000)
	for i := 0; i < 25; i++ {
		d.Observe(eventq.Time(i), pkt(i, packet.ProtoTCPSYN))
	}
	if !d.Alarmed() {
		t.Fatal("SYN flood not detected")
	}
	if len(d.halfOpen) != 25 {
		t.Errorf("half-open = %d, want all 25", len(d.halfOpen))
	}
}

func TestSYNTableTimeoutReaping(t *testing.T) {
	d := NewSYNTable(100, 50)
	for i := 0; i < 10; i++ {
		d.Observe(eventq.Time(i), pkt(i, packet.ProtoTCPSYN))
	}
	// 200 ticks later all entries are stale.
	d.Observe(200, pkt(50, packet.ProtoTCPSYN))
	if len(d.halfOpen) != 1 {
		t.Errorf("HalfOpen after timeout = %d, want 1", len(d.halfOpen))
	}
}

func TestSYNTableSpecValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad SYN spec accepted")
		}
	}()
	NewSYNTable(0, 10)
}

func TestFanout(t *testing.T) {
	rate := NewRateDetector(100, 3, 5)
	syn := NewSYNTable(5, 10000)
	f := Fanout{rate, syn}
	if f.Alarmed() {
		t.Fatal("fresh fanout alarmed")
	}
	for i := 0; i < 10; i++ {
		f.Observe(eventq.Time(i), pkt(i, packet.ProtoTCPSYN))
	}
	if !f.Alarmed() {
		t.Fatal("fanout missed the SYN alarm")
	}
	if f.AlarmedAt() != syn.AlarmedAt() {
		t.Errorf("fanout AlarmedAt = %d, want %d", f.AlarmedAt(), syn.AlarmedAt())
	}
	if f.Name() == "" || rate.Name() == "" || syn.Name() == "" {
		t.Error("empty detector name")
	}
}
