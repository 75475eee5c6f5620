package packet

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestAddrString(t *testing.T) {
	a := AddrFrom4(10, 0, 1, 255)
	if got := a.String(); got != "10.0.1.255" {
		t.Errorf("String = %q", got)
	}
}

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("192.168.3.4")
	if err != nil {
		t.Fatal(err)
	}
	if a != AddrFrom4(192, 168, 3, 4) {
		t.Errorf("ParseAddr = %v", a)
	}
	if _, err := ParseAddr("not-an-ip"); err == nil {
		t.Error("bad addr parsed")
	}
	if _, err := ParseAddr("::1"); err == nil {
		t.Error("IPv6 accepted")
	}
}

func TestHeaderMarshalRoundTrip(t *testing.T) {
	h := Header{
		TTL:    37,
		Proto:  ProtoTCPSYN,
		ID:     0xBEEF,
		Src:    AddrFrom4(10, 0, 0, 5),
		Dst:    AddrFrom4(10, 0, 0, 9),
		Length: 60,
	}
	b := h.Marshal()
	if len(b) != HeaderLen {
		t.Fatalf("marshal length %d", len(b))
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip %+v != %+v", got, h)
	}
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(ttl uint8, proto uint8, id uint16, src, dst uint32, length uint16) bool {
		h := Header{TTL: ttl, Proto: Proto(proto), ID: id, Src: Addr(src), Dst: Addr(dst), Length: length}
		got, err := Unmarshal(h.Marshal())
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	h := Header{TTL: 10, Proto: ProtoUDP, ID: 1, Src: 2, Dst: 3, Length: 20}
	b := h.Marshal()
	// Flip one bit anywhere except where it cancels in checksum.
	b[4] ^= 0x01
	if _, err := Unmarshal(b); err == nil {
		t.Error("corrupted header accepted")
	}
	if _, err := Unmarshal(b[:10]); err == nil {
		t.Error("short header accepted")
	}
	b2 := h.Marshal()
	b2[0] = 0x46
	if _, err := Unmarshal(b2); err == nil {
		t.Error("bad version accepted")
	}
	// Fields the model does not carry must be zero, valid checksum or not.
	for _, off := range []int{1, 6, 7} {
		b3 := h.Marshal()
		b3[off] = 0x01
		binary.BigEndian.PutUint16(b3[10:12], Checksum(b3))
		if _, err := Unmarshal(b3); err == nil {
			t.Errorf("nonzero byte %d (TOS / flags / fragment) accepted", off)
		}
	}
}

func TestChecksumValidHeaderVerifiesToZero(t *testing.T) {
	h := Header{TTL: 1, Proto: ProtoICMP, ID: 0xFFFF, Src: 0xFFFFFFFF, Dst: 0, Length: 20}
	if Verify(h.Marshal()) != 0 {
		t.Error("valid header does not verify to 0")
	}
}

func TestAddrPlanMapping(t *testing.T) {
	p := NewAddrPlan(DefaultBase, 16)
	if p.NumNodes() != 16 {
		t.Errorf("NumNodes = %d", p.NumNodes())
	}
	for i := 0; i < 16; i++ {
		a := p.AddrOf(topology.NodeID(i))
		id, ok := p.NodeOf(a)
		if !ok || id != topology.NodeID(i) {
			t.Fatalf("plan round trip failed for node %d", i)
		}
		if !p.Contains(a) {
			t.Fatalf("Contains(%v) = false", a)
		}
	}
	if _, ok := p.NodeOf(DefaultBase + 16); ok {
		t.Error("out-of-plan address resolved")
	}
	if p.Contains(AddrFrom4(8, 8, 8, 8)) {
		t.Error("Contains accepted external address")
	}
}

func TestAddrPlanValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-node plan did not panic")
			}
		}()
		NewAddrPlan(DefaultBase, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overflowing plan did not panic")
			}
		}()
		NewAddrPlan(AddrFrom4(255, 255, 255, 250), 10)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddrOf out of range did not panic")
			}
		}()
		NewAddrPlan(DefaultBase, 4).AddrOf(4)
	}()
}

func TestNewPacketDefaults(t *testing.T) {
	p := NewAddrPlan(DefaultBase, 16)
	pk := NewPacket(p, 3, 7, ProtoTCPSYN, 40)
	if pk.Hdr.TTL != DefaultTTL {
		t.Errorf("TTL = %d", pk.Hdr.TTL)
	}
	if pk.Hdr.Src != p.AddrOf(3) || pk.Hdr.Dst != p.AddrOf(7) {
		t.Error("addresses wrong")
	}
	if pk.Spoofed {
		t.Error("fresh packet marked spoofed")
	}
	if pk.Hdr.Length != HeaderLen+40 {
		t.Errorf("Length = %d", pk.Hdr.Length)
	}
	if pk.TrueSrc != p.AddrOf(3) {
		t.Error("TrueSrc wrong")
	}
}

func TestSpoof(t *testing.T) {
	p := NewAddrPlan(DefaultBase, 16)
	pk := NewPacket(p, 3, 7, ProtoTCPSYN, 0)
	fake := p.AddrOf(12)
	pk.Spoof(fake)
	if pk.Hdr.Src != fake {
		t.Error("Spoof did not rewrite header")
	}
	if !pk.Spoofed {
		t.Error("Spoofed flag not set")
	}
	if pk.TrueSrc != p.AddrOf(3) {
		t.Error("ground truth lost")
	}
	// Spoofing back to the true address clears the flag.
	pk.Spoof(p.AddrOf(3))
	if pk.Spoofed {
		t.Error("self-spoof should not be flagged")
	}
}

func TestProtoString(t *testing.T) {
	cases := map[Proto]string{
		ProtoRaw:    "raw",
		ProtoICMP:   "icmp",
		ProtoTCPSYN: "tcp-syn",
		ProtoTCPACK: "tcp-ack",
		ProtoUDP:    "udp",
		Proto(99):   "proto(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Proto(%d).String = %q, want %q", uint8(p), got, want)
		}
	}
}

func TestPacketString(t *testing.T) {
	p := NewAddrPlan(DefaultBase, 4)
	pk := NewPacket(p, 0, 3, ProtoUDP, 0)
	if s := pk.String(); s == "" {
		t.Error("empty String")
	}
	pk.Spoof(p.AddrOf(2))
	if s := pk.String(); s == "" {
		t.Error("empty String for spoofed packet")
	}
}
