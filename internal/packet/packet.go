// Package packet implements the IP-flavored packet model the paper
// assumes (§4.1): cluster nodes speak IP even when switches route by
// topology index, so every packet carries a real IPv4-style header
// whose 16-bit Identification field doubles as the Marking Field (MF)
// for all traceback schemes. The package also provides the node⇄IP
// mapping table the paper describes ("After establishing a mapping
// table between IP addresses and indexes, switches look for this index
// alone") and source-address spoofing.
package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Proto identifies the transport payload carried by a packet; the
// simulator models just enough of TCP to express SYN-flood attacks.
type Proto uint8

// Protocol numbers follow IANA where a real equivalent exists.
const (
	ProtoRaw    Proto = 0xFF // opaque payload, background traffic
	ProtoICMP   Proto = 1
	ProtoTCPSYN Proto = 6  // a TCP segment with SYN set (half-open opener)
	ProtoTCPACK Proto = 60 // non-SYN TCP segment (established traffic)
	ProtoUDP    Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoRaw:
		return "raw"
	case ProtoICMP:
		return "icmp"
	case ProtoTCPSYN:
		return "tcp-syn"
	case ProtoTCPACK:
		return "tcp-ack"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Addr is an IPv4 address in host byte order. The cluster's private
// addressing plan lives in AddrPlan.
type Addr uint32

// AddrFrom4 builds an Addr from dotted-quad components.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("packet: parse addr %q: %w", s, err)
	}
	if !ip.Is4() {
		return 0, fmt.Errorf("packet: addr %q is not IPv4", s)
	}
	b := ip.As4()
	return AddrFrom4(b[0], b[1], b[2], b[3]), nil
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// HeaderLen is the fixed IPv4 header size we model (no options; the
// paper explicitly rejects IP-option marking as too expensive for
// high-performance clusters, §4.2).
const HeaderLen = 20

// DefaultTTL matches the common IP initial TTL; DPM marking positions
// are derived from TTL mod 16, so the model must decrement it per hop.
const DefaultTTL = 64

// Header is the IPv4-like header. ID is the 16-bit Identification
// field — the Marking Field every traceback scheme writes into.
type Header struct {
	TTL      uint8
	Proto    Proto
	ID       uint16 // Marking Field (MF)
	Src, Dst Addr
	Length   uint16 // total datagram length incl. header, bytes
}

// Marshal serializes the header into a fresh 20-byte slice laid out
// like IPv4 (version/IHL, TOS, length, ID, flags/frag, TTL, proto,
// checksum, src, dst) with a valid Internet checksum.
func (h *Header) Marshal() []byte {
	b := make([]byte, HeaderLen)
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], h.Length)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], 0) // flags/fragment unused
	b[8] = h.TTL
	b[9] = uint8(h.Proto)
	// checksum at [10:12] computed over the header with the field zero
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(h.Dst))
	binary.BigEndian.PutUint16(b[10:12], Checksum(b))
	return b
}

// Unmarshal parses a header serialized by Marshal, verifying version,
// length and checksum, and that the fields Marshal leaves zero are zero.
func Unmarshal(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, fmt.Errorf("packet: short header: %d bytes", len(b))
	}
	if b[0] != 0x45 {
		return h, fmt.Errorf("packet: bad version/IHL byte %#x", b[0])
	}
	// Compared, not folded with Verify: when the other fields sum to
	// 0xFFFF a stored 0x0000 and a stored 0xFFFF both fold to a valid
	// header (one's complement has two zeros), and Marshal writes only
	// the first.
	if binary.BigEndian.Uint16(b[10:12]) != Checksum(b[:HeaderLen]) {
		return h, fmt.Errorf("packet: header checksum mismatch")
	}
	// The model carries neither field, so Marshal writes them as zero: a
	// header with either set is not one of ours, and accepting it would
	// silently drop the bits.
	if tos, frag := b[1], binary.BigEndian.Uint16(b[6:8]); tos != 0 || frag != 0 {
		return h, fmt.Errorf("packet: unsupported TOS %#x or flags/fragment word %#x", tos, frag)
	}
	h.Length = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Proto = Proto(b[9])
	h.Src = Addr(binary.BigEndian.Uint32(b[12:16]))
	h.Dst = Addr(binary.BigEndian.Uint32(b[16:20]))
	return h, nil
}

// Checksum computes the Internet checksum (RFC 1071) of b with the
// checksum field (bytes 10–11) treated as zero.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		if i == 10 {
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Verify folds the full header including its stored checksum; a valid
// header folds to 0.
func Verify(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
