package bgp

import (
	"fmt"
	"net/netip"
)

// Prefix is an NLRI prefix. It wraps netip.Prefix to get canonical
// comparable semantics while adding the BGP wire encoding (length octet
// followed by the minimum number of address octets, RFC 4271 §4.3).
type Prefix struct {
	netip.Prefix
}

// MustParsePrefix parses CIDR notation and panics on error; for tests and
// tables of constants.
func MustParsePrefix(s string) Prefix {
	return Prefix{netip.MustParsePrefix(s)}
}

// ParsePrefix parses CIDR notation, e.g. "192.0.2.0/24".
func ParsePrefix(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, fmt.Errorf("bgp: %v", err)
	}
	return Prefix{p.Masked()}, nil
}

// PrefixFrom assembles a prefix from an address and mask length.
func PrefixFrom(addr netip.Addr, bits int) Prefix {
	return Prefix{netip.PrefixFrom(addr, bits).Masked()}
}

// AppendWire appends the RFC 4271 NLRI encoding of the prefix: one length
// octet followed by ceil(bits/8) address octets.
func (p Prefix) AppendWire(dst []byte) []byte {
	bits := p.Bits()
	dst = append(dst, byte(bits))
	addr := p.Addr().AsSlice()
	n := (bits + 7) / 8
	return append(dst, addr[:n]...)
}

// decodePrefix decodes one NLRI prefix from buf, for the given address
// family (4 or 16 octet addresses). It returns the prefix and the number
// of bytes consumed.
func decodePrefix(buf []byte, addrLen int) (Prefix, int, error) {
	if len(buf) < 1 {
		return Prefix{}, 0, fmt.Errorf("bgp: truncated NLRI: no length octet")
	}
	bits := int(buf[0])
	if bits > addrLen*8 {
		return Prefix{}, 0, fmt.Errorf("bgp: NLRI length %d exceeds address size %d bits", bits, addrLen*8)
	}
	n := (bits + 7) / 8
	if len(buf) < 1+n {
		return Prefix{}, 0, fmt.Errorf("bgp: truncated NLRI: want %d address octets, have %d", n, len(buf)-1)
	}
	var raw [16]byte
	copy(raw[:], buf[1:1+n])
	addr := netip.AddrFrom16(raw)
	if addrLen == 4 {
		addr = netip.AddrFrom4([4]byte(raw[:4]))
	}
	return PrefixFrom(addr, bits), 1 + n, nil
}

// DecodePrefixIPv4 decodes one IPv4 NLRI prefix from buf, returning the
// prefix and bytes consumed.
func DecodePrefixIPv4(buf []byte) (Prefix, int, error) { return decodePrefix(buf, 4) }

// DecodePrefixIPv6 decodes one IPv6 NLRI prefix from buf, returning the
// prefix and bytes consumed.
func DecodePrefixIPv6(buf []byte) (Prefix, int, error) { return decodePrefix(buf, 16) }
