// Package bgp implements the subset of the Border Gateway Protocol (BGP-4,
// RFC 4271) wire formats needed to study BGP communities: the communities
// attributes themselves (regular, RFC 1997; extended, RFC 5668; large,
// RFC 8092), AS paths, NLRI prefixes, and UPDATE message encoding and
// decoding. It is a from-scratch implementation with no dependencies
// outside the standard library.
package bgp

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Community is a regular 32-bit BGP community (RFC 1997) of the form α:β,
// where the high 16 bits (α) identify the AS that assigns meaning to the
// low 16 bits (β).
type Community uint32

// NewCommunity assembles a regular community from its α (ASN) and β (value)
// halves.
func NewCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the α half: the 16-bit AS number that defines the meaning of
// the community.
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the β half: the 16-bit operator-assigned value.
func (c Community) Value() uint16 { return uint16(c & 0xffff) }

// Admin, Fn, Local and Compare are the kind-independent view of a
// community that the inference pipeline is generic over: the
// administrator α, the function selector that with α names a clustering
// group (classic communities have none and report 0), the 32-bit value
// the group's clusters range over, and the (Admin, Fn, Local) order.
// LargeCommunity answers the same four.

// Admin returns α widened to 32 bits.
func (c Community) Admin() uint32 { return uint32(c >> 16) }

// Fn is always 0: a classic community has no function selector.
func (c Community) Fn() uint32 { return 0 }

// Local returns β widened to 32 bits.
func (c Community) Local() uint32 { return uint32(c & 0xffff) }

// Compare orders communities numerically (by α, then β): negative, zero
// or positive as c sorts before, equal to, or after o.
func (c Community) Compare(o Community) int { return cmp.Compare(c, o) }

// String renders the community in canonical α:β notation.
func (c Community) String() string {
	return strconv.Itoa(int(c.ASN())) + ":" + strconv.Itoa(int(c.Value()))
}

// Well-known communities registered with IANA. Values in the 0xFFFF0000 -
// 0xFFFFFFFF range are reserved and have protocol-defined semantics.
const (
	// CommunityGracefulShutdown (RFC 8326) requests depreferencing
	// before maintenance.
	CommunityGracefulShutdown Community = 0xFFFF0000
	// CommunityBlackhole (RFC 7999) requests that traffic to the prefix
	// be discarded.
	CommunityBlackhole Community = 0xFFFF029A
	// CommunityNoExport (RFC 1997) prevents advertisement outside the AS
	// (or confederation).
	CommunityNoExport Community = 0xFFFFFF01
	// CommunityNoAdvertise (RFC 1997) prevents advertisement to any peer.
	CommunityNoAdvertise Community = 0xFFFFFF02
	// CommunityNoExportSubconfed (RFC 1997) prevents advertisement to
	// external peers, including confederation members.
	CommunityNoExportSubconfed Community = 0xFFFFFF03
	// CommunityNoPeer (RFC 3765) requests that the route not be
	// advertised across bilateral peering.
	CommunityNoPeer Community = 0xFFFFFF04
)

// IsWellKnown reports whether the community falls in the IANA reserved
// ranges (0x00000000-0x0000FFFF and 0xFFFF0000-0xFFFFFFFF) rather than
// carrying an operator-assigned ASN in its top half.
func (c Community) IsWellKnown() bool {
	asn := c.ASN()
	return asn == 0x0000 || asn == 0xFFFF
}

// privateASNMin16/Max16 bound the IANA 16-bit private-use AS range
// (RFC 6996).
const (
	privateASNMin16 = 64512
	privateASNMax16 = 65534
)

// IsPrivateASN reports whether the α half of the community lies in the
// 16-bit private-use ASN range (64512-65534, RFC 6996) or is the
// reserved 65535. The inference method does not classify such
// communities because the assigning network cannot be identified.
func (c Community) IsPrivateASN() bool {
	return c.ASN() >= privateASNMin16
}

// ParseCommunity parses canonical α:β notation, e.g. "1299:2569".
func ParseCommunity(s string) (Community, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, fmt.Errorf("bgp: community %q: missing ':'", s)
	}
	asn, err := strconv.ParseUint(s[:i], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad ASN: %v", s, err)
	}
	val, err := strconv.ParseUint(s[i+1:], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad value: %v", s, err)
	}
	return NewCommunity(uint16(asn), uint16(val)), nil
}

// ParseCommunities parses a mixed list of communities, separated by
// spaces and/or commas — the forms looking glasses, bgpdump output,
// and route policies use, e.g. "2914:3075 2914:420" or
// "2914:3075,64500:1:228". Two-part α:β tokens parse as classic
// RFC 1997 communities, three-part asn:fn:value tokens as RFC 8092
// large communities; each form round-trips exactly through its
// String rendering. An empty string parses to empty sets.
func ParseCommunities(s string) (Communities, LargeCommunities, error) {
	out, lout, err := AppendCommunities(nil, nil, s)
	if err != nil {
		return nil, nil, err
	}
	return out, lout, nil
}

// AppendCommunities is ParseCommunities appending to dst and ldst, for
// callers that reuse their slices; on error both come back unextended.
func AppendCommunities(dst Communities, ldst LargeCommunities, s string) (Communities, LargeCommunities, error) {
	out, lout := dst, ldst
	for len(s) > 0 {
		end := strings.IndexAny(s, " ,\t")
		if end < 0 {
			end = len(s)
		}
		f := s[:end]
		s = s[min(end+1, len(s)):]
		switch {
		case f == "":
		case strings.Count(f, ":") == 2:
			lc, err := ParseLargeCommunity(f)
			if err != nil {
				return dst, ldst, err
			}
			lout = append(lout, lc)
		default:
			c, err := ParseCommunity(f)
			if err != nil {
				return dst, ldst, err
			}
			out = append(out, c)
		}
	}
	return out, lout, nil
}

// Communities is a set of regular communities carried by one route.
// The zero value is an empty, usable set.
type Communities []Community

// Has reports whether c is present in the set.
func (cs Communities) Has(c Community) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the set.
func (cs Communities) Clone() Communities {
	if cs == nil {
		return nil
	}
	out := make(Communities, len(cs))
	copy(out, cs)
	return out
}

// Sort orders the set numerically (by α, then β), in place.
func (cs Communities) Sort() {
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
}

// Canonical returns a sorted, de-duplicated copy of the set. Routes that
// carry the same communities in different orders compare equal through
// their canonical form.
func (cs Communities) Canonical() Communities {
	if len(cs) == 0 {
		return nil
	}
	out := cs.Clone()
	out.Sort()
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// String renders the set as space-separated α:β pairs, the convention used
// by looking glasses and bgpdump.
func (cs Communities) String() string {
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// LargeCommunity is a 96-bit large BGP community (RFC 8092) of the form
// α:β:γ where α is a 32-bit global administrator ASN.
type LargeCommunity struct {
	GlobalAdmin uint32 // the ASN defining the meaning of the data parts
	LocalData1  uint32 // β
	LocalData2  uint32 // γ
}

// String renders the large community in canonical α:β:γ notation.
func (lc LargeCommunity) String() string {
	return fmt.Sprintf("%d:%d:%d", lc.GlobalAdmin, lc.LocalData1, lc.LocalData2)
}

// Admin returns the global administrator α.
func (lc LargeCommunity) Admin() uint32 { return lc.GlobalAdmin }

// Fn returns the function selector, LocalData1.
func (lc LargeCommunity) Fn() uint32 { return lc.LocalData1 }

// Local returns the operator-assigned value, LocalData2.
func (lc LargeCommunity) Local() uint32 { return lc.LocalData2 }

// Compare orders large communities numerically by (GlobalAdmin,
// LocalData1, LocalData2): negative, zero or positive as lc sorts
// before, equal to, or after o.
func (lc LargeCommunity) Compare(o LargeCommunity) int {
	switch {
	case lc.GlobalAdmin != o.GlobalAdmin:
		if lc.GlobalAdmin < o.GlobalAdmin {
			return -1
		}
		return 1
	case lc.LocalData1 != o.LocalData1:
		if lc.LocalData1 < o.LocalData1 {
			return -1
		}
		return 1
	case lc.LocalData2 != o.LocalData2:
		if lc.LocalData2 < o.LocalData2 {
			return -1
		}
		return 1
	}
	return 0
}

// privateASNMin32/Max bound the IANA 32-bit private-use AS range
// (RFC 6996).
const (
	privateASNMin32 uint32 = 4200000000
)

// IsPrivateASN32 reports whether a 32-bit AS number lies in a
// private-use range (64512-65534 per RFC 6996, 4200000000-4294967294
// per RFC 6996) or is one of the reserved values 65535 and 4294967295
// (RFC 7300). The inference method does not classify communities whose
// administrator ASN cannot identify a network.
func IsPrivateASN32(asn uint32) bool {
	return (asn >= privateASNMin16 && asn <= 65535) || asn >= privateASNMin32
}

// IsPrivateASN reports whether the large community's global
// administrator lies in a private-use or reserved AS range, the
// 32-bit analogue of Community.IsPrivateASN.
func (lc LargeCommunity) IsPrivateASN() bool {
	return IsPrivateASN32(lc.GlobalAdmin)
}

// ParseLargeCommunity parses canonical α:β:γ notation, e.g.
// "57866:100:1".
func ParseLargeCommunity(s string) (LargeCommunity, error) {
	if n := strings.Count(s, ":") + 1; n != 3 {
		return LargeCommunity{}, fmt.Errorf("bgp: large community %q: want 3 parts, have %d", s, n)
	}
	var vals [3]uint32
	rest := s
	for i := range vals {
		var p string
		p, rest, _ = strings.Cut(rest, ":")
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return LargeCommunity{}, fmt.Errorf("bgp: large community %q: part %d: %v", s, i+1, err)
		}
		vals[i] = uint32(v)
	}
	return LargeCommunity{vals[0], vals[1], vals[2]}, nil
}

// LargeCommunities is a set of large communities carried by one route.
type LargeCommunities []LargeCommunity

// Clone returns an independent copy of the set.
func (ls LargeCommunities) Clone() LargeCommunities {
	if ls == nil {
		return nil
	}
	out := make(LargeCommunities, len(ls))
	copy(out, ls)
	return out
}

// Sort orders the set numerically, in place.
func (ls LargeCommunities) Sort() {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Compare(ls[j]) < 0 })
}

// Canonical returns a sorted, de-duplicated copy of the set, the
// identity under which routes carrying the same large communities in
// different orders compare equal.
func (ls LargeCommunities) Canonical() LargeCommunities {
	if len(ls) == 0 {
		return nil
	}
	out := ls.Clone()
	out.Sort()
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// String renders the set as space-separated α:β:γ triples.
func (ls LargeCommunities) String() string {
	var b strings.Builder
	for i, lc := range ls {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(lc.String())
	}
	return b.String()
}

// ExtendedCommunity is an 8-octet extended community (RFC 4360). Only the
// 4-octet AS-specific form (RFC 5668) is interpreted; other forms are
// carried opaquely.
type ExtendedCommunity struct {
	Type    uint8  // high-order type octet
	SubType uint8  // low-order type octet
	Global  uint32 // global administrator (4-octet ASN for RFC 5668 forms)
	Local   uint16 // local administrator
}

// ExtendedCommunity type octets for the 4-octet AS-specific forms
// (RFC 5668).
const (
	ExtCommTypeTransitive4ByteAS    = 0x02
	ExtCommTypeNonTransitive4ByteAS = 0x42
)

// IsFourOctetAS reports whether the extended community is one of the
// RFC 5668 4-octet AS-specific forms, in which Global carries a 32-bit ASN.
func (ec ExtendedCommunity) IsFourOctetAS() bool {
	return ec.Type == ExtCommTypeTransitive4ByteAS || ec.Type == ExtCommTypeNonTransitive4ByteAS
}

// String renders an RFC 5668 community as asn4:local; other forms render
// with their type and raw value for debugging.
func (ec ExtendedCommunity) String() string {
	if ec.IsFourOctetAS() {
		return fmt.Sprintf("%d:%d", ec.Global, ec.Local)
	}
	return fmt.Sprintf("ext(0x%02x:0x%02x):%d:%d", ec.Type, ec.SubType, ec.Global, ec.Local)
}
