package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// BGP message types (RFC 4271 §4.1).
const (
	MsgTypeOpen         uint8 = 1
	MsgTypeUpdate       uint8 = 2
	MsgTypeNotification uint8 = 3
	MsgTypeKeepalive    uint8 = 4
)

// Path attribute type codes used by this package.
const (
	AttrOrigin           uint8 = 1
	AttrASPath           uint8 = 2
	AttrNextHop          uint8 = 3
	AttrMED              uint8 = 4
	AttrLocalPref        uint8 = 5
	AttrAtomicAggregate  uint8 = 6
	AttrAggregator       uint8 = 7
	AttrCommunities      uint8 = 8
	AttrMPReachNLRI      uint8 = 14
	AttrExtCommunities   uint8 = 16
	AttrAS4Path          uint8 = 17
	AttrLargeCommunities uint8 = 32
)

// ASTrans is the 2-octet placeholder for ASNs that do not fit in 16
// bits (RFC 6793).
const ASTrans uint32 = 23456

// ORIGIN attribute values (RFC 4271 §4.3).
const (
	OriginIGP        uint8 = 0
	OriginEGP        uint8 = 1
	OriginIncomplete uint8 = 2
)

// Path attribute flag bits.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagPartial    uint8 = 0x20
	flagExtLen     uint8 = 0x10
)

// maxMessageLen is the largest BGP message permitted by RFC 4271.
const maxMessageLen = 4096

// headerLen is the fixed BGP message header size (16-octet marker +
// 2-octet length + 1-octet type).
const headerLen = 19

// PathAttributes carries the route attributes this library models. Zero
// values mean "attribute absent" except Origin, whose presence is tracked
// by HasOrigin so OriginIGP (0) round-trips.
type PathAttributes struct {
	HasOrigin bool
	Origin    uint8

	ASPath ASPath

	HasNextHop bool
	NextHop    netip.Addr

	HasMED bool
	MED    uint32

	HasLocalPref bool
	LocalPref    uint32

	Communities      Communities
	ExtCommunities   []ExtendedCommunity
	LargeCommunities LargeCommunities

	// MPReach reports that an UPDATE carried an MP_REACH_NLRI attribute
	// (RFC 4760) with a non-empty NLRI field: the message announces
	// multiprotocol routes — every IPv6 announcement does it this way —
	// even when its classic NLRI is empty. The prefixes themselves are
	// not decoded. Never set for a RIB entry, whose MP_REACH_NLRI is the
	// abbreviated next-hop-only form of RFC 6396 §4.3.4.
	MPReach bool
}

// UpdateMessage is a BGP UPDATE: withdrawn prefixes, path attributes, and
// announced prefixes (NLRI). Only IPv4 NLRI travels in the classic UPDATE
// body; this is all the corpus uses.
type UpdateMessage struct {
	Withdrawn []Prefix
	Attrs     PathAttributes
	NLRI      []Prefix
}

// appendAttr appends one path attribute with the correct flags, using the
// extended-length form when the payload exceeds 255 octets.
func appendAttr(dst []byte, flags, code uint8, payload []byte) []byte {
	if len(payload) > 255 {
		flags |= flagExtLen
	}
	dst = append(dst, flags, code)
	if flags&flagExtLen != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	} else {
		dst = append(dst, byte(len(payload)))
	}
	return append(dst, payload...)
}

// appendASPath encodes AS_PATH segments with 4-octet ASNs (RFC 6793
// encoding as used in BGP4MP_MESSAGE_AS4).
func appendASPath(dst []byte, p ASPath) []byte {
	for _, seg := range p.Segments {
		if len(seg.ASNs) == 0 {
			continue
		}
		// Segments hold at most 255 ASNs on the wire; split longer ones.
		for off := 0; off < len(seg.ASNs); off += 255 {
			end := off + 255
			if end > len(seg.ASNs) {
				end = len(seg.ASNs)
			}
			dst = append(dst, seg.Type, byte(end-off))
			for _, asn := range seg.ASNs[off:end] {
				dst = binary.BigEndian.AppendUint32(dst, asn)
			}
		}
	}
	return dst
}

// EncodeAttrs encodes the path attributes in ascending type-code order, as
// RFC 4271 requires.
func (a *PathAttributes) EncodeAttrs() []byte {
	var out []byte
	if a.HasOrigin {
		out = appendAttr(out, flagTransitive, AttrOrigin, []byte{a.Origin})
	}
	if !a.ASPath.Empty() {
		out = appendAttr(out, flagTransitive, AttrASPath, appendASPath(nil, a.ASPath))
	} else {
		// An empty AS_PATH attribute is still mandatory on eBGP updates;
		// emit a zero-length one so decoders see the attribute.
		out = appendAttr(out, flagTransitive, AttrASPath, nil)
	}
	if a.HasNextHop && a.NextHop.Is4() {
		nh := a.NextHop.As4()
		out = appendAttr(out, flagTransitive, AttrNextHop, nh[:])
	}
	if a.HasMED {
		out = appendAttr(out, flagOptional, AttrMED, binary.BigEndian.AppendUint32(nil, a.MED))
	}
	if a.HasLocalPref {
		out = appendAttr(out, flagTransitive, AttrLocalPref, binary.BigEndian.AppendUint32(nil, a.LocalPref))
	}
	if len(a.Communities) > 0 {
		payload := make([]byte, 0, 4*len(a.Communities))
		for _, c := range a.Communities {
			payload = binary.BigEndian.AppendUint32(payload, uint32(c))
		}
		out = appendAttr(out, flagOptional|flagTransitive, AttrCommunities, payload)
	}
	if len(a.ExtCommunities) > 0 {
		payload := make([]byte, 0, 8*len(a.ExtCommunities))
		for _, ec := range a.ExtCommunities {
			payload = append(payload, ec.Type, ec.SubType)
			payload = binary.BigEndian.AppendUint32(payload, ec.Global)
			payload = binary.BigEndian.AppendUint16(payload, ec.Local)
		}
		out = appendAttr(out, flagOptional|flagTransitive, AttrExtCommunities, payload)
	}
	if len(a.LargeCommunities) > 0 {
		payload := make([]byte, 0, 12*len(a.LargeCommunities))
		for _, lc := range a.LargeCommunities {
			payload = binary.BigEndian.AppendUint32(payload, lc.GlobalAdmin)
			payload = binary.BigEndian.AppendUint32(payload, lc.LocalData1)
			payload = binary.BigEndian.AppendUint32(payload, lc.LocalData2)
		}
		out = appendAttr(out, flagOptional|flagTransitive, AttrLargeCommunities, payload)
	}
	return out
}

// DecodeAttrs parses a path attribute block (the contents between the
// attribute-length field and the NLRI) into a, with 4-octet AS_PATH
// encoding. Unknown attributes are skipped; malformed ones abort with an
// error.
//
// Attribute payloads are decoded into a's existing slice capacity where
// possible, so a decode loop that recycles one PathAttributes per slot
// (calling ResetForReuse between records) runs allocation-free at
// steady state.
func DecodeAttrs(buf []byte, a *PathAttributes) error {
	return decodeAttrsSized(buf, a, 4, false)
}

// ResetForReuse clears a for decoding a fresh attribute block while
// retaining allocated slice capacity (AS_PATH segment and ASN arrays,
// community lists). Callers that recycle a PathAttributes across
// records must call it before each decode so absent attributes do not
// leak values from the previous record.
func (a *PathAttributes) ResetForReuse() {
	segs := a.ASPath.Segments[:0]
	comms := a.Communities[:0]
	ecs := a.ExtCommunities[:0]
	ls := a.LargeCommunities[:0]
	*a = PathAttributes{}
	a.ASPath.Segments = segs
	a.Communities = comms
	a.ExtCommunities = ecs
	a.LargeCommunities = ls
}

// decodeAttrsSized parses attributes with the given AS_PATH ASN width
// (2 for pre-RFC 6793 speakers, 4 otherwise). In 2-octet mode an
// AS4_PATH attribute, if present, is merged into the AS_PATH per
// RFC 6793 §4.2.3. inUpdate says the block comes from an UPDATE message,
// where MP_REACH_NLRI has its full RFC 4760 framing; elsewhere (RIB
// entries) the attribute is skipped like any unmodelled one.
func decodeAttrsSized(buf []byte, a *PathAttributes, asnBytes int, inUpdate bool) error {
	var as4Path *ASPath
	for len(buf) > 0 {
		if len(buf) < 3 {
			return fmt.Errorf("bgp: truncated attribute header (%d bytes left)", len(buf))
		}
		flags, code := buf[0], buf[1]
		var alen, hdr int
		if flags&flagExtLen != 0 {
			if len(buf) < 4 {
				return fmt.Errorf("bgp: truncated extended-length attribute header")
			}
			alen = int(binary.BigEndian.Uint16(buf[2:4]))
			hdr = 4
		} else {
			alen = int(buf[2])
			hdr = 3
		}
		if len(buf) < hdr+alen {
			return fmt.Errorf("bgp: attribute %d: want %d payload bytes, have %d", code, alen, len(buf)-hdr)
		}
		payload := buf[hdr : hdr+alen]
		buf = buf[hdr+alen:]

		switch code {
		case AttrOrigin:
			if alen != 1 {
				return fmt.Errorf("bgp: ORIGIN: bad length %d", alen)
			}
			a.HasOrigin = true
			a.Origin = payload[0]
		case AttrASPath:
			if err := decodeASPathInto(payload, asnBytes, &a.ASPath); err != nil {
				return err
			}
		case AttrAS4Path:
			if asnBytes == 4 {
				// A 4-octet speaker must not see AS4_PATH; tolerate and
				// ignore it, as routers do.
				continue
			}
			p, err := decodeASPath(payload, 4)
			if err != nil {
				return err
			}
			as4Path = &p
		case AttrNextHop:
			if alen != 4 {
				return fmt.Errorf("bgp: NEXT_HOP: bad length %d", alen)
			}
			addr, _ := netip.AddrFromSlice(payload)
			a.HasNextHop = true
			a.NextHop = addr
		case AttrMED:
			if alen != 4 {
				return fmt.Errorf("bgp: MED: bad length %d", alen)
			}
			a.HasMED = true
			a.MED = binary.BigEndian.Uint32(payload)
		case AttrLocalPref:
			if alen != 4 {
				return fmt.Errorf("bgp: LOCAL_PREF: bad length %d", alen)
			}
			a.HasLocalPref = true
			a.LocalPref = binary.BigEndian.Uint32(payload)
		case AttrCommunities:
			if alen%4 != 0 {
				return fmt.Errorf("bgp: COMMUNITIES: length %d not a multiple of 4", alen)
			}
			cs := a.Communities[:0]
			if cap(cs) < alen/4 {
				cs = make(Communities, 0, alen/4)
			}
			for i := 0; i < alen; i += 4 {
				cs = append(cs, Community(binary.BigEndian.Uint32(payload[i:i+4])))
			}
			a.Communities = cs
		case AttrMPReachNLRI:
			if !inUpdate {
				continue
			}
			// AFI (2), SAFI (1), next-hop length (1), next hop, one
			// reserved octet, then the NLRI.
			if alen < 5 {
				return fmt.Errorf("bgp: MP_REACH_NLRI: truncated header (%d bytes)", alen)
			}
			nlriOff := 4 + int(payload[3]) + 1
			if alen < nlriOff {
				return fmt.Errorf("bgp: MP_REACH_NLRI: next hop length %d overruns the %d-byte attribute", payload[3], alen)
			}
			a.MPReach = alen > nlriOff
		case AttrExtCommunities:
			if alen%8 != 0 {
				return fmt.Errorf("bgp: EXTENDED COMMUNITIES: length %d not a multiple of 8", alen)
			}
			ecs := a.ExtCommunities[:0]
			if cap(ecs) < alen/8 {
				ecs = make([]ExtendedCommunity, 0, alen/8)
			}
			for i := 0; i < alen; i += 8 {
				ecs = append(ecs, ExtendedCommunity{
					Type:    payload[i],
					SubType: payload[i+1],
					Global:  binary.BigEndian.Uint32(payload[i+2 : i+6]),
					Local:   binary.BigEndian.Uint16(payload[i+6 : i+8]),
				})
			}
			a.ExtCommunities = ecs
		case AttrLargeCommunities:
			if alen%12 != 0 {
				return fmt.Errorf("bgp: LARGE_COMMUNITY: length %d not a multiple of 12", alen)
			}
			ls := a.LargeCommunities[:0]
			if cap(ls) < alen/12 {
				ls = make(LargeCommunities, 0, alen/12)
			}
			for i := 0; i < alen; i += 12 {
				ls = append(ls, LargeCommunity{
					GlobalAdmin: binary.BigEndian.Uint32(payload[i : i+4]),
					LocalData1:  binary.BigEndian.Uint32(payload[i+4 : i+8]),
					LocalData2:  binary.BigEndian.Uint32(payload[i+8 : i+12]),
				})
			}
			a.LargeCommunities = ls
		default:
			// Unknown attribute: skipped. Transitive unknowns would be
			// propagated by a router; a decoder just moves on.
		}
	}
	if as4Path != nil {
		a.ASPath = MergeAS4Path(a.ASPath, *as4Path)
	}
	return nil
}

// MergeAS4Path reconstructs the true path from a 2-octet AS_PATH (with
// AS_TRANS placeholders) and the AS4_PATH attribute, per RFC 6793
// §4.2.3: when AS4_PATH is no longer than AS_PATH, the leading
// (len(AS_PATH) - len(AS4_PATH)) hops of AS_PATH are kept and AS4_PATH
// supplies the rest; otherwise AS4_PATH is ignored.
func MergeAS4Path(asPath, as4Path ASPath) ASPath {
	lenAS, lenAS4 := asPath.Len(), as4Path.Len()
	if lenAS4 > lenAS {
		return asPath
	}
	keep := lenAS - lenAS4
	out := ASPath{}
	remaining := keep
	for _, seg := range asPath.Segments {
		if remaining <= 0 {
			break
		}
		if seg.Type == SegmentTypeASSet {
			// A set counts as one hop and is kept whole.
			out.Segments = append(out.Segments, PathSegment{Type: seg.Type, ASNs: append([]uint32{}, seg.ASNs...)})
			remaining--
			continue
		}
		n := len(seg.ASNs)
		if n > remaining {
			n = remaining
		}
		out.Segments = append(out.Segments, PathSegment{Type: seg.Type, ASNs: append([]uint32{}, seg.ASNs[:n]...)})
		remaining -= n
	}
	for _, seg := range as4Path.Segments {
		if n := len(out.Segments); n > 0 && seg.Type == SegmentTypeASSequence &&
			out.Segments[n-1].Type == SegmentTypeASSequence {
			out.Segments[n-1].ASNs = append(out.Segments[n-1].ASNs, seg.ASNs...)
			continue
		}
		out.Segments = append(out.Segments, PathSegment{Type: seg.Type, ASNs: append([]uint32{}, seg.ASNs...)})
	}
	return out
}

// decodeASPath parses AS_PATH segments with the given ASN width (2 or
// 4 octets) into a freshly allocated path.
func decodeASPath(buf []byte, asnBytes int) (ASPath, error) {
	var p ASPath
	if err := decodeASPathInto(buf, asnBytes, &p); err != nil {
		return ASPath{}, err
	}
	return p, nil
}

// decodeASPathInto parses AS_PATH segments into p, reusing p's segment
// slice and, slot by slot, the ASN arrays of whatever path p held
// before. On error p's contents are unspecified.
func decodeASPathInto(buf []byte, asnBytes int, p *ASPath) error {
	segs := p.Segments[:0]
	for len(buf) > 0 {
		if len(buf) < 2 {
			return fmt.Errorf("bgp: truncated AS_PATH segment header")
		}
		segType, count := buf[0], int(buf[1])
		confed := segType == segmentTypeConfedSequence || segType == segmentTypeConfedSet
		if !confed && segType != SegmentTypeASSet && segType != SegmentTypeASSequence {
			return fmt.Errorf("bgp: AS_PATH: bad segment type %d", segType)
		}
		need := 2 + asnBytes*count
		if len(buf) < need {
			return fmt.Errorf("bgp: AS_PATH segment: want %d bytes, have %d", need, len(buf))
		}
		if confed {
			// A confederation's member ASes are not path hops: a leaked
			// segment is dropped, as RFC 5065 §4.1 has a non-member do.
			buf = buf[need:]
			continue
		}
		// Merge wire-split sequences back together so Key() is canonical.
		merge := len(segs) > 0 && segType == SegmentTypeASSequence && segs[len(segs)-1].Type == SegmentTypeASSequence
		var asns []uint32
		if merge {
			asns = segs[len(segs)-1].ASNs
		} else if len(segs) < cap(segs) {
			// Reclaim the ASN array of the segment previously stored in
			// this slot.
			asns = segs[:len(segs)+1][len(segs)].ASNs[:0]
		}
		for i := 0; i < count; i++ {
			if asnBytes == 2 {
				asns = append(asns, uint32(binary.BigEndian.Uint16(buf[2+2*i:4+2*i])))
			} else {
				asns = append(asns, binary.BigEndian.Uint32(buf[2+4*i:6+4*i]))
			}
		}
		if merge {
			segs[len(segs)-1].ASNs = asns
		} else {
			segs = append(segs, PathSegment{Type: segType, ASNs: asns})
		}
		buf = buf[need:]
	}
	p.Segments = segs
	return nil
}

// Encode serializes the UPDATE, including the 19-octet BGP header with an
// all-ones marker. It fails if the message would exceed the RFC 4271
// 4096-octet limit.
func (m *UpdateMessage) Encode() ([]byte, error) {
	var withdrawn []byte
	for _, p := range m.Withdrawn {
		withdrawn = p.AppendWire(withdrawn)
	}
	attrs := m.Attrs.EncodeAttrs()
	var nlri []byte
	for _, p := range m.NLRI {
		nlri = p.AppendWire(nlri)
	}

	total := headerLen + 2 + len(withdrawn) + 2 + len(attrs) + len(nlri)
	if total > maxMessageLen {
		return nil, fmt.Errorf("bgp: UPDATE would be %d bytes, exceeding the %d-byte limit", total, maxMessageLen)
	}
	out := make([]byte, 0, total)
	for i := 0; i < 16; i++ {
		out = append(out, 0xff)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(total))
	out = append(out, MsgTypeUpdate)
	out = binary.BigEndian.AppendUint16(out, uint16(len(withdrawn)))
	out = append(out, withdrawn...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(attrs)))
	out = append(out, attrs...)
	out = append(out, nlri...)
	return out, nil
}

// DecodeUpdate parses a full BGP message (header included) into an
// UPDATE with 4-octet AS_PATH encoding (RFC 6793 speakers, and all
// BGP4MP_MESSAGE_AS4 records). It returns an error for non-UPDATE
// messages or malformed bodies.
func DecodeUpdate(buf []byte) (*UpdateMessage, error) {
	return DecodeUpdateSized(buf, 4)
}

// DecodeUpdateSized parses an UPDATE with an explicit AS_PATH ASN width:
// 2 for messages from pre-RFC 6793 sessions (plain BGP4MP_MESSAGE
// records), in which case any AS4_PATH attribute is merged.
func DecodeUpdateSized(buf []byte, asnBytes int) (*UpdateMessage, error) {
	var m UpdateMessage
	if err := DecodeUpdateSizedInto(buf, asnBytes, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// DecodeUpdateSizedInto is DecodeUpdateSized decoding into a
// caller-owned message: m's previous contents are discarded, but its
// slice capacity (withdrawn/NLRI lists, attribute storage) is reused,
// so a scan loop recycling one UpdateMessage runs allocation-free at
// steady state. On error m's contents are unspecified.
func DecodeUpdateSizedInto(buf []byte, asnBytes int, m *UpdateMessage) error {
	if asnBytes != 2 && asnBytes != 4 {
		return fmt.Errorf("bgp: unsupported ASN width %d", asnBytes)
	}
	if len(buf) < headerLen {
		return fmt.Errorf("bgp: message shorter than header: %d bytes", len(buf))
	}
	for i := 0; i < 16; i++ {
		if buf[i] != 0xff {
			return fmt.Errorf("bgp: bad marker octet at %d", i)
		}
	}
	total := int(binary.BigEndian.Uint16(buf[16:18]))
	if total < headerLen || total > maxMessageLen {
		return fmt.Errorf("bgp: bad message length %d", total)
	}
	if len(buf) < total {
		return fmt.Errorf("bgp: truncated message: header says %d, have %d", total, len(buf))
	}
	if buf[18] != MsgTypeUpdate {
		return fmt.Errorf("bgp: message type %d is not UPDATE", buf[18])
	}
	body := buf[headerLen:total]

	m.Withdrawn = m.Withdrawn[:0]
	m.NLRI = m.NLRI[:0]
	m.Attrs.ResetForReuse()

	if len(body) < 2 {
		return fmt.Errorf("bgp: UPDATE body too short for withdrawn length")
	}
	wlen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < wlen {
		return fmt.Errorf("bgp: withdrawn routes: want %d bytes, have %d", wlen, len(body))
	}
	wbuf := body[:wlen]
	body = body[wlen:]
	for len(wbuf) > 0 {
		p, n, err := DecodePrefixIPv4(wbuf)
		if err != nil {
			return err
		}
		m.Withdrawn = append(m.Withdrawn, p)
		wbuf = wbuf[n:]
	}

	if len(body) < 2 {
		return fmt.Errorf("bgp: UPDATE body too short for attribute length")
	}
	alen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < alen {
		return fmt.Errorf("bgp: path attributes: want %d bytes, have %d", alen, len(body))
	}
	if err := decodeAttrsSized(body[:alen], &m.Attrs, asnBytes, true); err != nil {
		return err
	}
	body = body[alen:]

	for len(body) > 0 {
		p, n, err := DecodePrefixIPv4(body)
		if err != nil {
			return err
		}
		m.NLRI = append(m.NLRI, p)
		body = body[n:]
	}
	return nil
}
