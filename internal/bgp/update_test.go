package bgp

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestPrefixWireRoundTrip(t *testing.T) {
	tests := []string{
		"0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "198.51.100.128/25",
		"203.0.113.255/32", "172.16.0.0/12",
	}
	for _, s := range tests {
		p := MustParsePrefix(s)
		wire := p.AppendWire(nil)
		got, n, err := DecodePrefixIPv4(wire)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if n != len(wire) {
			t.Errorf("%s: consumed %d of %d bytes", s, n, len(wire))
		}
		if got != p {
			t.Errorf("%s: round trip = %v", s, got)
		}
	}
}

func TestPrefixWireRoundTripIPv6(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	wire := p.AppendWire(nil)
	got, n, err := DecodePrefixIPv6(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) || got != p {
		t.Errorf("round trip = %v (%d bytes)", got, n)
	}
}

func TestDecodePrefixErrors(t *testing.T) {
	if _, _, err := DecodePrefixIPv4(nil); err == nil {
		t.Error("empty buffer: want error")
	}
	if _, _, err := DecodePrefixIPv4([]byte{33, 1, 2, 3, 4, 5}); err == nil {
		t.Error("/33 IPv4: want error")
	}
	if _, _, err := DecodePrefixIPv4([]byte{24, 1, 2}); err == nil {
		t.Error("truncated address: want error")
	}
}

func TestPrefixWireQuick(t *testing.T) {
	f := func(a, b, c, d byte, bits uint8) bool {
		bl := int(bits) % 33
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		p := PrefixFrom(addr, bl)
		wire := p.AppendWire(nil)
		got, n, err := DecodePrefixIPv4(wire)
		return err == nil && n == len(wire) && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testAttrs() PathAttributes {
	return PathAttributes{
		HasOrigin:    true,
		Origin:       OriginIGP,
		ASPath:       NewASPath(65269, 7018, 1299, 64496),
		HasNextHop:   true,
		NextHop:      netip.MustParseAddr("198.51.100.1"),
		HasMED:       true,
		MED:          20,
		HasLocalPref: true,
		LocalPref:    120,
		Communities: Communities{
			NewCommunity(1299, 2569),
			NewCommunity(1299, 35130),
			CommunityNoExport,
		},
		ExtCommunities: []ExtendedCommunity{
			{Type: ExtCommTypeTransitive4ByteAS, SubType: 0x02, Global: 196615, Local: 44},
		},
		LargeCommunities: LargeCommunities{
			{GlobalAdmin: 197000, LocalData1: 1, LocalData2: 2},
		},
	}
}

func TestUpdateEncodeDecodeRoundTrip(t *testing.T) {
	m := &UpdateMessage{
		Withdrawn: []Prefix{MustParsePrefix("10.1.0.0/16")},
		Attrs:     testAttrs(),
		NLRI:      []Prefix{MustParsePrefix("192.0.2.0/24"), MustParsePrefix("198.51.100.0/24")},
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Withdrawn, m.Withdrawn) {
		t.Errorf("Withdrawn = %v", got.Withdrawn)
	}
	if !reflect.DeepEqual(got.NLRI, m.NLRI) {
		t.Errorf("NLRI = %v", got.NLRI)
	}
	if !got.Attrs.ASPath.Equal(m.Attrs.ASPath) {
		t.Errorf("ASPath = %v", got.Attrs.ASPath)
	}
	if !reflect.DeepEqual(got.Attrs.Communities, m.Attrs.Communities) {
		t.Errorf("Communities = %v", got.Attrs.Communities)
	}
	if !reflect.DeepEqual(got.Attrs.LargeCommunities, m.Attrs.LargeCommunities) {
		t.Errorf("LargeCommunities = %v", got.Attrs.LargeCommunities)
	}
	if !reflect.DeepEqual(got.Attrs.ExtCommunities, m.Attrs.ExtCommunities) {
		t.Errorf("ExtCommunities = %v", got.Attrs.ExtCommunities)
	}
	if !got.Attrs.HasLocalPref || got.Attrs.LocalPref != 120 {
		t.Errorf("LocalPref = %v/%d", got.Attrs.HasLocalPref, got.Attrs.LocalPref)
	}
	if !got.Attrs.HasMED || got.Attrs.MED != 20 {
		t.Errorf("MED = %v/%d", got.Attrs.HasMED, got.Attrs.MED)
	}
	if !got.Attrs.HasNextHop || got.Attrs.NextHop != m.Attrs.NextHop {
		t.Errorf("NextHop = %v", got.Attrs.NextHop)
	}
	if !got.Attrs.HasOrigin || got.Attrs.Origin != OriginIGP {
		t.Errorf("Origin = %v/%d", got.Attrs.HasOrigin, got.Attrs.Origin)
	}
}

func TestUpdateMinimal(t *testing.T) {
	// A keepalive-shaped UPDATE: no withdrawn, no NLRI, empty attrs except
	// the mandatory (empty) AS_PATH.
	m := &UpdateMessage{}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Withdrawn) != 0 || len(got.NLRI) != 0 {
		t.Errorf("got %+v", got)
	}
	if !got.Attrs.ASPath.Empty() {
		t.Errorf("ASPath = %v", got.Attrs.ASPath)
	}
}

func TestUpdateTooLarge(t *testing.T) {
	m := &UpdateMessage{}
	for i := 0; i < 2000; i++ {
		m.NLRI = append(m.NLRI, MustParsePrefix("192.0.2.0/24"))
	}
	if _, err := m.Encode(); err == nil {
		t.Error("oversized UPDATE: want error")
	}
}

func TestDecodeUpdateErrors(t *testing.T) {
	good, err := (&UpdateMessage{NLRI: []Prefix{MustParsePrefix("192.0.2.0/24")}}).Encode()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("short", func(t *testing.T) {
		if _, err := DecodeUpdate(good[:10]); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad marker", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[3] = 0
		if _, err := DecodeUpdate(bad); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[18] = MsgTypeKeepalive
		if _, err := DecodeUpdate(bad); err == nil {
			t.Error("want error")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeUpdate(good[:len(good)-1]); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[16], bad[17] = 0, 5 // < header size
		if _, err := DecodeUpdate(bad); err == nil {
			t.Error("want error")
		}
	})
}

func TestDecodeAttrsErrors(t *testing.T) {
	cases := map[string][]byte{
		"truncated header":  {0x40},
		"truncated extlen":  {0x50, AttrASPath, 0x00},
		"short payload":     {0x40, AttrOrigin, 5, 1},
		"origin wrong size": {0x40, AttrOrigin, 2, 0, 0},
		"med wrong size":    {0x80, AttrMED, 3, 0, 0, 0},
		"nexthop wrong":     {0x40, AttrNextHop, 3, 1, 2, 3},
		"localpref wrong":   {0x40, AttrLocalPref, 2, 0, 1},
		"communities %4":    {0xc0, AttrCommunities, 3, 1, 2, 3},
		"large comm %12":    {0xc0, AttrLargeCommunities, 4, 1, 2, 3, 4},
		"ext comm %8":       {0xc0, AttrExtCommunities, 4, 1, 2, 3, 4},
		"aspath bad type":   {0x40, AttrASPath, 3, 9, 1, 0},
		"aspath truncated":  {0x40, AttrASPath, 4, 2, 2, 0, 0},
	}
	for name, buf := range cases {
		var a PathAttributes
		if err := DecodeAttrs(buf, &a); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestDecodeAttrsSkipsUnknown(t *testing.T) {
	// Attribute 99 with 2-byte payload, then a valid ORIGIN.
	buf := []byte{0xc0, 99, 2, 0xaa, 0xbb, 0x40, AttrOrigin, 1, OriginEGP}
	var a PathAttributes
	if err := DecodeAttrs(buf, &a); err != nil {
		t.Fatal(err)
	}
	if !a.HasOrigin || a.Origin != OriginEGP {
		t.Errorf("attrs = %+v", a)
	}
}

// TestDecodeMPReach: in an UPDATE's attribute block MP_REACH_NLRI is
// framed per RFC 4760 and only its "announces something" bit is kept;
// in a RIB entry's block (DecodeAttrs) the attribute is the abbreviated
// RFC 6396 form and is skipped, however short.
func TestDecodeMPReach(t *testing.T) {
	reach := []byte{0x80, AttrMPReachNLRI, 11, 0, 2, 1, 4, 10, 0, 0, 1, 0, 8, 10} // 4-octet next hop, NLRI 10/8
	for name, tc := range map[string]struct {
		attr    []byte
		want    bool
		wantErr bool
	}{
		"announces":         {attr: reach, want: true},
		"empty NLRI":        {attr: []byte{0x80, AttrMPReachNLRI, 9, 0, 2, 1, 4, 10, 0, 0, 1, 0}},
		"truncated header":  {attr: []byte{0x80, AttrMPReachNLRI, 3, 0, 2, 1}, wantErr: true},
		"next hop overruns": {attr: []byte{0x80, AttrMPReachNLRI, 6, 0, 2, 1, 16, 10, 0}, wantErr: true},
	} {
		var a PathAttributes
		err := decodeAttrsSized(tc.attr, &a, 4, true)
		if (err != nil) != tc.wantErr || a.MPReach != tc.want {
			t.Errorf("%s: MPReach=%v err=%v, want %v (error: %v)", name, a.MPReach, err, tc.want, tc.wantErr)
		}
		a = PathAttributes{}
		if err := DecodeAttrs(tc.attr, &a); err != nil || a.MPReach {
			t.Errorf("%s as a RIB entry attribute: MPReach=%v err=%v, want skipped", name, a.MPReach, err)
		}
	}
	var a PathAttributes
	if err := decodeAttrsSized(reach, &a, 4, true); err != nil {
		t.Fatal(err)
	}
	a.ResetForReuse()
	if a.MPReach {
		t.Error("ResetForReuse kept MPReach from the previous record")
	}
}

func TestASPathWireSegmentSplit(t *testing.T) {
	// Paths longer than 255 ASNs must be split into multiple wire segments
	// and merge back into one on decode.
	asns := make([]uint32, 300)
	for i := range asns {
		asns[i] = uint32(i + 1)
	}
	p := NewASPath(asns...)
	wire := appendASPath(nil, p)
	got, err := decodeASPath(wire, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) {
		t.Errorf("round trip lost structure: %d segments", len(got.Segments))
	}
}

func TestUpdateRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var m UpdateMessage
		m.Attrs.HasOrigin = true
		m.Attrs.Origin = uint8(rng.Intn(3))
		n := 1 + rng.Intn(6)
		asns := make([]uint32, n)
		for i := range asns {
			asns[i] = uint32(1 + rng.Intn(1<<16))
		}
		m.Attrs.ASPath = NewASPath(asns...)
		nc := rng.Intn(8)
		for i := 0; i < nc; i++ {
			m.Attrs.Communities = append(m.Attrs.Communities,
				NewCommunity(uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))))
		}
		np := 1 + rng.Intn(4)
		for i := 0; i < np; i++ {
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
			m.NLRI = append(m.NLRI, PrefixFrom(addr, 8+rng.Intn(17)))
		}
		wire, err := m.Encode()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := DecodeUpdate(wire)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Attrs.ASPath.Equal(m.Attrs.ASPath) {
			t.Fatalf("trial %d: as path", trial)
		}
		if len(got.Attrs.Communities) != len(m.Attrs.Communities) {
			t.Fatalf("trial %d: communities %d != %d", trial, len(got.Attrs.Communities), len(m.Attrs.Communities))
		}
		for i := range m.Attrs.Communities {
			if got.Attrs.Communities[i] != m.Attrs.Communities[i] {
				t.Fatalf("trial %d: community %d", trial, i)
			}
		}
		if !reflect.DeepEqual(got.NLRI, m.NLRI) {
			t.Fatalf("trial %d: nlri %v != %v", trial, got.NLRI, m.NLRI)
		}
	}
}

// encode16 builds a 2-octet AS_PATH attribute payload for legacy-session
// tests.
func encode16(segType uint8, asns ...uint16) []byte {
	out := []byte{segType, byte(len(asns))}
	for _, a := range asns {
		out = append(out, byte(a>>8), byte(a))
	}
	return out
}

// encode32 builds a 4-octet AS_PATH attribute payload (AS4_PATH).
func encode32(segType uint8, asns ...uint32) []byte {
	out := []byte{segType, byte(len(asns))}
	for _, a := range asns {
		out = append(out, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return out
}

// buildLegacyUpdate assembles a full 2-octet-session UPDATE with the
// given AS_PATH and optional AS4_PATH payloads.
func buildLegacyUpdate(t *testing.T, asPath, as4Path []byte) []byte {
	t.Helper()
	var attrs []byte
	attrs = append(attrs, 0x40, AttrOrigin, 1, OriginIGP)
	attrs = append(attrs, 0x40, AttrASPath, byte(len(asPath)))
	attrs = append(attrs, asPath...)
	if as4Path != nil {
		attrs = append(attrs, 0xc0, AttrAS4Path, byte(len(as4Path)))
		attrs = append(attrs, as4Path...)
	}
	nlri := MustParsePrefix("192.0.2.0/24").AppendWire(nil)
	total := 19 + 2 + 2 + len(attrs) + len(nlri)
	out := make([]byte, 0, total)
	for i := 0; i < 16; i++ {
		out = append(out, 0xff)
	}
	out = append(out, byte(total>>8), byte(total), MsgTypeUpdate)
	out = append(out, 0, 0) // no withdrawn
	out = append(out, byte(len(attrs)>>8), byte(len(attrs)))
	out = append(out, attrs...)
	out = append(out, nlri...)
	return out
}

func TestDecodeUpdateSized2Octet(t *testing.T) {
	wire := buildLegacyUpdate(t, encode16(SegmentTypeASSequence, 65269, 7018, 1299, 64496), nil)
	m, err := DecodeUpdateSized(wire, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := NewASPath(65269, 7018, 1299, 64496)
	if !m.Attrs.ASPath.Equal(want) {
		t.Errorf("path = %v, want %v", m.Attrs.ASPath, want)
	}
	// The same bytes decoded as 4-octet must fail or mis-parse, never
	// panic.
	_, _ = DecodeUpdateSized(wire, 4)
	if _, err := DecodeUpdateSized(wire, 3); err == nil {
		t.Error("ASN width 3 accepted")
	}
}

func TestDecodeUpdateAS4PathMerge(t *testing.T) {
	// Legacy AS_PATH: [65269 23456 23456 64496]; AS4_PATH supplies the
	// true tail [196613 196614 64496]. RFC 6793: keep the leading
	// len(AS_PATH)-len(AS4_PATH)=1 hop, then the AS4_PATH.
	wire := buildLegacyUpdate(t,
		encode16(SegmentTypeASSequence, 65269, 23456, 23456, 64496),
		encode32(SegmentTypeASSequence, 196613, 196614, 64496))
	m, err := DecodeUpdateSized(wire, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := NewASPath(65269, 196613, 196614, 64496)
	if !m.Attrs.ASPath.Equal(want) {
		t.Errorf("merged path = %v, want %v", m.Attrs.ASPath, want)
	}
}

func TestDecodeUpdateAS4PathLongerIgnored(t *testing.T) {
	// An AS4_PATH longer than AS_PATH must be ignored (RFC 6793).
	wire := buildLegacyUpdate(t,
		encode16(SegmentTypeASSequence, 65269, 64496),
		encode32(SegmentTypeASSequence, 1, 2, 3, 4, 5))
	m, err := DecodeUpdateSized(wire, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := NewASPath(65269, 64496)
	if !m.Attrs.ASPath.Equal(want) {
		t.Errorf("path = %v, want %v (AS4_PATH ignored)", m.Attrs.ASPath, want)
	}
}

func TestMergeAS4PathWithSets(t *testing.T) {
	// AS_PATH: seq[10] set{20,30} seq[23456] (3 hops); AS4_PATH: seq[99999]
	// (1 hop). Keep 2 leading hops (seq[10] + the whole set), then the
	// AS4_PATH sequence.
	asPath := ASPath{Segments: []PathSegment{
		{Type: SegmentTypeASSequence, ASNs: []uint32{10}},
		{Type: SegmentTypeASSet, ASNs: []uint32{20, 30}},
		{Type: SegmentTypeASSequence, ASNs: []uint32{ASTrans}},
	}}
	as4 := NewASPath(99999)
	got := MergeAS4Path(asPath, as4)
	if got.Len() != 3 {
		t.Fatalf("merged len = %d, want 3", got.Len())
	}
	if !got.Contains(99999) || got.Contains(ASTrans) {
		t.Errorf("merged = %v", got)
	}
	if !got.Contains(20) || !got.Contains(30) {
		t.Errorf("set lost in merge: %v", got)
	}
}

// TestDecodeASPathConfedSegments: a leaked confederation path decodes
// to its real hops. The vectors are typed from RFC 5065 §3 (segment type
// 3 AS_CONFED_SEQUENCE, 4 AS_CONFED_SET, one length octet counting ASes)
// and RFC 4271 §4.3, never through this package's encoder: both
// confederation segment types are bounds-checked and dropped, as §4.1 has
// an AS outside the confederation do, and every other unknown type is
// still an error.
func TestDecodeASPathConfedSegments(t *testing.T) {
	for _, tc := range []struct {
		name     string
		asnBytes int
		wire     []byte
		want     ASPath
		wantErr  string
	}{
		{name: "confed-sequence + sequence, 4-octet", asnBytes: 4, wire: []byte{
			3, 2, 0, 0, 0xfd, 0xe9, 0, 0, 0xfd, 0xea, // AS_CONFED_SEQUENCE 65001 65002
			2, 2, 0, 0, 0x1b, 0x6a, 0, 0, 0xfb, 0xf0, // AS_SEQUENCE 7018 64496
		}, want: NewASPath(7018, 64496)},
		{name: "confed-sequence + sequence, 2-octet", asnBytes: 2, wire: []byte{
			3, 2, 0xfd, 0xe9, 0xfd, 0xea,
			2, 2, 0x1b, 0x6a, 0xfb, 0xf0,
		}, want: NewASPath(7018, 64496)},
		{name: "confed-set between two sequences", asnBytes: 4, wire: []byte{
			2, 1, 0, 0, 0xfe, 0xf5, // AS_SEQUENCE 65269
			4, 1, 0, 0, 0xfd, 0xe9, // AS_CONFED_SET {65001}
			2, 1, 0, 0, 0x1b, 0x6a, // AS_SEQUENCE 7018
		}, want: NewASPath(65269, 7018)},
		{name: "confed segments only", asnBytes: 4, wire: []byte{3, 1, 0, 0, 0xfd, 0xe9}, want: ASPath{}},
		{name: "truncated confed-sequence", asnBytes: 4, wire: []byte{
			3, 2, 0, 0, 0xfd, 0xe9, // announces two ASes, carries one
		}, wantErr: "want 10 bytes, have 6"},
		{name: "truncated confed-set, 2-octet", asnBytes: 2, wire: []byte{4, 3, 0xfd, 0xe9}, wantErr: "want 8 bytes, have 4"},
		{name: "unassigned type 5", asnBytes: 4, wire: []byte{5, 0}, wantErr: "bad segment type 5"},
		{name: "type 0", asnBytes: 4, wire: []byte{0, 1, 0, 0, 0x1b, 0x6a}, wantErr: "bad segment type 0"},
	} {
		got, err := decodeASPath(tc.wire, tc.asnBytes)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !got.Equal(tc.want):
			t.Errorf("%s: path = %v, want %v", tc.name, got, tc.want)
		}
	}

	// The same path inside an attribute block: the route keeps its
	// communities instead of failing the record.
	attrs := []byte{
		0x40, 2, 20, // AS_PATH, well-known transitive, 20 octets
		3, 2, 0, 0, 0xfd, 0xe9, 0, 0, 0xfd, 0xea,
		2, 2, 0, 0, 0x1b, 0x6a, 0, 0, 0xfb, 0xf0,
		0xc0, 8, 4, 0x1b, 0x6a, 0x13, 0x88, // COMMUNITIES 7018:5000
	}
	var a PathAttributes
	if err := DecodeAttrs(attrs, &a); err != nil {
		t.Fatal(err)
	}
	if !a.ASPath.Equal(NewASPath(7018, 64496)) || len(a.Communities) != 1 || a.Communities[0] != NewCommunity(7018, 5000) {
		t.Errorf("attrs = path %v communities %v, want 7018 64496 and 7018:5000", a.ASPath, a.Communities)
	}
}
