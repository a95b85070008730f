package bgp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestCommunityParts(t *testing.T) {
	c := NewCommunity(1299, 2569)
	if got := c.ASN(); got != 1299 {
		t.Errorf("ASN() = %d, want 1299", got)
	}
	if got := c.Value(); got != 2569 {
		t.Errorf("Value() = %d, want 2569", got)
	}
	if got := c.String(); got != "1299:2569" {
		t.Errorf("String() = %q, want \"1299:2569\"", got)
	}
}

func TestCommunityRoundTripQuick(t *testing.T) {
	f := func(asn, val uint16) bool {
		c := NewCommunity(asn, val)
		return c.ASN() == asn && c.Value() == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCommunity(t *testing.T) {
	tests := []struct {
		in      string
		want    Community
		wantErr bool
	}{
		{"1299:2569", NewCommunity(1299, 2569), false},
		{"0:0", NewCommunity(0, 0), false},
		{"65535:65535", NewCommunity(65535, 65535), false},
		{"3356:0", NewCommunity(3356, 0), false},
		{"65536:1", 0, true},     // ASN overflows 16 bits
		{"1:65536", 0, true},     // value overflows 16 bits
		{"1299", 0, true},        // missing colon
		{"a:b", 0, true},         // not numeric
		{"-1:5", 0, true},        // negative
		{"1299:2569:1", 0, true}, // too many parts for a regular community
		{"", 0, true},
	}
	for _, tc := range tests {
		got, err := ParseCommunity(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseCommunity(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCommunity(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseCommunity(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseCommunityStringRoundTripQuick(t *testing.T) {
	f := func(asn, val uint16) bool {
		c := NewCommunity(asn, val)
		got, err := ParseCommunity(c.String())
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWellKnownCommunities(t *testing.T) {
	if got := CommunityNoExport.String(); got != "65535:65281" {
		t.Errorf("NO_EXPORT = %q, want 65535:65281", got)
	}
	if got := CommunityBlackhole.String(); got != "65535:666" {
		t.Errorf("BLACKHOLE = %q, want 65535:666", got)
	}
	if got := CommunityGracefulShutdown.String(); got != "65535:0" {
		t.Errorf("GSHUT = %q, want 65535:0", got)
	}
	if got := CommunityNoPeer.String(); got != "65535:65284" {
		t.Errorf("NOPEER = %q, want 65535:65284", got)
	}
	for _, c := range []Community{
		CommunityGracefulShutdown, CommunityBlackhole, CommunityNoExport,
		CommunityNoAdvertise, CommunityNoExportSubconfed, CommunityNoPeer,
	} {
		if !c.IsWellKnown() {
			t.Errorf("%v.IsWellKnown() = false, want true", c)
		}
	}
	if NewCommunity(1299, 2569).IsWellKnown() {
		t.Error("1299:2569 flagged well-known")
	}
}

func TestIsPrivateASN(t *testing.T) {
	tests := []struct {
		c    Community
		want bool
	}{
		{NewCommunity(64511, 1), false},
		{NewCommunity(64512, 1), true}, // first private ASN
		{NewCommunity(65000, 1), true},
		{NewCommunity(65534, 1), true}, // last private ASN
		{NewCommunity(65535, 1), true}, // reserved; also not classifiable
		{NewCommunity(1299, 1), false},
	}
	for _, tc := range tests {
		if got := tc.c.IsPrivateASN(); got != tc.want {
			t.Errorf("%v.IsPrivateASN() = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestCommunitiesHas(t *testing.T) {
	cs := Communities{NewCommunity(1299, 50), NewCommunity(3356, 100)}
	if !cs.Has(NewCommunity(1299, 50)) {
		t.Error("Has existing = false")
	}
	if cs.Has(NewCommunity(1299, 51)) {
		t.Error("Has missing = true")
	}
	var empty Communities
	if empty.Has(NewCommunity(1, 1)) {
		t.Error("empty set Has = true")
	}
}

func TestCommunitiesCanonical(t *testing.T) {
	cs := Communities{
		NewCommunity(3356, 100),
		NewCommunity(1299, 50),
		NewCommunity(3356, 100),
		NewCommunity(1299, 50),
		NewCommunity(1299, 49),
	}
	got := cs.Canonical()
	want := Communities{
		NewCommunity(1299, 49),
		NewCommunity(1299, 50),
		NewCommunity(3356, 100),
	}
	if len(got) != len(want) {
		t.Fatalf("Canonical len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Canonical[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Original must be untouched.
	if cs[0] != NewCommunity(3356, 100) {
		t.Error("Canonical mutated its receiver")
	}
	if got := Communities(nil).Canonical(); got != nil {
		t.Errorf("nil Canonical = %v, want nil", got)
	}
}

func TestCommunitiesCanonicalQuick(t *testing.T) {
	// Property: canonical form is sorted and duplicate-free, and contains
	// exactly the distinct input values.
	f := func(vals []uint32) bool {
		cs := make(Communities, len(vals))
		set := make(map[Community]bool)
		for i, v := range vals {
			cs[i] = Community(v)
			set[Community(v)] = true
		}
		canon := cs.Canonical()
		if len(canon) != len(set) {
			return false
		}
		for i, c := range canon {
			if !set[c] {
				return false
			}
			if i > 0 && canon[i-1] >= c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCommunitiesSortMatchesReference checks Sort against a sort.Slice
// reference on random lists dense in duplicates (α and β drawn from small
// ranges, so equal α with different β are common too), and that it
// allocates nothing: every simulated view goes through Canonical's sort.
func TestCommunitiesSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		cs := make(Communities, rng.Intn(40))
		for i := range cs {
			cs[i] = NewCommunity(uint16(65530+rng.Intn(6)), uint16(rng.Intn(8)))
		}
		want := slices.Clone(cs)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		cs.Sort()
		if !slices.Equal(cs, want) {
			t.Fatalf("trial %d: Sort = %v, want %v", trial, cs, want)
		}
	}
	cs := make(Communities, 16)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range cs {
			cs[i] = Community(uint32(len(cs)-i) * 0x10001)
		}
		cs.Sort()
	}); allocs != 0 {
		t.Errorf("Sort allocates %.1f times per call, want 0", allocs)
	}
}

func TestCommunitiesString(t *testing.T) {
	cs := Communities{NewCommunity(1299, 50), NewCommunity(1299, 150)}
	if got := cs.String(); got != "1299:50 1299:150" {
		t.Errorf("String() = %q", got)
	}
	if got := (Communities{}).String(); got != "" {
		t.Errorf("empty String() = %q, want \"\"", got)
	}
}

func TestLargeCommunityString(t *testing.T) {
	lc := LargeCommunity{GlobalAdmin: 197000, LocalData1: 100, LocalData2: 7}
	if got := lc.String(); got != "197000:100:7" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseLargeCommunity(t *testing.T) {
	lc, err := ParseLargeCommunity("4200000000:1:2")
	if err != nil {
		t.Fatal(err)
	}
	if lc.GlobalAdmin != 4200000000 || lc.LocalData1 != 1 || lc.LocalData2 != 2 {
		t.Errorf("got %+v", lc)
	}
	for _, bad := range []string{"1:2", "1:2:3:4", "a:1:2", "1:2:4294967296", ""} {
		if _, err := ParseLargeCommunity(bad); err == nil {
			t.Errorf("ParseLargeCommunity(%q): want error", bad)
		}
	}
}

func TestParseLargeCommunityRoundTripQuick(t *testing.T) {
	f := func(a, b, c uint32) bool {
		lc := LargeCommunity{a, b, c}
		got, err := ParseLargeCommunity(lc.String())
		return err == nil && got == lc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLargeCommunitiesSort(t *testing.T) {
	ls := LargeCommunities{
		{2, 0, 0},
		{1, 5, 5},
		{1, 5, 4},
		{1, 4, 9},
	}
	ls.Sort()
	want := LargeCommunities{{1, 4, 9}, {1, 5, 4}, {1, 5, 5}, {2, 0, 0}}
	for i := range want {
		if ls[i] != want[i] {
			t.Errorf("Sort[%d] = %v, want %v", i, ls[i], want[i])
		}
	}
}

func TestExtendedCommunity(t *testing.T) {
	ec := ExtendedCommunity{Type: ExtCommTypeTransitive4ByteAS, SubType: 2, Global: 196615, Local: 300}
	if !ec.IsFourOctetAS() {
		t.Error("IsFourOctetAS = false")
	}
	if got := ec.String(); got != "196615:300" {
		t.Errorf("String() = %q", got)
	}
	opaque := ExtendedCommunity{Type: 0x03, SubType: 0x0c, Global: 1, Local: 2}
	if opaque.IsFourOctetAS() {
		t.Error("opaque IsFourOctetAS = true")
	}
	if got := opaque.String(); got != "ext(0x03:0x0c):1:2" {
		t.Errorf("opaque String() = %q", got)
	}
}

func TestCommunitiesClone(t *testing.T) {
	cs := Communities{NewCommunity(1, 2)}
	c2 := cs.Clone()
	c2[0] = NewCommunity(3, 4)
	if cs[0] != NewCommunity(1, 2) {
		t.Error("Clone shares backing array")
	}
	if Communities(nil).Clone() != nil {
		t.Error("nil Clone != nil")
	}
}

func TestParseCommunities(t *testing.T) {
	for _, tc := range []struct {
		in        string
		want      Communities
		wantLarge LargeCommunities
	}{
		{"", nil, nil},
		{"   ", nil, nil},
		{"2914:3075", Communities{NewCommunity(2914, 3075)}, nil},
		{"2914:3075 2914:420", Communities{NewCommunity(2914, 3075), NewCommunity(2914, 420)}, nil},
		{"2914:3075,2914:420", Communities{NewCommunity(2914, 3075), NewCommunity(2914, 420)}, nil},
		{"2914:3075, 2914:420\t1299:20", Communities{
			NewCommunity(2914, 3075), NewCommunity(2914, 420), NewCommunity(1299, 20)}, nil},
		{"4200000000:1:2", nil, LargeCommunities{{4200000000, 1, 2}}},
		{"2914:3075 57866:100:1,2914:420", Communities{NewCommunity(2914, 3075), NewCommunity(2914, 420)},
			LargeCommunities{{57866, 100, 1}}},
	} {
		got, gotLarge, err := ParseCommunities(tc.in)
		if err != nil {
			t.Errorf("ParseCommunities(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) || len(gotLarge) != len(tc.wantLarge) {
			t.Errorf("ParseCommunities(%q) = %v, %v, want %v, %v", tc.in, got, gotLarge, tc.want, tc.wantLarge)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseCommunities(%q)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
		for i := range gotLarge {
			if gotLarge[i] != tc.wantLarge[i] {
				t.Errorf("ParseCommunities(%q) large[%d] = %v, want %v", tc.in, i, gotLarge[i], tc.wantLarge[i])
			}
		}
	}
	for _, bad := range []string{"2914", "2914:x", "70000:1", "2914:3075 nope", "1:2:3:4", "1:2:x"} {
		if _, _, err := ParseCommunities(bad); err == nil {
			t.Errorf("ParseCommunities(%q) accepted", bad)
		}
	}
}
