package dict

import (
	"bytes"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
)

func TestCategoryStrings(t *testing.T) {
	for c, want := range map[Category]string{CatUnknown: "unknown", CatAction: "action", CatInformation: "information", 9: "unknown"} {
		if got := c.String(); got != want {
			t.Errorf("Category(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestSubCategoryMapping(t *testing.T) {
	actions := []SubCategory{SubSuppress, SubAnnounce, SubSetAttribute, SubBlackhole}
	infos := []SubCategory{SubLocation, SubRelationship, SubROV, SubOtherInfo}
	for _, s := range actions {
		if s.Category() != CatAction {
			t.Errorf("%v.Category() = %v, want action", s, s.Category())
		}
	}
	for _, s := range infos {
		if s.Category() != CatInformation {
			t.Errorf("%v.Category() = %v, want information", s, s.Category())
		}
	}
	if SubNone.Category() != CatUnknown {
		t.Error("SubNone category")
	}
	for _, s := range append(append([]SubCategory{SubNone}, actions...), infos...) {
		got, ok := ParseSubCategory(s.String())
		if !ok || got != s {
			t.Errorf("ParseSubCategory(%q) = %v,%v", s.String(), got, ok)
		}
	}
}

func TestPlanAddAndBlocks(t *testing.T) {
	p := NewPlan(1299)
	// Action block 50..150 (local pref), then info block 430..431 (ROV),
	// then action block 2561..2569.
	for _, v := range []uint16{50, 150} {
		if err := p.Add(&Def{Value: v, Sub: SubSetAttribute, HasLocalPref: true, LocalPref: uint32(v)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []uint16{430, 431} {
		if err := p.Add(&Def{Value: v, Sub: SubROV, ROV: int(v - 430)}); err != nil {
			t.Fatal(err)
		}
	}
	p.BeginBlock()
	for _, v := range []uint16{2561, 2562, 2563, 2569} {
		if err := p.Add(&Def{Value: v, Sub: SubSuppress, TargetAS: 3356}); err != nil {
			t.Fatal(err)
		}
	}
	if len(p.Blocks) != 3 {
		t.Fatalf("blocks = %+v", p.Blocks)
	}
	if p.Blocks[0].Lo != 50 || p.Blocks[0].Hi != 150 || p.Blocks[0].Category() != CatAction {
		t.Errorf("block 0 = %+v", p.Blocks[0])
	}
	if p.Blocks[1].Lo != 430 || p.Blocks[1].Hi != 431 || p.Blocks[1].Category() != CatInformation {
		t.Errorf("block 1 = %+v", p.Blocks[1])
	}
	if p.Blocks[2].Lo != 2561 || p.Blocks[2].Hi != 2569 {
		t.Errorf("block 2 = %+v", p.Blocks[2])
	}
	if p.Category(430) != CatInformation || p.Category(2569) != CatAction || p.Category(9999) != CatUnknown {
		t.Error("Category lookups wrong")
	}
	if err := p.Add(&Def{Value: 50, Sub: SubSuppress}); err == nil {
		t.Error("duplicate Add: want error")
	}
	if got := p.Values(); len(got) != 8 || got[0] != 50 || got[7] != 2569 {
		t.Errorf("Values() = %v", got)
	}
}

func TestPlanBeginBlockSeparatesSamePurpose(t *testing.T) {
	p := NewPlan(1)
	p.Add(&Def{Value: 10, Sub: SubLocation})
	p.Add(&Def{Value: 11, Sub: SubLocation})
	p.BeginBlock()
	p.Add(&Def{Value: 500, Sub: SubLocation})
	if len(p.Blocks) != 2 {
		t.Fatalf("blocks = %+v", p.Blocks)
	}
	if p.Blocks[0].Hi != 11 || p.Blocks[1].Lo != 500 {
		t.Errorf("blocks = %+v", p.Blocks)
	}
}

func TestRangeRegexKnown(t *testing.T) {
	tests := []struct {
		lo, hi uint16
		match  []uint16
		reject []uint16
	}{
		{5, 5, []uint16{5}, []uint16{4, 6, 55}},
		{0, 9, []uint16{0, 5, 9}, []uint16{10}},
		{50, 150, []uint16{50, 99, 100, 150}, []uint16{49, 151, 5, 1500}},
		{2561, 2569, []uint16{2561, 2565, 2569}, []uint16{2560, 2570, 256, 25610}},
		{20000, 39999, []uint16{20000, 30000, 39999}, []uint16{19999, 40000, 2000}},
		{0, 65535, []uint16{0, 65535, 12345}, nil},
	}
	for _, tc := range tests {
		pat := RangeRegex(tc.lo, tc.hi)
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("RangeRegex(%d,%d) = %q: %v", tc.lo, tc.hi, pat, err)
		}
		for _, v := range tc.match {
			if !re.MatchString(strconv.Itoa(int(v))) {
				t.Errorf("RangeRegex(%d,%d) = %q: should match %d", tc.lo, tc.hi, pat, v)
			}
		}
		for _, v := range tc.reject {
			if re.MatchString(strconv.Itoa(int(v))) {
				t.Errorf("RangeRegex(%d,%d) = %q: should reject %d", tc.lo, tc.hi, pat, v)
			}
		}
	}
}

func TestRangeRegexExhaustiveSmall(t *testing.T) {
	// Exhaustively validate every range within 0..300: the regex must
	// match exactly the integers in [lo,hi].
	for lo := 0; lo <= 300; lo += 7 {
		for hi := lo; hi <= 300; hi += 11 {
			re := regexp.MustCompile(RangeRegex(uint16(lo), uint16(hi)))
			for v := 0; v <= 310; v++ {
				got := re.MatchString(strconv.Itoa(v))
				want := v >= lo && v <= hi
				if got != want {
					t.Fatalf("RangeRegex(%d,%d): value %d: match=%v want %v (pattern %q)",
						lo, hi, v, got, want, re.String())
				}
			}
		}
	}
}

func TestRangeRegexRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		lo := uint16(rng.Intn(65536))
		hi := uint16(rng.Intn(65536))
		if lo > hi {
			lo, hi = hi, lo
		}
		re := regexp.MustCompile(RangeRegex(lo, hi))
		// Probe boundaries and random in/out points.
		probes := []int{int(lo) - 1, int(lo), int(lo) + 1, int(hi) - 1, int(hi), int(hi) + 1}
		for i := 0; i < 20; i++ {
			probes = append(probes, rng.Intn(70000))
		}
		for _, v := range probes {
			if v < 0 {
				continue
			}
			got := re.MatchString(strconv.Itoa(v))
			want := v >= int(lo) && v <= int(hi)
			if got != want {
				t.Fatalf("RangeRegex(%d,%d): value %d: match=%v want %v (pattern %q)",
					lo, hi, v, got, want, re.String())
			}
		}
	}
}

func TestDictionaryLookup(t *testing.T) {
	d := NewDictionary()
	if err := d.Add(&Entry{ASN: 1299, Pattern: RangeRegex(2561, 2569), Sub: SubSuppress}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&Entry{ASN: 1299, Pattern: RangeRegex(20000, 39999), Sub: SubLocation}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&Entry{ASN: 3356, Pattern: RangeRegex(100, 199), Sub: SubRelationship}); err != nil {
		t.Fatal(err)
	}

	if got := d.Category(1299, 2565); got != CatAction {
		t.Errorf("1299:2565 = %v", got)
	}
	if got := d.Category(1299, 35130); got != CatInformation {
		t.Errorf("1299:35130 = %v", got)
	}
	if got := d.Category(1299, 9); got != CatUnknown {
		t.Errorf("1299:9 = %v", got)
	}
	if got := d.Category(7018, 100); got != CatUnknown {
		t.Errorf("7018:100 = %v", got)
	}
	if d.ASNs() != 2 || d.Len() != 3 {
		t.Errorf("ASNs=%d Len=%d", d.ASNs(), d.Len())
	}
}

func TestDictionaryAddBadPattern(t *testing.T) {
	d := NewDictionary()
	if err := d.Add(&Entry{ASN: 1, Pattern: "([", Sub: SubSuppress}); err == nil {
		t.Error("bad pattern: want error")
	}
}

func TestBuildFromPlan(t *testing.T) {
	p := NewPlan(1299)
	p.Add(&Def{Value: 50, Sub: SubSetAttribute})
	p.Add(&Def{Value: 150, Sub: SubSetAttribute})
	p.BeginBlock()
	p.Add(&Def{Value: 20000, Sub: SubLocation})
	p.Add(&Def{Value: 20010, Sub: SubLocation})

	d := NewDictionary()
	if err := d.BuildFromPlan(p); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("entries = %d, want 2", d.Len())
	}
	if got := d.Category(1299, 75); got != CatAction {
		t.Errorf("1299:75 = %v (range regexes cover the whole block)", got)
	}
	if got := d.Category(1299, 20005); got != CatInformation {
		t.Errorf("1299:20005 = %v", got)
	}
}

func TestDictionaryRoundTripIO(t *testing.T) {
	d := NewDictionary()
	d.Add(&Entry{ASN: 1299, Pattern: RangeRegex(2561, 2569), Sub: SubSuppress})
	d.Add(&Entry{ASN: 1299, Pattern: RangeRegex(20000, 39999), Sub: SubLocation})
	d.Add(&Entry{ASN: 174, Pattern: RangeRegex(3000, 3099), Sub: SubAnnounce})

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDictionary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.ASNs() != 2 {
		t.Fatalf("round trip: Len=%d ASNs=%d", got.Len(), got.ASNs())
	}
	if got.Category(1299, 2561) != CatAction || got.Category(174, 3050) != CatAction {
		t.Error("round trip lost categories")
	}
	if e, ok := got.Lookup(1299, 25000); !ok || e.Sub != SubLocation {
		t.Errorf("Lookup(1299, 25000) = %+v,%v", e, ok)
	}
}

func TestReadDictionaryErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields":  "1299\t^5$\n",
		"bad asn":         "x\tsuppress\t^5$\n",
		"bad subcategory": "1299\tfrobnicate\t^5$\n",
		"bad pattern":     "1299\tsuppress\t([\n",
	}
	for name, in := range cases {
		if _, err := ReadDictionary(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// Comments and blanks are fine.
	d, err := ReadDictionary(bytes.NewBufferString("# header\n\n1299\tsuppress\t^5$\n"))
	if err != nil || d.Len() != 1 {
		t.Errorf("comment handling: %v %d", err, d.Len())
	}
}
