package bgp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewASPathBasics(t *testing.T) {
	p := NewASPath(65269, 7018, 1299, 64496)
	if p.Empty() {
		t.Fatal("Empty() = true")
	}
	if got := p.Len(); got != 4 {
		t.Errorf("Len() = %d, want 4", got)
	}
	if origin, ok := p.Origin(); !ok || origin != 64496 {
		t.Errorf("Origin() = %d,%v", origin, ok)
	}
	if !p.Contains(1299) || p.Contains(3356) {
		t.Error("Contains misbehaves")
	}
	if got := p.String(); got != "65269 7018 1299 64496" {
		t.Errorf("String() = %q", got)
	}
}

func TestEmptyASPath(t *testing.T) {
	var p ASPath
	if !p.Empty() {
		t.Error("zero path not Empty")
	}
	if _, ok := p.Origin(); ok {
		t.Error("Origin of empty path ok")
	}
	if p.Len() != 0 {
		t.Error("Len of empty path != 0")
	}
	if p.Key() != "" {
		t.Errorf("Key of empty path = %q", p.Key())
	}
}

func TestASPathPrepend(t *testing.T) {
	p := NewASPath(3356, 64496)
	p.Prepend(1299, 3)
	want := []uint32{1299, 1299, 1299, 3356, 64496}
	if got := p.Flatten(); !reflect.DeepEqual(got, want) {
		t.Errorf("Flatten() = %v, want %v", got, want)
	}
	if got := p.Len(); got != 5 {
		t.Errorf("Len() = %d, want 5", got)
	}

	// Prepending onto an empty path creates a sequence.
	var q ASPath
	q.Prepend(7018, 1)
	if got := q.Flatten(); !reflect.DeepEqual(got, []uint32{7018}) {
		t.Errorf("Flatten() = %v", got)
	}

	// Prepending onto a leading AS_SET creates a new sequence segment.
	r := ASPath{Segments: []PathSegment{{Type: SegmentTypeASSet, ASNs: []uint32{1, 2}}}}
	r.Prepend(9, 2)
	if len(r.Segments) != 2 || r.Segments[0].Type != SegmentTypeASSequence {
		t.Fatalf("segments = %+v", r.Segments)
	}
	if got := r.Len(); got != 3 { // 2 prepends + set counts as 1
		t.Errorf("Len() = %d, want 3", got)
	}

	// Zero or negative counts are no-ops.
	s := NewASPath(5)
	s.Prepend(6, 0)
	s.Prepend(6, -1)
	if got := s.Flatten(); !reflect.DeepEqual(got, []uint32{5}) {
		t.Errorf("Flatten() = %v", got)
	}
}

func TestASPathSetHandling(t *testing.T) {
	p := ASPath{Segments: []PathSegment{
		{Type: SegmentTypeASSequence, ASNs: []uint32{100, 200}},
		{Type: SegmentTypeASSet, ASNs: []uint32{300, 400}},
	}}
	if got := p.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3 (set counts once)", got)
	}
	if origin, ok := p.Origin(); !ok || origin != 300 {
		t.Errorf("Origin() = %d,%v, want 300 (first set member)", origin, ok)
	}
	if got := p.Key(); got != "100 200 {300,400}" {
		t.Errorf("Key() = %q", got)
	}
	if !p.Contains(400) {
		t.Error("Contains(400) = false")
	}
}

func TestASPathCloneIndependence(t *testing.T) {
	p := NewASPath(1, 2, 3)
	q := p.Clone()
	q.Prepend(9, 1)
	q.Segments[0].ASNs[1] = 77
	if !reflect.DeepEqual(p.Flatten(), []uint32{1, 2, 3}) {
		t.Errorf("Clone shares storage: %v", p.Flatten())
	}
}

func TestASPathEqual(t *testing.T) {
	a := NewASPath(1, 2, 3)
	b := NewASPath(1, 2, 3)
	c := NewASPath(1, 2)
	d := ASPath{Segments: []PathSegment{{Type: SegmentTypeASSet, ASNs: []uint32{1, 2, 3}}}}
	if !a.Equal(b) {
		t.Error("a != b")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("unequal paths compared equal")
	}
}

func TestParseASPath(t *testing.T) {
	tests := []struct {
		in   string
		want ASPath
	}{
		{"65269 7018 1299 64496", NewASPath(65269, 7018, 1299, 64496)},
		{"", ASPath{}},
		{"100 {200,300} 400", ASPath{Segments: []PathSegment{
			{Type: SegmentTypeASSequence, ASNs: []uint32{100}},
			{Type: SegmentTypeASSet, ASNs: []uint32{200, 300}},
			{Type: SegmentTypeASSequence, ASNs: []uint32{400}},
		}}},
	}
	for _, tc := range tests {
		got, err := ParseASPath(tc.in)
		if err != nil {
			t.Errorf("ParseASPath(%q): %v", tc.in, err)
			continue
		}
		if !got.Equal(tc.want) {
			t.Errorf("ParseASPath(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"1 2 x", "{1,2", "{a}", "99999999999999999999"} {
		if _, err := ParseASPath(bad); err == nil {
			t.Errorf("ParseASPath(%q): want error", bad)
		}
	}
}

func TestASPathKeyRoundTripQuick(t *testing.T) {
	// Property: Key -> ParseASPath -> Key is the identity for random
	// sequence-only paths.
	f := func(asns []uint32) bool {
		if len(asns) > 64 {
			asns = asns[:64]
		}
		p := NewASPath(asns...)
		q, err := ParseASPath(p.Key())
		return err == nil && q.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestASPathKeyRoundTripWithSets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var p ASPath
		nseg := 1 + rng.Intn(4)
		for s := 0; s < nseg; s++ {
			segType := SegmentTypeASSequence
			if rng.Intn(3) == 0 {
				segType = SegmentTypeASSet
			}
			n := 1 + rng.Intn(5)
			asns := make([]uint32, n)
			for i := range asns {
				asns[i] = uint32(rng.Intn(1 << 20))
			}
			// Adjacent sequences merge on parse; force alternation for a
			// canonical structure.
			if ls := len(p.Segments); ls > 0 && p.Segments[ls-1].Type == SegmentTypeASSequence && segType == SegmentTypeASSequence {
				segType = SegmentTypeASSet
			}
			p.Segments = append(p.Segments, PathSegment{Type: segType, ASNs: asns})
		}
		q, err := ParseASPath(p.Key())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !q.Equal(p) {
			t.Fatalf("trial %d: round trip %q -> %q", trial, p.Key(), q.Key())
		}
	}
}
