package asrel

import (
	"bytes"
	"testing"

	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.SetP2C(1299, 64496)
	g.SetP2P(1299, 3356)

	if !g.IsCustomerOf(64496, 1299) {
		t.Error("64496 should be customer of 1299")
	}
	if g.IsCustomerOf(1299, 64496) {
		t.Error("1299 is not customer of 64496")
	}
	if !g.IsPeer(1299, 3356) || !g.IsPeer(3356, 1299) {
		t.Error("peering not symmetric")
	}
	if g.IsPeer(1299, 64496) {
		t.Error("p2c reported as peer")
	}
	if _, _, ok := g.Rel(5, 6); ok {
		t.Error("unknown pair reported known")
	}
	rel, aProv, ok := g.Rel(64496, 1299)
	if !ok || rel != RelP2C || aProv {
		t.Errorf("Rel(64496,1299) = %v %v %v", rel, aProv, ok)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGraphOverwriteOrientation(t *testing.T) {
	g := NewGraph()
	g.SetP2C(10, 20)
	g.SetP2C(20, 10) // re-learned in the other direction
	if !g.IsCustomerOf(10, 20) {
		t.Error("orientation not updated")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1 (same pair)", g.Len())
	}
}

func TestInferSimpleHierarchy(t *testing.T) {
	// Star: AS1 is the high-degree core; stubs 10..13 hang off it, and
	// paths transit AS1.
	paths := [][]uint32{
		{10, 1, 11},
		{11, 1, 12},
		{12, 1, 13},
		{13, 1, 10},
		{10, 1, 12},
		{11, 1, 13},
	}
	g := Infer(paths)
	for _, stub := range []uint32{10, 11, 12, 13} {
		if !g.IsCustomerOf(stub, 1) {
			t.Errorf("AS%d should be inferred customer of AS1", stub)
		}
	}
}

func TestInferPeersAtTop(t *testing.T) {
	// Two cores peer; each has its own customers. Paths cross the
	// core-core link at the top.
	paths := [][]uint32{
		{10, 1, 2, 20},
		{11, 1, 2, 21},
		{12, 1, 2, 20},
		{10, 1, 2, 21},
		{20, 2, 1, 11},
		{21, 2, 1, 12},
		{10, 1, 11},
		{20, 2, 21},
	}
	g := Infer(paths)
	rel, _, ok := g.Rel(1, 2)
	if !ok {
		t.Fatal("1-2 not inferred")
	}
	if rel != RelP2P {
		t.Errorf("1-2 inferred %v, want p2p", rel)
	}
	if !g.IsCustomerOf(10, 1) || !g.IsCustomerOf(20, 2) {
		t.Error("customers not inferred")
	}
}

func TestInferHandlesPrependsAndShortPaths(t *testing.T) {
	paths := [][]uint32{
		{10},               // too short: ignored
		{10, 10, 1, 1, 11}, // prepends collapse
		{11, 1, 10},
	}
	g := Infer(paths)
	if g.Len() == 0 {
		t.Fatal("nothing inferred")
	}
	if _, _, ok := g.Rel(10, 1); !ok {
		t.Error("10-1 not inferred despite prepends")
	}
}

func TestInferOnSimulatedCorpus(t *testing.T) {
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate.New(topo, simulate.TinyConfig())
	day := sim.RunDay(0)
	paths := make([][]uint32, 0, len(day.Views))
	for _, v := range day.Views {
		paths = append(paths, v.Path)
	}
	g := Infer(paths)
	if g.Len() == 0 {
		t.Fatal("no relationships inferred")
	}

	// Score against ground truth for pairs the inference covered.
	correct, wrong := 0, 0
	for asn, a := range topo.ASes {
		for _, c := range a.Customers {
			rel, aProv, ok := g.Rel(asn, c)
			if !ok {
				continue
			}
			if rel == RelP2C && aProv {
				correct++
			} else {
				wrong++
			}
		}
		for _, p := range a.Peers {
			if asn > p {
				continue
			}
			rel, _, ok := g.Rel(asn, p)
			if !ok {
				continue
			}
			if rel == RelP2P {
				correct++
			} else {
				wrong++
			}
		}
	}
	total := correct + wrong
	if total == 0 {
		t.Fatal("no overlapping pairs scored")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.80 {
		t.Errorf("relationship inference accuracy = %.3f (%d/%d), want >= 0.80", acc, correct, total)
	}
	t.Logf("gao accuracy on simulated corpus: %.3f (%d pairs)", acc, total)
}

// TestGraphIORoundTrip pins the as-rel text WriteTo renders, the file
// gencorpus ships.
func TestGraphIORoundTrip(t *testing.T) {
	g := NewGraph()
	g.SetP2C(1299, 64496)
	g.SetP2C(64500, 64501)
	g.SetP2P(1299, 3356)

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The CAIDA AS-relationship lines, sorted by the pair's smaller ASN.
	want := "1299|3356|0\n1299|64496|-1\n64500|64501|-1\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteTo wrote %q, want %q", got, want)
	}
}

func TestOrgMap(t *testing.T) {
	m := NewOrgMap()
	m.Set(1299, "org-arelion")
	m.Set(1300, "org-arelion")
	m.Set(3356, "org-lumen")

	if !m.Siblings(1299, 1300) || !m.Siblings(1300, 1299) {
		t.Error("siblings not symmetric")
	}
	if m.Siblings(1299, 3356) {
		t.Error("different orgs reported siblings")
	}
	if m.Siblings(1299, 1299) {
		t.Error("self-sibling")
	}
	if m.Siblings(1299, 9999) || m.Siblings(9999, 9998) {
		t.Error("unknown ASNs reported siblings")
	}
	if o, ok := m.Org(1299); !ok || o != "org-arelion" {
		t.Errorf("Org = %q %v", o, ok)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestOrgMapIORoundTrip(t *testing.T) {
	m := NewOrgMap()
	m.Set(1, "o1")
	m.Set(2, "o1")
	m.Set(3, "o2")
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOrgMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || !got.Siblings(1, 2) || got.Siblings(1, 3) {
		t.Error("round trip mismatch")
	}
}

func TestReadOrgMapErrors(t *testing.T) {
	for name, in := range map[string]string{
		"fields": "1\n",
		"asn":    "x|org\n",
		"empty":  "1|\n",
	} {
		if _, err := ReadOrgMap(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
