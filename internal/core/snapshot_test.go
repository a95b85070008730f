package core

import (
	"bytes"
	"reflect"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// buildTestInferences classifies a small hand-built store exercising
// all verdicts: classified clusters, a private-ASN exclusion, and a
// never-on-path exclusion.
func buildTestInferences(t *testing.T) (*TupleStore, *Inferences) {
	t.Helper()
	ts := NewTupleStore()
	// AS 100 on-path with an information community, plus an off-path
	// action community far away (gap > MinGap splits them).
	ts.AddView(900, []uint32{900, 100, 200}, []bgp.Community{bgp.NewCommunity(100, 10)})
	ts.AddView(901, []uint32{901, 300, 400}, []bgp.Community{
		bgp.NewCommunity(100, 9000), // off-path for AS 100 -> action
		bgp.NewCommunity(64512, 77), // private ASN -> excluded
		bgp.NewCommunity(500, 1),    // AS 500 never on any path -> excluded
	})
	inf := Classify(ts, Options{MinGap: 140, RatioThreshold: 160})
	return ts, inf
}

func TestLookupVerdicts(t *testing.T) {
	_, inf := buildTestInferences(t)

	info := inf.Lookup(bgp.NewCommunity(100, 10))
	if !info.Observed || info.Category != dict.CatInformation || info.Reason != ExcludeNone {
		t.Fatalf("100:10 = %+v, want observed information", info)
	}
	if info.Cluster == nil || info.Cluster.Alpha != 100 || info.Cluster.Lo != 10 || info.Cluster.Hi != 10 {
		t.Fatalf("100:10 cluster = %+v", info.Cluster)
	}
	if info.Stats.OnPath != 1 || info.Stats.OffPath != 0 {
		t.Fatalf("100:10 stats = %+v, want on=1 off=0", info.Stats)
	}

	act := inf.Lookup(bgp.NewCommunity(100, 9000))
	if act.Category != dict.CatAction || act.Cluster == nil {
		t.Fatalf("100:9000 = %+v, want action with cluster", act)
	}
	if act.Stats.OnPath != 0 || act.Stats.OffPath != 1 {
		t.Fatalf("100:9000 stats = %+v, want on=0 off=1", act.Stats)
	}

	priv := inf.Lookup(bgp.NewCommunity(64512, 77))
	if !priv.Observed || priv.Reason != ExcludePrivateASN || priv.Cluster != nil {
		t.Fatalf("64512:77 = %+v, want observed private-asn exclusion", priv)
	}
	if priv.Stats.OffPath != 1 {
		t.Fatalf("64512:77 stats = %+v, want the observation evidence", priv.Stats)
	}

	nop := inf.Lookup(bgp.NewCommunity(500, 1))
	if !nop.Observed || nop.Reason != ExcludeNeverOnPath {
		t.Fatalf("500:1 = %+v, want never-on-path exclusion", nop)
	}

	ghost := inf.Lookup(bgp.NewCommunity(4242, 4242))
	if ghost.Observed || ghost.Reason != ExcludeUnobserved || ghost.Category != dict.CatUnknown {
		t.Fatalf("4242:4242 = %+v, want unobserved", ghost)
	}

	if want := 4; inf.Observed() != want {
		t.Fatalf("Observed() = %d, want %d", inf.Observed(), want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	_, inf := buildTestInferences(t)
	meta := SnapshotMeta{
		CreatedUnix: 1714521600, Source: "test",
		Tuples: 2, Paths: 2, VantagePoints: 2, Communities: 4, LargeCommunities: 0,
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, inf, meta); err != nil {
		t.Fatal(err)
	}

	// Meta is readable without the body.
	gotMeta, err := ReadSnapshotMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}

	got, gotMeta2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta2 != meta {
		t.Fatalf("meta via ReadSnapshot = %+v, want %+v", gotMeta2, meta)
	}
	if !reflect.DeepEqual(got.Labels, inf.Labels) {
		t.Fatalf("labels differ: got %v want %v", got.Labels, inf.Labels)
	}
	if !reflect.DeepEqual(got.Excluded, inf.Excluded) {
		t.Fatalf("exclusions differ: got %v want %v", got.Excluded, inf.Excluded)
	}
	if !reflect.DeepEqual(got.Clusters, inf.Clusters) {
		t.Fatalf("clusters differ")
	}
	// Lookup is fully rebuilt, including excluded-community evidence.
	for _, c := range []bgp.Community{
		bgp.NewCommunity(100, 10), bgp.NewCommunity(100, 9000),
		bgp.NewCommunity(64512, 77), bgp.NewCommunity(500, 1),
		bgp.NewCommunity(4242, 4242),
	} {
		a, b := inf.Lookup(c), got.Lookup(c)
		a.Cluster, b.Cluster = nil, nil // compared separately above
		if a != b {
			t.Fatalf("Lookup(%v) differs after round trip: %+v vs %+v", c, a, b)
		}
	}

	// Identical inferences serialize to identical bytes.
	var buf2 bytes.Buffer
	if err := WriteSnapshot(&buf2, inf, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot bytes are not deterministic")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	_, inf := buildTestInferences(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, inf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a byte in the body (past header+meta): checksum must catch it.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-10] ^= 0xff
	if _, _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt body accepted")
	}

	// Bad magic.
	corrupt = append([]byte(nil), raw...)
	corrupt[0] = 'X'
	if _, _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Unsupported version.
	corrupt = append([]byte(nil), raw...)
	corrupt[9] = 99
	if _, _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("future version accepted")
	}

	// Truncation.
	if _, _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}
