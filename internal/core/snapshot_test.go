package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// buildTestInferences classifies a small hand-built store exercising
// all verdicts: classified clusters, a private-ASN exclusion, and a
// never-on-path exclusion.
func buildTestInferences(t testing.TB) (*TupleStore, *Inferences) {
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

	info := inf.Verdict(bgp.NewCommunity(100, 10))
	if !info.Observed || info.Category != dict.CatInformation || info.Reason != ExcludeNone {
		t.Fatalf("100:10 = %+v, want observed information", info)
	}
	if !info.HasCluster || info.Cluster.Alpha != 100 || info.Cluster.Lo != 10 || info.Cluster.Hi != 10 {
		t.Fatalf("100:10 cluster = %+v", info.Cluster)
	}
	if info.Stats.OnPath != 1 || info.Stats.OffPath != 0 {
		t.Fatalf("100:10 stats = %+v, want on=1 off=0", info.Stats)
	}

	act := inf.Verdict(bgp.NewCommunity(100, 9000))
	if act.Category != dict.CatAction || !act.HasCluster {
		t.Fatalf("100:9000 = %+v, want action with cluster", act)
	}
	if act.Stats.OnPath != 0 || act.Stats.OffPath != 1 {
		t.Fatalf("100:9000 stats = %+v, want on=0 off=1", act.Stats)
	}

	priv := inf.Verdict(bgp.NewCommunity(64512, 77))
	if !priv.Observed || priv.Reason != ExcludePrivateASN || priv.HasCluster {
		t.Fatalf("64512:77 = %+v, want observed private-asn exclusion", priv)
	}
	if priv.Stats.OffPath != 1 {
		t.Fatalf("64512:77 stats = %+v, want the observation evidence", priv.Stats)
	}

	nop := inf.Verdict(bgp.NewCommunity(500, 1))
	if !nop.Observed || nop.Reason != ExcludeNeverOnPath {
		t.Fatalf("500:1 = %+v, want never-on-path exclusion", nop)
	}

	ghost := inf.Verdict(bgp.NewCommunity(4242, 4242))
	if ghost.Observed || ghost.Reason != ExcludeUnobserved || ghost.Category != dict.CatUnknown {
		t.Fatalf("4242:4242 = %+v, want unobserved", ghost)
	}

	if want := 4; inf.Observed() != want {
		t.Fatalf("Observed() = %d, want %d", inf.Observed(), want)
	}
}

// buildMixedInferences is buildTestInferences with RFC 8092 large
// communities riding on the same views, so the result carries large
// clusters and a large exclusion — the inputs that make the writer emit
// the four large sections.
func buildMixedInferences(t testing.TB) *Inferences {
	t.Helper()
	ts := NewTupleStore()
	ts.AddViewLarge(900, []uint32{900, 100, 200},
		[]bgp.Community{bgp.NewCommunity(100, 10)},
		[]bgp.LargeCommunity{{GlobalAdmin: 100, LocalData1: 1, LocalData2: 10}})
	ts.AddViewLarge(901, []uint32{901, 300, 400},
		[]bgp.Community{bgp.NewCommunity(100, 9000), bgp.NewCommunity(64512, 77), bgp.NewCommunity(500, 1)},
		[]bgp.LargeCommunity{
			{GlobalAdmin: 100, LocalData1: 1, LocalData2: 9000}, // off-path for AS 100 -> action
			{GlobalAdmin: 500, LocalData1: 1, LocalData2: 1},    // never on any path -> excluded
		})
	inf := Classify(ts, Options{MinGap: 140, RatioThreshold: 160})
	if inf.large.ClusterCount() == 0 || inf.large.ExcludedCount() == 0 {
		t.Fatalf("mixed fixture has %d large clusters, %d large exclusions; want both",
			inf.large.ClusterCount(), inf.large.ExcludedCount())
	}
	return inf
}

// writeFlat serializes inf into snapshot bytes.
func writeFlat(t testing.TB, inf *Inferences, meta SnapshotMeta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshotFlat(&buf, inf, meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip: write → streamed read gives back the same
// inferences and meta, for a classic-only set (version byte 2) and a
// mixed one (version byte 3, large sections present).
func TestSnapshotRoundTrip(t *testing.T) {
	_, classic := buildTestInferences(t)
	for _, tc := range []struct {
		name    string
		inf     *Inferences
		version byte
	}{
		{"classic", classic, snapshotVersionClassic},
		{"mixed", buildMixedInferences(t), snapshotVersionLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inf := tc.inf
			meta := SnapshotMeta{
				CreatedUnix: 1714521600, Source: "test",
				Tuples: 2, Paths: 2, VantagePoints: 2, Communities: 4, LargeCommunities: inf.large.Observed(),
			}
			raw := writeFlat(t, inf, meta)
			if raw[9] != tc.version {
				t.Fatalf("version byte = %d, want %d", raw[9], tc.version)
			}

			gotMeta, err := ReadSnapshotMeta(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if gotMeta != meta {
				t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
			}

			got, gotMeta2, err := ReadSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if gotMeta2 != meta {
				t.Fatalf("meta via ReadSnapshot = %+v, want %+v", gotMeta2, meta)
			}
			if g, w := labelsOf(got), labelsOf(inf); !reflect.DeepEqual(g, w) {
				t.Fatalf("labels differ: got %v want %v", g, w)
			}
			if g, w := excludedOf(&got.kindView), excludedOf(&inf.kindView); !reflect.DeepEqual(g, w) {
				t.Fatalf("exclusions differ: got %v want %v", g, w)
			}
			if !reflect.DeepEqual(summaries(got), summaries(inf)) {
				t.Fatalf("clusters differ")
			}
			if !reflect.DeepEqual(labelsOf(got.Large()), labelsOf(inf.Large())) ||
				!reflect.DeepEqual(excludedOf(&got.large), excludedOf(&inf.large)) ||
				!reflect.DeepEqual(summaries(got.Large()), summaries(inf.Large())) {
				t.Fatalf("large inferences differ after round trip")
			}
			// Every verdict reads alike, including excluded-community
			// evidence and the deciding cluster's summary.
			for _, c := range []bgp.Community{
				bgp.NewCommunity(100, 10), bgp.NewCommunity(100, 9000),
				bgp.NewCommunity(64512, 77), bgp.NewCommunity(500, 1),
				bgp.NewCommunity(4242, 4242),
			} {
				if a, b := inf.Verdict(c), got.Verdict(c); a != b {
					t.Fatalf("Verdict(%v) differs after round trip: %+v vs %+v", c, a, b)
				}
			}
			for _, lc := range []bgp.LargeCommunity{
				{GlobalAdmin: 100, LocalData1: 1, LocalData2: 10}, {GlobalAdmin: 100, LocalData1: 1, LocalData2: 9000},
				{GlobalAdmin: 500, LocalData1: 1, LocalData2: 1}, {GlobalAdmin: 4242, LocalData1: 1, LocalData2: 4242},
			} {
				if a, b := inf.large.Verdict(lc), got.large.Verdict(lc); a != b {
					t.Fatalf("large Verdict(%v) differs after round trip: %+v vs %+v", lc, a, b)
				}
			}

			// Identical inferences serialize to identical bytes, and the
			// inferences read back write the file they were read from.
			if !bytes.Equal(raw, writeFlat(t, inf, meta)) {
				t.Fatal("snapshot bytes are not deterministic")
			}
			if !bytes.Equal(raw, writeFlat(t, got, meta)) {
				t.Fatal("re-serializing the inferences read back moved bytes")
			}
		})
	}
}

// TestSnapshotCorruptionDetected: the streamed readers reject every
// kind of damage — header, framing, payload — and name a file from the
// retired version-1 (gob) writer as such, with the way to regenerate it.
func TestSnapshotCorruptionDetected(t *testing.T) {
	_, inf := buildTestInferences(t)
	raw := writeFlat(t, inf, SnapshotMeta{})
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		f(b)
		return b
	}
	for _, tc := range []struct {
		name, wantErr string
		data          []byte
		metaReadable  bool
	}{
		// The last section is the lookup array: only its CRC catches
		// this, so the meta-only reader (which does not hash) still works.
		{name: "body flip", wantErr: "checksum mismatch", data: mutate(func(b []byte) { b[len(b)-10] ^= 0xff }), metaReadable: true},
		{name: "bad magic", wantErr: "bad magic", data: mutate(func(b []byte) { b[0] = 'X' })},
		{name: "future version", wantErr: "version 99 (this build reads versions 2 and 3; regenerate the file with `intentinfer -format snapshot`)", data: mutate(func(b []byte) { b[9] = 99 })},
		{name: "version 1", wantErr: "version 1 (this build reads versions 2 and 3; regenerate the file with `intentinfer -format snapshot`)", data: append([]byte("BGPINTSNP\x01"), make([]byte, 64)...)},
		{name: "truncated", wantErr: "short body", data: raw[:len(raw)/2]},
	} {
		_, _, err := ReadSnapshot(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: ReadSnapshot err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
		if _, err := ReadSnapshotMeta(bytes.NewReader(tc.data)); (err == nil) != tc.metaReadable {
			t.Errorf("%s: ReadSnapshotMeta err = %v, want readable=%v", tc.name, err, tc.metaReadable)
		}
	}
}
