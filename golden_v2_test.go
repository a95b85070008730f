package bgpintent

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestGoldenV2Equivalence proves the flat mmap path is
// indistinguishable from the heap path over the golden corpus (mixed:
// classic and large inferences): the classifier's result, written as a
// snapshot and served through the zero-copy mapping, must produce
// byte-identical TSV/JSON renderings and identical verdicts for every
// community — classified, excluded, and unobserved, classic and large.
func TestGoldenV2Equivalence(t *testing.T) {
	c, err := NewSyntheticCorpus(CorpusOptions{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	heap := classify(t, c, Params{Parallelism: 1})
	info := c.SnapshotInfo("golden")
	info.Created = time.Unix(1714521600, 0).UTC()
	if heap.LargeObservedCount() == 0 {
		t.Fatal("mixed golden corpus carries no large communities; large sections untested")
	}

	v2Path := filepath.Join(t.TempDir(), "golden.snap")
	out, err := os.Create(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := heap.WriteSnapshotFlat(out, info); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, mappedInfo, err := OpenSnapshotFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mmapped() {
		t.Skip("platform lacks mmap; fallback path covered elsewhere")
	}
	if mappedInfo != info {
		t.Fatalf("snapshot info differs: %+v vs %+v", mappedInfo, info)
	}

	// Renderings must be byte-identical (and match the seed TSV golden).
	var heapTSV, mappedTSV bytes.Buffer
	if err := heap.WriteTSV(&heapTSV); err != nil {
		t.Fatal(err)
	}
	if err := mapped.WriteTSV(&mappedTSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(heapTSV.Bytes(), mappedTSV.Bytes()) {
		t.Fatal("TSV rendering differs between heap and mmap paths")
	}
	wantTSV, err := os.ReadFile("testdata/golden_synthetic.tsv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mappedTSV.Bytes(), wantTSV) {
		t.Fatal("mmap TSV differs from the seed golden")
	}
	var heapJSON, mappedJSON bytes.Buffer
	if err := heap.WriteJSON(&heapJSON); err != nil {
		t.Fatal(err)
	}
	if err := mapped.WriteJSON(&mappedJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(heapJSON.Bytes(), mappedJSON.Bytes()) {
		t.Fatal("JSON rendering differs between heap and mmap paths")
	}

	// Every labeled community, every cluster listing, and the aggregate
	// counters agree.
	heapLabeled := heap.Labeled()
	mappedLabeled := mapped.Labeled()
	if len(heapLabeled) != len(mappedLabeled) {
		t.Fatalf("labeled counts differ: %d vs %d", len(heapLabeled), len(mappedLabeled))
	}
	for i := range heapLabeled {
		if heapLabeled[i] != mappedLabeled[i] {
			t.Fatalf("labeled[%d]: %+v vs %+v", i, heapLabeled[i], mappedLabeled[i])
		}
		k := heapLabeled[i].Community.Key()
		if a, b := heap.LookupKey(k), mapped.LookupKey(k); a != b || !a.HasCluster {
			t.Fatalf("LookupKey(%v) differs or has no cluster: %+v vs %+v", k, a, b)
		}
	}
	heapClusters := heap.Clusters()
	mappedClusters := mapped.Clusters()
	if len(heapClusters) != len(mappedClusters) {
		t.Fatalf("cluster counts differ: %d vs %d", len(heapClusters), len(mappedClusters))
	}
	for i := range heapClusters {
		if heapClusters[i] != mappedClusters[i] {
			t.Fatalf("cluster[%d]: %+v vs %+v", i, heapClusters[i], mappedClusters[i])
		}
	}
	// ClustersFor, for every α: heap and mapped both return exactly that
	// α's run of the sorted listing.
	both := map[string]*Result{"heap": heap, "mapped": mapped}
	for i := 0; i < len(heapClusters); {
		asn := heapClusters[i].ASN
		j := i
		for j < len(heapClusters) && heapClusters[j].ASN == asn {
			j++
		}
		for name, r := range both {
			if got := r.ClustersFor(uint16(asn)); !reflect.DeepEqual(got, heapClusters[i:j]) {
				t.Fatalf("%s ClustersFor(%d) = %+v, want %+v", name, asn, got, heapClusters[i:j])
			}
		}
		i = j
	}
	// 65535 is reserved (RFC 7300): no topology assigns it, so no cluster
	// carries it.
	for name, r := range both {
		if got := r.ClustersFor(65535); got != nil {
			t.Fatalf("%s ClustersFor(65535) = %+v for an ASN with no clusters", name, got)
		}
	}
	ha, hi := heap.Counts()
	ma, mi := mapped.Counts()
	if ha != ma || hi != mi || heap.ExcludedCount() != mapped.ExcludedCount() ||
		heap.ObservedCount() != mapped.ObservedCount() {
		t.Fatalf("counters differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			ha, hi, heap.ExcludedCount(), heap.ObservedCount(),
			ma, mi, mapped.ExcludedCount(), mapped.ObservedCount())
	}

	// Unobserved verdict parity.
	ghost := ClassicKey(4242, 4242)
	if a, b := heap.LookupKey(ghost), mapped.LookupKey(ghost); a != b || a.Observed {
		t.Fatalf("unobserved LookupKey differs: %+v vs %+v", a, b)
	}

	// Large-community parity: labels, clusters, per-key verdicts, and
	// counters must survive the round trip exactly.
	heapLarge := heap.LabeledLarge()
	mappedLarge := mapped.LabeledLarge()
	if len(heapLarge) == 0 {
		t.Fatal("mixed golden has no labeled large communities")
	}
	if len(heapLarge) != len(mappedLarge) {
		t.Fatalf("labeled large counts differ: %d vs %d", len(heapLarge), len(mappedLarge))
	}
	for i := range heapLarge {
		if heapLarge[i] != mappedLarge[i] {
			t.Fatalf("labeled large[%d]: %+v vs %+v", i, heapLarge[i], mappedLarge[i])
		}
		if a, b := heap.LookupKey(heapLarge[i].Key), mapped.LookupKey(heapLarge[i].Key); a != b || !a.HasCluster {
			t.Fatalf("LookupKey(%v) differs or has no cluster: %+v vs %+v", heapLarge[i].Key, a, b)
		}
	}
	heapLC := heap.LargeClusters()
	mappedLC := mapped.LargeClusters()
	if len(heapLC) == 0 || len(heapLC) != len(mappedLC) {
		t.Fatalf("large cluster counts differ: %d vs %d", len(heapLC), len(mappedLC))
	}
	for i := range heapLC {
		if heapLC[i] != mappedLC[i] {
			t.Fatalf("large cluster[%d]: %+v vs %+v", i, heapLC[i], mappedLC[i])
		}
	}
	la, li := heap.LargeCounts()
	ma2, mi2 := mapped.LargeCounts()
	if la != ma2 || li != mi2 ||
		heap.LargeObservedCount() != mapped.LargeObservedCount() ||
		heap.LargeExcludedCount() != mapped.LargeExcludedCount() {
		t.Fatalf("large counters differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			la, li, heap.LargeObservedCount(), heap.LargeExcludedCount(),
			ma2, mi2, mapped.LargeObservedCount(), mapped.LargeExcludedCount())
	}
	ghostLarge := LargeKey(4242, 7, 4242)
	if a, b := heap.LookupKey(ghostLarge), mapped.LookupKey(ghostLarge); a != b {
		t.Fatalf("unobserved large LookupKey differs: %+v vs %+v", a, b)
	}
}

// TestVersion1SnapshotRejected: a file from the retired gob writer
// fails through both facade ways in with the one error that names the
// version and the way to regenerate. (The reload leg — old generation
// keeps serving — is the version-1 case of internal/serve's
// TestReloadCorruptSnapshotKeepsServing.)
func TestVersion1SnapshotRejected(t *testing.T) {
	v1 := append([]byte("BGPINTSNP\x01"), bytes.Repeat([]byte{0x2a}, 200)...)
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, readErr := ReadSnapshot(bytes.NewReader(v1))
	_, infoErr := ReadSnapshotInfo(bytes.NewReader(v1))
	_, _, openErr := OpenSnapshotFile(path)
	for name, err := range map[string]error{"ReadSnapshot": readErr, "ReadSnapshotInfo": infoErr, "OpenSnapshotFile": openErr} {
		if err == nil || !strings.Contains(err.Error(), "unsupported format version 1 ") ||
			!strings.Contains(err.Error(), "intentinfer -format snapshot") {
			t.Errorf("%s: err = %v, want one naming version 1 and `intentinfer -format snapshot`", name, err)
		}
	}
}

// TestSnapshotLyingCountersRefused: the facade's counters come from a
// snapshot's stats section. Classic action and information counters of
// 2^62 each, whose sum wraps negative, are refused by every way in — they
// once opened, verified, and panicked Labeled's makeslice — and a count
// that fits but contradicts the lookup records fails Verify and
// ReadSnapshot.
func TestSnapshotLyingCountersRefused(t *testing.T) {
	c := smallCorpus(t)
	var good bytes.Buffer
	if err := classify(t, c, Params{Parallelism: 1}).WriteSnapshotFlat(&good, c.SnapshotInfo("counters")); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	// patch rewrites the classic stats section's counters (section kind
	// 2, i64 action, information, observed at offset 24), redoes the
	// section and table checksums and writes the file.
	patch := func(name string, f func(counters []byte)) (string, []byte) {
		data := bytes.Clone(good.Bytes())
		table := data[32 : 32+32*int(le.Uint32(data[24:]))]
		for ent := table; len(ent) > 0; ent = ent[32:] {
			if le.Uint32(ent) == 2 {
				body := data[le.Uint64(ent[8:]):][:le.Uint64(ent[16:])]
				f(body[24:48])
				le.PutUint32(ent[24:], crc32.ChecksumIEEE(body))
			}
		}
		le.PutUint32(data[28:], crc32.ChecksumIEEE(table))
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	path, data := patch("wrapped.snap", func(counters []byte) {
		le.PutUint64(counters, 1<<62)
		le.PutUint64(counters[8:], 1<<62)
	})
	if res, _, err := OpenSnapshotFile(path); err == nil {
		action, information := res.Counts()
		res.Close()
		t.Fatalf("OpenSnapshotFile accepted %d action + %d information counters", action, information)
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadSnapshot accepted 2^62 + 2^62 counters")
	}

	path, data = patch("lying.snap", func(counters []byte) {
		le.PutUint64(counters, le.Uint64(counters)+1)
	})
	res, _, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v; one action too many fits within observed, so only Verify should see it", err)
	}
	defer res.Close()
	if err := res.Verify(); err == nil {
		t.Fatal("Verify accepted an action count the lookup records contradict")
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadSnapshot accepted an action count the lookup records contradict")
	}
}
