package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

// openMapped writes data to a temp file and memory-maps it.
func openMapped(t *testing.T, data []byte) *Mapped {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// simInferences classifies a full synthetic day — a corpus large
// enough to exercise multi-cluster ASes and every exclusion kind.
func simInferences(t testing.TB) (*TupleStore, *Inferences) {
	return simDay(t, false)
}

// simMixedInferences is simInferences with the day's large communities
// riding on the same views: the mixed synthetic corpus.
func simMixedInferences(t testing.TB) (*TupleStore, *Inferences) {
	ts, inf := simDay(t, true)
	if inf.large.ClusterCount() == 0 {
		t.Fatal("mixed synthetic corpus has no large clusters")
	}
	return ts, inf
}

func simDay(t testing.TB, withLarges bool) (*TupleStore, *Inferences) {
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate.New(topo, simulate.TinyConfig())
	ts := NewTupleStore()
	for _, v := range sim.RunDay(0).Views {
		if withLarges {
			ts.AddViewLarge(v.VP, v.Path, v.Comms, v.LargeComms)
		} else {
			ts.AddView(v.VP, v.Path, v.Comms)
		}
	}
	return ts, Classify(ts, DefaultOptions())
}

// TestSnapshotV2VerdictEquivalence is the byte-level contract: every
// community's verdict through the mmap path must equal the heap
// path's — classic and large, every observed key and an unobserved one
// — on both the hand-built and the simulated corpus, classic-only
// (version byte 2) and mixed (version byte 3).
func TestSnapshotV2VerdictEquivalence(t *testing.T) {
	check := func(t *testing.T, inf *Inferences) {
		t.Helper()
		meta := SnapshotMeta{CreatedUnix: 1714521600, Source: "v2-test"}
		m := openMapped(t, writeFlat(t, inf, meta))
		if m.Meta() != meta {
			t.Fatalf("meta = %+v, want %+v", m.Meta(), meta)
		}
		if h, mm := inf.Options(), m.Options(); h.MinGap != mm.MinGap ||
			h.RatioThreshold != mm.RatioThreshold || h.DisableExclusions != mm.DisableExclusions {
			t.Fatalf("Options: heap %+v, mmap %+v", h, mm)
		}
		checkKindEquivalence[bgp.Community](t, inf, m,
			append(observedKeys(&inf.kindView), bgp.NewCommunity(4242, 4242)))
		checkKindEquivalence(t, inf.Large(), m.Large(),
			append(observedKeys(&inf.large), bgp.LargeCommunity{GlobalAdmin: 4242, LocalData1: 7, LocalData2: 4242}))
	}
	_, handBuilt := buildTestInferences(t)
	_, sim := simInferences(t)
	_, simMixed := simMixedInferences(t)
	for _, corpus := range []struct {
		name           string
		classic, mixed *Inferences
	}{
		{"hand-built", handBuilt, buildMixedInferences(t)},
		{"simulated", sim, simMixed},
	} {
		t.Run(corpus.name, func(t *testing.T) {
			t.Run("classic", func(t *testing.T) { check(t, corpus.classic) })
			t.Run("mixed", func(t *testing.T) { check(t, corpus.mixed) })
		})
	}
}

// checkKindEquivalence compares one kind's heap and mapped sources over
// the probes and every aggregate.
func checkKindEquivalence[K Key[K]](t *testing.T, heap, mapped KindSource[K], probes []K) {
	t.Helper()
	for _, k := range probes {
		if hv, mv := heap.Verdict(k), mapped.Verdict(k); hv != mv {
			t.Fatalf("Verdict(%v): heap %+v, mmap %+v", k, hv, mv)
		}
		if hc, mc := heap.Category(k), mapped.Category(k); hc != mc {
			t.Fatalf("Category(%v): heap %v, mmap %v", k, hc, mc)
		}
	}
	if h, m := heap.Observed(), mapped.Observed(); h != m || h != len(probes)-1 {
		t.Fatalf("Observed: heap %d, mmap %d, probes %d + 1 unobserved", h, m, len(probes)-1)
	}
	ha, hi := heap.Counts()
	ma, mi := mapped.Counts()
	if ha != ma || hi != mi {
		t.Fatalf("Counts: heap (%d,%d), mmap (%d,%d)", ha, hi, ma, mi)
	}
	if h, m := heap.ExcludedCount(), mapped.ExcludedCount(); h != m {
		t.Fatalf("ExcludedCount: heap %d, mmap %d", h, m)
	}
	if h, m := heap.ClusterCount(), mapped.ClusterCount(); h != m {
		t.Fatalf("ClusterCount: heap %d, mmap %d", h, m)
	}
	// Labeled sets match (heap iterates a map, so compare as sets).
	hl := map[K]dict.Category{}
	heap.EachLabeled(func(k K, cat dict.Category) bool { hl[k] = cat; return true })
	n := 0
	mapped.EachLabeled(func(k K, cat dict.Category) bool {
		n++
		if got, ok := hl[k]; !ok || got != cat {
			t.Fatalf("EachLabeled(%v)=%d, heap has %d (present=%v)", k, cat, got, ok)
		}
		return true
	})
	if n != len(hl) {
		t.Fatalf("EachLabeled yielded %d communities, heap has %d", n, len(hl))
	}
	// Cluster summaries match index-for-index: both sides sort by
	// (alpha, fn, lo).
	for i := 0; i < heap.ClusterCount(); i++ {
		if h, m := heap.ClusterSummaryAt(i), mapped.ClusterSummaryAt(i); h != m {
			t.Fatalf("ClusterSummaryAt(%d): heap %+v, mmap %+v", i, h, m)
		}
	}
}

// TestSnapshotV2Materialize: Mapped.Materialize copies a simulated day's
// snapshot onto the heap — a copy that outlives the mapping's Close,
// answers every query alike and writes the file it was copied from.
func TestSnapshotV2Materialize(t *testing.T) {
	_, inf := simInferences(t)
	meta := SnapshotMeta{CreatedUnix: 1714521600, Source: "v2-test", Communities: 4}
	data := writeFlat(t, inf, meta)

	gotMeta, err := ReadSnapshotMeta(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}

	m := openMapped(t, data)
	got := m.Materialize()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labelsOf(got), labelsOf(inf)) {
		t.Fatal("labels differ in the materialized copy")
	}
	if !reflect.DeepEqual(summaries(got), summaries(inf)) {
		t.Fatal("clusters differ in the materialized copy")
	}
	if g, w := excludedOf(&got.kindView), excludedOf(&inf.kindView); !reflect.DeepEqual(g, w) {
		t.Fatalf("exclusions differ in the materialized copy: got %v want %v", g, w)
	}
	for c := range labelsOf(inf) {
		if a, b := inf.Verdict(c), got.Verdict(c); a != b {
			t.Fatalf("Verdict(%v) differs in the materialized copy: %+v vs %+v", c, a, b)
		}
	}
	if !bytes.Equal(writeFlat(t, got, meta), data) {
		t.Fatal("the materialized copy writes other bytes than the file it was copied from")
	}
}

// TestSnapshotV2Deterministic: identical inferences, identical bytes —
// the property the replica's content-hash poll gate relies on.
func TestSnapshotV2Deterministic(t *testing.T) {
	_, inf := simInferences(t)
	meta := SnapshotMeta{CreatedUnix: 1714521600, Source: "det"}
	a := writeFlat(t, inf, meta)
	b := writeFlat(t, inf, meta)
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot bytes are not deterministic")
	}
}

// TestSnapshotV2CorruptionDetected: structural damage fails the O(1)
// open; payload damage is caught by the deep verifier (open stays
// cheap by design and does not hash every arena).
func TestSnapshotV2CorruptionDetected(t *testing.T) {
	_, inf := buildTestInferences(t)
	good := writeFlat(t, inf, SnapshotMeta{Source: "corrupt-test"})
	if err := VerifySnapshot(good); err != nil {
		t.Fatalf("pristine snapshot fails verify: %v", err)
	}

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	parse := func(b []byte) error {
		_, err := parseSnapshotV2(b)
		return err
	}

	if err := parse(mutate(func(b []byte) { b[0] = 'X' })); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := parse(mutate(func(b []byte) { b[9] = 99 })); err == nil {
		t.Fatal("future version accepted")
	}
	if err := parse(good[:len(good)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// Corrupt the section table (byte past the 32-byte header): the
	// table CRC is part of the O(1) open.
	if err := parse(mutate(func(b []byte) { b[v2HeaderLen+8] ^= 0xff })); err == nil {
		t.Fatal("corrupt section table accepted")
	}
	// Flip a byte in the last arena: open may accept it (deferred
	// hashing), but the deep verifier must not.
	payload := mutate(func(b []byte) { b[len(b)-4] ^= 0xff })
	if err := VerifySnapshot(payload); err == nil {
		t.Fatal("corrupt arena passed deep verification")
	}
	// And the streaming reader (which verifies) must reject it too.
	if _, _, err := ReadSnapshot(bytes.NewReader(payload)); err == nil {
		t.Fatal("corrupt arena accepted by ReadSnapshot")
	}

	// Version byte and large sections must agree: the four large
	// sections are all present or all absent, and the version is 3 iff
	// they are present. Each case is a well-formed container (sizes,
	// alignment, table CRC all valid) assembled from a mixed snapshot's
	// sections, so only the consistency rule can reject it.
	mixed := writeFlat(t, buildMixedInferences(t), SnapshotMeta{Source: "corrupt-test"})
	// kinds lists the five classic sections plus the given large ones.
	kinds := func(large ...uint32) []uint32 {
		return append([]uint32{secMeta, secStats, secClusters, secMembers, secLookup}, large...)
	}
	for _, tc := range []struct {
		name    string
		version byte
		kinds   []uint32
		ok      bool
	}{
		{"v3 + all four", snapshotVersionLarge, kinds(secLargeStats, secLargeClusters, secLargeMembers, secLargeLookup), true},
		{"v2 + none", snapshotVersionClassic, kinds(), true},
		{"v2 + llookup", snapshotVersionClassic, kinds(secLargeLookup), false},
		{"v2 + all four", snapshotVersionClassic, kinds(secLargeStats, secLargeClusters, secLargeMembers, secLargeLookup), false},
		{"v3 missing lmembers", snapshotVersionLarge, kinds(secLargeStats, secLargeClusters, secLargeLookup), false},
		{"v3 + none", snapshotVersionLarge, kinds(), false},
	} {
		data := assembleSnapshot(t, mixed, tc.version, tc.kinds)
		s, err := parseSnapshotV2(data)
		if (err == nil) != tc.ok {
			t.Errorf("%s: parse err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if verr := VerifySnapshot(data); (verr == nil) != tc.ok {
			t.Errorf("%s: verify err = %v, want ok=%v", tc.name, verr, tc.ok)
		}
		// What an accepted file answers and what it counts must agree.
		if err == nil {
			lc := bgp.LargeCommunity{GlobalAdmin: 100, LocalData1: 1, LocalData2: 10}
			if got, want := s.Large().Verdict(lc).Observed, s.Large().Observed() > 0; got != want {
				t.Errorf("%s: large Verdict(%v).Observed = %v with Observed() = %d", tc.name, lc, got, s.Large().Observed())
			}
		}
	}
}

// TestVerifyRejectsUnsortedClusters: AlphaClusters binary-searches the
// cluster section, so a file whose cluster records are out of (alpha,
// fn, lo) order — every CRC valid, every index in range, so a plain
// open accepts it — must fail the deep verifier, for either kind.
func TestVerifyRejectsUnsortedClusters(t *testing.T) {
	good := writeFlat(t, buildMixedInferences(t), SnapshotMeta{Source: "unsorted-test"})
	for _, tc := range []struct {
		name   string
		kind   uint32
		recLen int
	}{
		{"classic", secClusters, classicLayout.clusterLen},
		{"large", secLargeClusters, largeLayout.clusterLen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := patchSection(t, good, tc.kind, func(body []byte) {
				if len(body) < 2*tc.recLen {
					t.Fatalf("fixture has %d cluster records, need two to swap", len(body)/tc.recLen)
				}
				first := append([]byte(nil), body[:tc.recLen]...)
				copy(body, body[tc.recLen:2*tc.recLen])
				copy(body[tc.recLen:], first)
			})
			if _, err := parseSnapshotV2(data); err != nil {
				t.Fatalf("plain open rejects the file (%v); the test wants damage only the verifier sees", err)
			}
			err := VerifySnapshot(data)
			if err == nil || !strings.Contains(err.Error(), "clusters section not strictly sorted") {
				t.Fatalf("VerifySnapshot = %v, want a clusters-section order error", err)
			}
			if _, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
				t.Fatal("ReadSnapshot accepted a snapshot with unsorted clusters")
			}
		})
	}
}

// patchSection returns a copy of src whose section of the given kind f
// has rewritten in place, with the section and table checksums redone:
// damage only the checks past the CRCs can see.
func patchSection(t *testing.T, src []byte, kind uint32, f func(body []byte)) []byte {
	t.Helper()
	data := append([]byte(nil), src...)
	nsec := int(binary.LittleEndian.Uint32(data[24:]))
	table := data[v2HeaderLen : v2HeaderLen+nsec*v2SectionLen]
	for i := 0; i < nsec; i++ {
		ent := table[i*v2SectionLen:]
		if binary.LittleEndian.Uint32(ent[0:]) != kind {
			continue
		}
		off, length := binary.LittleEndian.Uint64(ent[8:]), binary.LittleEndian.Uint64(ent[16:])
		body := data[off : off+length]
		f(body)
		binary.LittleEndian.PutUint32(ent[24:], crc32.ChecksumIEEE(body))
		binary.LittleEndian.PutUint32(data[28:], crc32.ChecksumIEEE(table))
		return data
	}
	t.Fatalf("no section of kind %d", kind)
	return nil
}

// TestVerifyRejectsMinInt32Exclusion: a lookup record's cluster field
// 0x80000000 is no exclusion reason — negating it in 32 bits gives it
// back — so the verifier, which once let it through to read as an
// observed community with reason "unobserved", must name it.
func TestVerifyRejectsMinInt32Exclusion(t *testing.T) {
	good := writeFlat(t, buildMixedInferences(t), SnapshotMeta{Source: "minint-test"})
	s, err := parseSnapshotV2(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		kind     uint32
		recLen   int
		countsAt int
		excluded func() int // index of an excluded lookup record
	}{
		{"classic", secLookup, classicLayout.recLen, classicLayout.countsAt, func() int { return firstExcluded(&s.kindView) }},
		{"large", secLargeLookup, largeLayout.recLen, largeLayout.countsAt, func() int { return firstExcluded(&s.large) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := tc.excluded()
			data := patchSection(t, good, tc.kind, func(body []byte) {
				binary.LittleEndian.PutUint32(body[i*tc.recLen+tc.countsAt-4:], 0x80000000)
			})
			err := VerifySnapshot(data)
			if err == nil || !strings.Contains(err.Error(), "unknown exclusion reason 2147483648") {
				t.Fatalf("VerifySnapshot = %v, want an unknown-exclusion-reason error", err)
			}
			if _, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
				t.Fatal("ReadSnapshot accepted a lookup record with cluster field 0x80000000")
			}
		})
	}
}

// verifyFixture is one kind's part of the mixed fixture's snapshot: the
// sections and record layout the verifier edge tests patch, and the
// record counts the verifier bounds indexes by.
type verifyFixture struct {
	name                      string
	lookup, clusters          uint32 // section kinds
	recLen, countsAt, keyLen  int
	clusterLen, membersAt     int
	clusterCount, memberCount int
}

func verifyFixtures(t *testing.T) (good []byte, kinds []verifyFixture) {
	good = writeFlat(t, buildMixedInferences(t), SnapshotMeta{Source: "verify-edges"})
	s, err := parseSnapshotV2(good)
	if err != nil {
		t.Fatal(err)
	}
	return good, []verifyFixture{fixtureOf("classic", &s.kindView), fixtureOf("large", &s.large)}
}

func fixtureOf[K Key[K]](name string, v *kindView[K]) verifyFixture {
	l := v.lay
	return verifyFixture{name, l.secLookup, l.secClusters, l.recLen, l.countsAt, 4 * l.keyWords,
		l.clusterLen, l.membersAt, v.clusterCount(), v.memberCount()}
}

// expectVerifyError: the patched file still opens, and the deep
// verifier — so the streamed reader too — rejects it with an error
// containing want.
func expectVerifyError(t *testing.T, data []byte, want string) {
	t.Helper()
	if _, err := parseSnapshotV2(data); err != nil {
		t.Fatalf("plain open rejects the file (%v); the test wants damage only the verifier sees", err)
	}
	if err := VerifySnapshot(data); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("VerifySnapshot = %v, want an error containing %q", err, want)
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadSnapshot accepted the file")
	}
}

// TestVerifyRejectsDuplicateLookupKey: lookup records must be strictly
// sorted. A record whose key equals the previous record's leaves
// Verdict's binary search free to answer with either.
func TestVerifyRejectsDuplicateLookupKey(t *testing.T) {
	good, kinds := verifyFixtures(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			data := patchSection(t, good, k.lookup, func(body []byte) {
				copy(body[k.recLen:][:k.keyLen], body[:k.keyLen])
			})
			expectVerifyError(t, data, "lookup section not strictly sorted at record 1")
		})
	}
}

// TestVerifyRejectsClusterIndexAtCount: a lookup record's cluster field
// must be below the cluster count. One equal to it names the record just
// past the clusters section.
func TestVerifyRejectsClusterIndexAtCount(t *testing.T) {
	good, kinds := verifyFixtures(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			data := patchSection(t, good, k.lookup, func(body []byte) {
				binary.LittleEndian.PutUint32(body[k.countsAt-4:], uint32(k.clusterCount))
			})
			expectVerifyError(t, data, fmt.Sprintf("references cluster %d of %d", k.clusterCount, k.clusterCount))
		})
	}
}

// TestVerifyRejectsMembersPastSection: a cluster's member range must end
// inside the members section. The last cluster's, grown by one record,
// runs one past it.
func TestVerifyRejectsMembersPastSection(t *testing.T) {
	good, kinds := verifyFixtures(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			data := patchSection(t, good, k.clusters, func(body []byte) {
				rec := body[(k.clusterCount-1)*k.clusterLen:]
				start := int(binary.LittleEndian.Uint32(rec[k.membersAt:]))
				binary.LittleEndian.PutUint32(rec[k.membersAt+4:], uint32(k.memberCount-start+1))
			})
			expectVerifyError(t, data, "exceed member section")
		})
	}
}

// firstExcluded returns the index of the view's first excluded lookup
// record.
func firstExcluded[K Key[K]](v *kindView[K]) int {
	for i, n := 0, v.lookupCount(); i < n; i++ {
		if _, cluster := v.lookupRec(i); cluster < 0 {
			return i
		}
	}
	panic("fixture has no exclusion")
}

// TestSnapshotCountersMatchLookup: every query reads its counters from
// the stats section, so a file may only pass when they are the lookup
// section's tally. Counters whose sum wraps (2^62 + 2^62) must fail even
// the O(1) open — they once verified and then sized a makeslice past
// its cap — and a count that fits but lies must fail the verifier.
func TestSnapshotCountersMatchLookup(t *testing.T) {
	good := writeFlat(t, buildMixedInferences(t), SnapshotMeta{Source: "counters-test"})
	for _, tc := range []struct {
		name       string
		kind       uint32
		countersAt int
	}{
		{"classic", secStats, classicLayout.countersAt},
		{"large", secLargeStats, largeLayout.countersAt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrapped := patchSection(t, good, tc.kind, func(body []byte) {
				binary.LittleEndian.PutUint64(body[tc.countersAt:], 1<<62)
				binary.LittleEndian.PutUint64(body[tc.countersAt+8:], 1<<62)
			})
			if _, err := parseSnapshotV2(wrapped); err == nil || !strings.Contains(err.Error(), "implausible") {
				t.Fatalf("open of 2^62 + 2^62 counters = %v, want an implausible-counters error", err)
			}
			if err := VerifySnapshot(wrapped); err == nil {
				t.Fatal("VerifySnapshot accepted 2^62 + 2^62 counters")
			}

			// One action more still fits within observed (the fixture
			// excludes a community of each kind); only the tally shows it.
			lying := patchSection(t, good, tc.kind, func(body []byte) {
				a := body[tc.countersAt:]
				binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+1)
			})
			if _, err := parseSnapshotV2(lying); err != nil {
				t.Fatalf("plain open rejects the counters (%v); the test wants damage only the verifier sees", err)
			}
			if err := VerifySnapshot(lying); err == nil || !strings.Contains(err.Error(), "lookup section labels") {
				t.Fatalf("VerifySnapshot = %v, want a counter-tally error", err)
			}
			if _, _, err := ReadSnapshot(bytes.NewReader(lying)); err == nil {
				t.Fatal("ReadSnapshot accepted counters the lookup section contradicts")
			}
		})
	}
}

// assembleSnapshot builds a well-formed container holding the named
// sections of src (in the given order) under the given version byte.
func assembleSnapshot(t *testing.T, src []byte, version byte, kinds []uint32) []byte {
	t.Helper()
	bodies := map[uint32][]byte{}
	for i, n := 0, int(binary.LittleEndian.Uint32(src[24:])); i < n; i++ {
		ent := src[v2HeaderLen+i*v2SectionLen:]
		off, length := binary.LittleEndian.Uint64(ent[8:]), binary.LittleEndian.Uint64(ent[16:])
		bodies[binary.LittleEndian.Uint32(ent[0:])] = src[off : off+length]
	}
	out := make([]byte, v2HeaderLen+len(kinds)*v2SectionLen)
	for i, kind := range kinds {
		body, ok := bodies[kind]
		if !ok {
			t.Fatalf("source snapshot has no section kind %d", kind)
		}
		out = append(out, make([]byte, align8(len(out))-len(out))...)
		ent := out[v2HeaderLen+i*v2SectionLen:]
		binary.LittleEndian.PutUint32(ent[0:], kind)
		binary.LittleEndian.PutUint64(ent[8:], uint64(len(out)))
		binary.LittleEndian.PutUint64(ent[16:], uint64(len(body)))
		binary.LittleEndian.PutUint32(ent[24:], crc32.ChecksumIEEE(body))
		out = append(out, body...)
	}
	copy(out, snapshotMagic[:])
	out[9] = version
	binary.LittleEndian.PutUint64(out[16:], uint64(len(out)))
	binary.LittleEndian.PutUint32(out[24:], uint32(len(kinds)))
	binary.LittleEndian.PutUint32(out[28:], crc32.ChecksumIEEE(out[v2HeaderLen:v2HeaderLen+len(kinds)*v2SectionLen]))
	return out
}

// TestOpenSnapshotMmapFast: opening is O(1) in corpus size — the whole
// point of the flat layout. 10ms is generous (the budget covers CI
// noise); a linear open would blow through it as corpora grow.
func TestOpenSnapshotMmapFast(t *testing.T) {
	_, inf := simInferences(t)
	path := filepath.Join(t.TempDir(), "fast.snap")
	if err := os.WriteFile(path, writeFlat(t, inf, SnapshotMeta{Source: "fast"}), 0o644); err != nil {
		t.Fatal(err)
	}
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		m, err := OpenSnapshotMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		m.Close()
	}
	if best > 10*time.Millisecond {
		t.Errorf("OpenSnapshotMmap best-of-3 = %v, want < 10ms", best)
	}
}

// TestMappedVerdictZeroAlloc guards the replica hot path: answering a
// lookup of either kind straight off the mapped pages must not
// allocate.
func TestMappedVerdictZeroAlloc(t *testing.T) {
	_, inf := simMixedInferences(t)
	m := openMapped(t, writeFlat(t, inf, SnapshotMeta{}))
	t.Run("classic", func(t *testing.T) {
		verdictZeroAlloc[bgp.Community](t, m, observedKeys(&inf.kindView), bgp.NewCommunity(64999, 64999))
	})
	t.Run("large", func(t *testing.T) {
		verdictZeroAlloc(t, m.Large(), observedKeys(&inf.large),
			bgp.LargeCommunity{GlobalAdmin: 64999, LocalData1: 1, LocalData2: 64999})
	})
}

// TestMappedClusterQueries covers the navigation the facade's
// ClustersFor and member listing use.
func TestMappedClusterQueries(t *testing.T) {
	_, inf := simInferences(t)
	m := openMapped(t, writeFlat(t, inf, SnapshotMeta{}))

	// Group heap clusters by alpha for comparison.
	byAlpha := map[uint32][]ClusterSummary{}
	for i := 0; i < inf.ClusterCount(); i++ {
		cs := inf.ClusterSummaryAt(i)
		byAlpha[cs.Alpha] = append(byAlpha[cs.Alpha], cs)
	}
	seen := 0
	for alpha, want := range byAlpha {
		lo, hi := AlphaClusters(m, alpha)
		if hi-lo != len(want) {
			t.Fatalf("AlphaClusters(%d) spans %d clusters, want %d", alpha, hi-lo, len(want))
		}
		for i := lo; i < hi; i++ {
			cs := m.ClusterSummaryAt(i)
			if cs.Alpha != alpha {
				t.Fatalf("cluster %d has alpha %d, want %d", i, cs.Alpha, alpha)
			}
			start, count := m.clusterMemberRange(i)
			if count != cs.Size {
				t.Fatalf("cluster %d: %d members, want %d", i, count, cs.Size)
			}
			for j := start; j < start+count; j++ {
				if mc := m.memberAt(j); mc.Comm.Admin() != alpha || mc.Comm.Local() < cs.Lo || mc.Comm.Local() > cs.Hi {
					t.Fatalf("member %v outside cluster [%d, %d:%d]", mc.Comm, alpha, cs.Lo, cs.Hi)
				}
			}
			seen++
		}
	}
	if seen != m.ClusterCount() {
		t.Fatalf("alpha sweep visited %d clusters, index has %d", seen, m.ClusterCount())
	}
	// An alpha with no clusters yields an empty range.
	if lo, hi := AlphaClusters(m, 64999); lo != hi {
		t.Fatalf("AlphaClusters(64999) = [%d,%d), want empty", lo, hi)
	}
}
