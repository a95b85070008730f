package core

import (
	"runtime"
	"testing"
	"unsafe"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// TestAddViewDuplicateHitZeroAlloc guards the arena layout's core
// promise: once a (path, communities) tuple exists, re-observing it —
// even from a new vantage point with room in the VP list — allocates
// nothing. A regression here silently reintroduces the per-view churn
// the columnar store exists to eliminate.
func TestAddViewDuplicateHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	ts := NewTupleStore()
	path := []uint32{65269, 7018, 1299, 64496}
	comms := bgp.Communities{bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	ts.AddView(65269, path, comms)
	// Pre-grow the VP list so the guarded runs never trip a growVPs
	// relocation (growth is amortized-free, not per-call-free).
	for vp := uint32(1); vp <= 64; vp++ {
		ts.AddView(vp, path, comms)
	}

	if avg := testing.AllocsPerRun(200, func() {
		ts.AddView(65269, path, comms) // exact duplicate: VP already present
	}); avg != 0 {
		t.Errorf("AddView duplicate hit allocates %.1f per run, want 0", avg)
	}

	// Unsorted/duplicated community input still canonicalizes into the
	// pooled scratch without allocating.
	messy := bgp.Communities{bgp.NewCommunity(1299, 100), bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	if avg := testing.AllocsPerRun(200, func() {
		ts.AddView(65269, path, messy)
	}); avg != 0 {
		t.Errorf("AddView with messy comms allocates %.1f per run, want 0", avg)
	}
}

// TestStitchedLoadResidency guards what a small sharded load keeps alive
// after the stitch: its tuples' columns and nothing sized by anything
// else — no fixed reservation (three full arena chunks used to pin 20 MB
// whatever the corpus size), no load-only table, no growth slack. 1 000
// tuples hold 58 KB (measured 2026-10-15 with the 16-byte tuple record,
// 56 KB of which TupleStore.Footprint accounts for; 74 KB with the
// 32-byte one, whose ceiling was 148 KiB; 134 KB while the stitched
// store kept path-key strings, the intern table and the arenas' first
// chunks whole). The ceiling keeps the same 2x margin.
func TestStitchedLoadResidency(t *testing.T) {
	const tuples, ceiling = 1000, 116 << 10
	before := heapLive()
	sts := NewShardedTupleStore(64)
	for i := 0; i < tuples; i++ {
		path := []uint32{uint32(65000 + i%50), 7018, uint32(1000 + i)}
		comms := bgp.Communities{bgp.NewCommunity(7018, uint16(i)), bgp.NewCommunity(1299, uint16(i%100))}
		sts.AddView(uint32(1+i%20), path, comms)
	}
	ts := sts.Stitch(1)
	sts = nil
	held := int64(heapLive()) - int64(before)
	if ts.Len() != tuples {
		t.Fatalf("stitched store holds %d tuples, want %d", ts.Len(), tuples)
	}
	_, reserved := ts.Footprint().Total()
	t.Logf("a stitched %d-tuple load holds %d B (Footprint reserves %d B), ceiling %d", tuples, held, reserved, ceiling)
	if held > ceiling {
		t.Errorf("a stitched %d-tuple load holds %d B, want <= %d", tuples, held, ceiling)
	}
	runtime.KeepAlive(ts)
}

// heapLive returns the bytes of live heap objects.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC() // the second collection empties the sync.Pool victim caches
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestInferencesResidency: a classification is its snapshot sections —
// no index map or heap cluster list beside them — so an *Inferences
// holds the section bytes plus a constant: the struct and the rounding
// of one buffer per kind of key to its allocation size.
func TestInferencesResidency(t *testing.T) {
	const slack = 16 << 10
	ts, _ := simMixedInferences(t)
	opts := DefaultOptions()
	os := Observe(ts, opts)
	before := heapLive()
	inf := ClassifyObserved(os, opts)
	held := int64(heapLive()) - int64(before)
	sections := 0
	for _, sec := range append(inf.sections(), inf.large.sections()...) {
		sections += len(sec.body)
	}
	t.Logf("%d classic + %d large communities: the inferences hold %d B, their sections %d B",
		inf.Observed(), inf.large.Observed(), held, sections)
	if held > int64(sections+slack) {
		t.Errorf("the inferences hold %d B, want <= %d B of sections + %d", held, sections, slack)
	}
	runtime.KeepAlive(os)
	runtime.KeepAlive(inf)
}

// TestLookupZeroAlloc guards the serving hot path: Verdict and Category
// are called per query by intentd and must stay allocation-free, for
// classic and large keys alike.
func TestLookupZeroAlloc(t *testing.T) {
	_, inf := simMixedInferences(t)
	t.Run("classic", func(t *testing.T) { lookupZeroAlloc(t, &inf.kindView, bgp.NewCommunity(64999, 64999)) })
	t.Run("large", func(t *testing.T) {
		lookupZeroAlloc(t, &inf.large, bgp.LargeCommunity{GlobalAdmin: 64999, LocalData1: 1, LocalData2: 64999})
	})
}

func lookupZeroAlloc[K Key[K]](t *testing.T, v *kindView[K], unobserved K) {
	keys := observedKeys(v)
	if len(keys) == 0 {
		t.Fatal("no communities of this kind in corpus")
	}
	var sink KeyVerdict[K]
	var cat dict.Category
	if avg := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			sink, cat = v.Verdict(k), v.Category(k)
		}
		sink, cat = v.Verdict(unobserved), v.Category(unobserved)
	}); avg != 0 {
		t.Errorf("Verdict + Category allocate %.2f per run, want 0", avg)
	}
	_, _ = sink, cat
	verdictZeroAlloc[K](t, v, keys, unobserved)
}

// verdictZeroAlloc pins Verdict through the KindSource interface — the
// way the serving layer calls it — at zero allocations.
func verdictZeroAlloc[K Key[K]](t *testing.T, src KindSource[K], keys []K, unobserved K) {
	t.Helper()
	var sink KeyVerdict[K]
	if avg := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			sink = src.Verdict(k)
		}
		sink = src.Verdict(unobserved)
	}); avg != 0 {
		t.Errorf("%T.Verdict allocates %.2f per run, want 0", src, avg)
	}
	_ = sink
}

// TestPathEndIsFourBytes pins a path's record, a per-tuple row beside
// the 12-byte tuple (TestTupleIsTwelveBytes), at one end offset into the
// ASN arena: the runs lie back to back in ID order, so a path starts
// where the one before it ends, and sibling organizations are resolved
// from Options.Orgs while evidence is counted, not stored per path.
func TestPathEndIsFourBytes(t *testing.T) {
	var ts TupleStore
	if size := unsafe.Sizeof(ts.pathEnd[0]); size != 4 {
		t.Fatalf("a path end is %d bytes, want 4", size)
	}
}

// TestEvidenceSlotBytes pins the evidence walk's table slots at key, tag
// and three counters: 20 bytes for a classic key, 28 for a large one.
// α's organization is resolved once per group from a per-worker α table,
// not carried in every community's entry (40 and 48 bytes when it was).
func TestEvidenceSlotBytes(t *testing.T) {
	classic := unsafe.Sizeof(probeSlot[bgp.Community, evidence]{})
	large := unsafe.Sizeof(probeSlot[bgp.LargeCommunity, evidence]{})
	if classic != 20 || large != 28 {
		t.Fatalf("evidence slots are %d and %d bytes, want 20 and 28", classic, large)
	}
}
