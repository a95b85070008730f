package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bgpintent/internal/bgp"
)

// testOrgs is a map-backed OrgMapper.
type testOrgs map[uint32]string

func (m testOrgs) Org(asn uint32) (string, bool) {
	o, ok := m[asn]
	return o, ok
}

// TestClassifyDeltaIsClassifyContext: ClassifyDelta writes the same
// snapshot bytes as ClassifyContext whatever prev and dirty say, with
// sibling orgs and large communities in play — the configuration the
// dirty-α merge it once ran could not classify.
func TestClassifyDeltaIsClassifyContext(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := newRefUniverse(rng)
		ts := NewTupleStore()
		for _, v := range u.views(rng, 50+rng.Intn(300), seed%2 == 0) {
			ts.AddViewLarge(v.vp, v.path, v.comms, v.larges)
		}
		orgs := testOrgs{}
		for _, asn := range u.asns {
			if rng.Intn(2) == 0 {
				orgs[asn] = fmt.Sprintf("org%d", rng.Intn(4))
			}
		}
		opts := Options{MinGap: []int{0, 140, 1000}[seed%3], RatioThreshold: 2, Orgs: orgs, Workers: 1}
		want, err := ClassifyContext(ctx, ts, opts)
		if err != nil {
			t.Fatal(err)
		}
		stale := Classify(NewTupleStore(), DefaultOptions())
		for _, prev := range []*Inferences{nil, stale, want} {
			for _, dirty := range []map[uint16]bool{nil, {}, {1: true}} {
				got, err := ClassifyDelta(ctx, ts, opts, prev, dirty)
				if err != nil {
					t.Fatal(err)
				}
				meta := SnapshotMeta{Source: "delta"}
				if !bytes.Equal(writeFlat(t, got, meta), writeFlat(t, want, meta)) {
					t.Fatalf("seed %d: ClassifyDelta(prev=%p, dirty=%v) writes other bytes than ClassifyContext", seed, prev, dirty)
				}
			}
		}
	}
}

// deltaView is one synthetic observation a test corpus is made of.
type deltaView struct {
	vp    uint32
	path  []uint32
	comms bgp.Communities
}

// genDeltaViews produces a randomized corpus slice: paths over a small ASN
// universe with communities whose αs are drawn from the path ASNs
// (classifiable) and from ASNs never on any path (excludable), so every
// classifier branch — action, information, private-ASN and
// never-on-path exclusion — shows up.
func genDeltaViews(rng *rand.Rand, n int) []deltaView {
	views := make([]deltaView, 0, n)
	for i := 0; i < n; i++ {
		vp := uint32(1100 + rng.Intn(6))
		hops := 2 + rng.Intn(3)
		path := []uint32{vp}
		for h := 0; h < hops; h++ {
			path = append(path, uint32(100+rng.Intn(12)*100))
		}
		var comms bgp.Communities
		for k := rng.Intn(3) + 1; k > 0; k-- {
			var alpha uint16
			switch rng.Intn(4) {
			case 0: // α on this very path: strong on-path evidence
				alpha = uint16(path[1+rng.Intn(len(path)-1)])
			case 1: // α from the universe, on some paths but maybe not this one
				alpha = uint16(100 + rng.Intn(12)*100)
			case 2: // α never on any path (the universe stops at 1200)
				alpha = uint16(5000 + rng.Intn(3))
			default: // private ASN range
				alpha = uint16(64512 + rng.Intn(3))
			}
			comms = append(comms, bgp.NewCommunity(alpha, uint16(rng.Intn(400))))
		}
		views = append(views, deltaView{vp: vp, path: path, comms: comms})
	}
	return views
}

func storeOf(views []deltaView) *TupleStore {
	ts := NewTupleStore()
	for _, v := range views {
		ts.AddView(v.vp, v.path, v.comms)
	}
	return ts
}

// dirtyBetween computes a dirty-α set for a transition old → new: the α
// of every community on a view present in one set but not the other,
// plus every 16-bit path ASN whose presence in the path universe
// flipped. ClassifyDelta ignores it; the tests pass it to show that.
func dirtyBetween(old, new []deltaView) map[uint16]bool {
	pathASNs := func(views []deltaView) map[uint32]bool {
		m := make(map[uint32]bool)
		for _, v := range views {
			for _, a := range v.path {
				m[a] = true
			}
		}
		return m
	}
	dirty := make(map[uint16]bool)
	// Views are value slices; compare by index identity: the tests only
	// ever append to or truncate the shared backing corpus, so a view in
	// exactly one of the two sets is one beyond the shorter prefix.
	shorter, longer := old, new
	if len(longer) < len(shorter) {
		shorter, longer = longer, shorter
	}
	for _, v := range longer[len(shorter):] {
		for _, c := range v.comms {
			dirty[c.ASN()] = true
		}
	}
	oldASNs, newASNs := pathASNs(old), pathASNs(new)
	for a := range oldASNs {
		if !newASNs[a] && a <= 0xFFFF {
			dirty[uint16(a)] = true
		}
	}
	for a := range newASNs {
		if !oldASNs[a] && a <= 0xFFFF {
			dirty[uint16(a)] = true
		}
	}
	return dirty
}

// sameInf fails unless two Inferences agree on labels, clusters,
// exclusions, and per-community lookups (which exercises the lookup
// section and the stats carried for excluded communities).
func sameInf(t *testing.T, ts *TupleStore, got, want *Inferences) {
	t.Helper()
	if g, w := labelsOf(got), labelsOf(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("labels diverged: %d vs %d", len(g), len(w))
	}
	if g, w := excludedOf(&got.kindView), excludedOf(&want.kindView); !reflect.DeepEqual(g, w) {
		t.Fatalf("exclusions diverged: %d vs %d", len(g), len(w))
	}
	if g, w := summaries(got), summaries(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("clusters diverged: %d vs %d", len(g), len(w))
	}
	for _, comm := range ts.Communities() {
		if g, w := got.Verdict(comm), want.Verdict(comm); g != w {
			t.Fatalf("Verdict(%v) diverged: %+v vs %+v", comm, g, w)
		}
	}
}

func TestClassifyDeltaAdditionsEqualFull(t *testing.T) {
	opts := DefaultOptions()
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus := genDeltaViews(rng, 300)
		base := corpus[:200]

		prev, err := ClassifyContext(context.Background(), storeOf(base), opts)
		if err != nil {
			t.Fatal(err)
		}
		// Grow in two delta steps to also exercise delta-on-delta.
		for _, cut := range []int{250, 300} {
			grown := corpus[:cut]
			ts := storeOf(grown)
			dirty := dirtyBetween(base, grown)
			got, err := ClassifyDelta(context.Background(), ts, opts, prev, dirty)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ClassifyContext(context.Background(), ts, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameInf(t, ts, got, want)
			base, prev = grown, got
		}
	}
}

func TestClassifyDeltaEvictionsEqualFull(t *testing.T) {
	opts := DefaultOptions()
	for seed := int64(10); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus := genDeltaViews(rng, 300)

		prev, err := ClassifyContext(context.Background(), storeOf(corpus), opts)
		if err != nil {
			t.Fatal(err)
		}
		// Evict the tail third, as a rolling window dropping a bucket.
		kept := corpus[:200]
		ts := storeOf(kept)
		dirty := dirtyBetween(corpus, kept)
		got, err := ClassifyDelta(context.Background(), ts, opts, prev, dirty)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ClassifyContext(context.Background(), ts, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameInf(t, ts, got, want)
	}
}

// TestClassifyDeltaNoChangeReturnsPrev: with the store unchanged and an
// empty dirty set, ClassifyDelta returns what prev holds. It returns a
// fresh classification equal to prev rather than prev itself, because
// callers no longer track a dirty set (stream.Window.TakeDirty is nil)
// and an empty one says nothing about whether the store changed.
func TestClassifyDeltaNoChangeReturnsPrev(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	views := genDeltaViews(rng, 100)
	ts := storeOf(views)
	prev, err := ClassifyContext(context.Background(), ts, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ClassifyDelta(context.Background(), ts, DefaultOptions(), prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameInf(t, ts, got, prev)
	meta := SnapshotMeta{Source: "delta"}
	if !bytes.Equal(writeFlat(t, got, meta), writeFlat(t, prev, meta)) {
		t.Fatal("empty dirty set on an unchanged store should reproduce prev")
	}
}

func TestClassifyDeltaFallsBackToFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	views := genDeltaViews(rng, 150)
	ts := storeOf(views)
	opts := DefaultOptions()
	want, err := ClassifyContext(context.Background(), ts, opts)
	if err != nil {
		t.Fatal(err)
	}

	// nil prev: full classification regardless of dirty.
	got, err := ClassifyDelta(context.Background(), ts, opts, nil, map[uint16]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	sameInf(t, ts, got, want)

	// Changed options: prev is unusable, must fall back (and adopt the
	// new options, not prev's).
	prevOther, err := ClassifyContext(context.Background(), ts, Options{MinGap: 1, RatioThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err = ClassifyDelta(context.Background(), ts, opts, prevOther, map[uint16]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	sameInf(t, ts, got, want)

	// Sibling-aware mode: org flips can dirty αs the window cannot see,
	// so the classification must follow Orgs, not prev.
	orgOpts := opts
	orgOpts.Orgs = testOrgs{100: "org-a", 200: "org-a"}
	wantOrg, err := ClassifyContext(context.Background(), ts, orgOpts)
	if err != nil {
		t.Fatal(err)
	}
	got, err = ClassifyDelta(context.Background(), ts, orgOpts, want, map[uint16]bool{})
	if err != nil {
		t.Fatal(err)
	}
	sameInf(t, ts, got, wantOrg)
}
