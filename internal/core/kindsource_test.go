package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// labelsOf and excludedOf spell a set out as the two maps a whole-set
// comparison wants: every classified community with its label, every
// excluded one with its reason.
func labelsOf[K Key[K]](src KindSource[K]) map[K]dict.Category {
	out := make(map[K]dict.Category)
	src.EachLabeled(func(k K, cat dict.Category) bool {
		out[k] = cat
		return true
	})
	return out
}

func excludedOf[K Key[K]](v *kindView[K]) map[K]ExcludeReason {
	out := make(map[K]ExcludeReason)
	for i, n := 0, v.lookupCount(); i < n; i++ {
		if rec, cluster := v.lookupRec(i); cluster < 0 {
			out[v.lay.stats(rec).Comm] = excludeReason(cluster)
		}
	}
	return out
}

// summaries lists every cluster summary of a source, in its order.
func summaries[K Key[K]](src KindSource[K]) []ClusterSummary {
	out := make([]ClusterSummary, src.ClusterCount())
	for i := range out {
		out[i] = src.ClusterSummaryAt(i)
	}
	return out
}

// checkKindSource holds one source to the KindSource contract; members
// lists the i-th cluster's member evidence.
func checkKindSource[K Key[K]](t *testing.T, label string, src KindSource[K], members func(i int) []Stats[K]) {
	t.Helper()
	var prev K
	labeled, tally := 0, map[dict.Category]int{}
	src.EachLabeled(func(k K, cat dict.Category) bool {
		if labeled > 0 && prev.Compare(k) >= 0 {
			t.Fatalf("%s: EachLabeled visits %v after %v", label, k, prev)
		}
		if got := src.Category(k); got != cat {
			t.Fatalf("%s: EachLabeled says %v is %v, Category %v", label, k, cat, got)
		}
		prev = k
		labeled++
		tally[cat]++
		return true
	})
	action, information := src.Counts()
	if action != tally[dict.CatAction] || information != tally[dict.CatInformation] || labeled != action+information {
		t.Fatalf("%s: Counts = %d action, %d information; EachLabeled visited %v", label, action, information, tally)
	}
	if got, want := src.Observed(), action+information+src.ExcludedCount(); got != want {
		t.Fatalf("%s: Observed = %d, action + information + ExcludedCount = %d", label, got, want)
	}

	var before ClusterSummary
	inClusters := 0
	for i, n := 0, src.ClusterCount(); i < n; i++ {
		cs := src.ClusterSummaryAt(i)
		if i > 0 && cmp.Or(cmp.Compare(before.Alpha, cs.Alpha), cmp.Compare(before.Fn, cs.Fn), cmp.Compare(before.Lo, cs.Lo)) >= 0 {
			t.Fatalf("%s: cluster %d %+v listed after %+v", label, i, cs, before)
		}
		before = cs
		var on, off int64
		ms := members(i)
		for _, m := range ms {
			on, off = on+int64(m.OnPath), off+int64(m.OffPath)
		}
		if cs.Size != len(ms) || cs.OnPath != on || cs.OffPath != off {
			t.Fatalf("%s: cluster %d summary %+v; its %d members sum to on=%d off=%d", label, i, cs, len(ms), on, off)
		}
		inClusters += cs.Size
	}
	if inClusters != labeled {
		t.Fatalf("%s: clusters hold %d members, EachLabeled visited %d", label, inClusters, labeled)
	}
	for at, n := 0, src.ClusterCount(); at < n; {
		alpha := src.ClusterSummaryAt(at).Alpha
		lo, hi := AlphaClusters(src, alpha)
		if lo != at || hi <= lo || hi > n {
			t.Fatalf("%s: AlphaClusters(%d) = [%d,%d), want a range starting at %d", label, alpha, lo, hi, at)
		}
		at = hi
	}
}

// checkSameVerdicts requires every source to answer every key alike, and
// each one's Verdict to agree with its Category.
func checkSameVerdicts[K Key[K]](t *testing.T, label string, keys []K, names []string, srcs []KindSource[K]) (excluded int) {
	t.Helper()
	for _, k := range keys {
		want := srcs[0].Verdict(k)
		if want.Observed && !want.HasCluster {
			excluded++
		}
		for i, src := range srcs {
			v := src.Verdict(k)
			if v != want {
				t.Fatalf("%s: Verdict(%v): %s %+v, %s %+v", label, k, names[i], v, names[0], want)
			}
			if got := src.Category(k); got != v.Category {
				t.Fatalf("%s: %s Verdict(%v).Category = %v, Category %v", label, names[i], k, v.Category, got)
			}
		}
	}
	return excluded
}

// TestKindSourceContract: the classifier's output, the streamed read of
// the written snapshot and the mapped view over it all keep the
// KindSource contract — key order, counters, cluster sums, per-α ranges
// — and answer every key, observed, excluded or absent, with the same
// verdict. The classifier's sections are the bytes the writer puts in
// the file. Odd seeds are classic-only.
func TestKindSourceContract(t *testing.T) {
	var excludedClassic, excludedLarge int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := newRefUniverse(rng)
		ts := NewTupleStore()
		for _, v := range u.views(rng, 50+rng.Intn(400), seed%2 == 0) {
			ts.AddViewLarge(v.vp, v.path, v.comms, v.larges)
		}

		opts := Options{MinGap: []int{0, 140, 1000}[seed%3], RatioThreshold: 2, Workers: 1}
		full := Classify(ts, opts)
		data := writeFlat(t, full, SnapshotMeta{Source: "contract"})
		read, _, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		mapped := openMapped(t, data)

		names := []string{"classifier", "read", "mapped"}
		label := fmt.Sprintf("seed %d", seed)
		sameSections(t, label+" classic", &full.kindView, &read.kindView)
		if full.Large().Observed() > 0 {
			sameSections(t, label+" large", &full.large, &read.large)
		} else if read.large.stats != nil {
			t.Fatalf("%s: no large inferences, yet the file holds large sections", label)
		}
		for i, inf := range []*Inferences{full, read, &mapped.Inferences} {
			checkKindSource(t, label+" "+names[i]+" classic", inf, mappedMembers(&inf.kindView))
			checkKindSource(t, label+" "+names[i]+" large", inf.Large(), mappedMembers(&inf.large))
		}

		excludedClassic += checkSameVerdicts(t, label+" classic",
			append(observedKeys(&full.kindView), bgp.NewCommunity(64999, 64999)), names,
			[]KindSource[bgp.Community]{full, read, mapped})
		excludedLarge += checkSameVerdicts(t, label+" large",
			append(observedKeys(&full.large), bgp.LargeCommunity{GlobalAdmin: 64999, LocalData1: 1, LocalData2: 64999}), names,
			[]KindSource[bgp.LargeCommunity]{full.Large(), read.Large(), mapped.Large()})
	}
	if excludedClassic == 0 || excludedLarge == 0 {
		t.Fatalf("universes exercised %d classic and %d large exclusions; want some of each",
			excludedClassic, excludedLarge)
	}
}

// sameSections requires two views to hold byte-equal sections.
func sameSections[K Key[K]](t *testing.T, label string, a, b *kindView[K]) {
	t.Helper()
	for i, pair := range [][2][]byte{{a.stats, b.stats}, {a.clusters, b.clusters}, {a.members, b.members}, {a.lookup, b.lookup}} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Fatalf("%s: %s section differs: %d bytes against %d", label,
				[]string{"stats", "clusters", "members", "lookup"}[i], len(pair[0]), len(pair[1]))
		}
	}
}

// observedKeys lists every key the view covers (classified or excluded),
// in key order.
func observedKeys[K Key[K]](v *kindView[K]) []K {
	keys := make([]K, v.lookupCount())
	for i := range keys {
		rec, _ := v.lookupRec(i)
		keys[i] = v.lay.stats(rec).Comm
	}
	return keys
}

// mappedMembers lists a cluster's member records.
func mappedMembers[K Key[K]](v *kindView[K]) func(i int) []Stats[K] {
	return func(i int) []Stats[K] {
		start, count := v.clusterMemberRange(i)
		out := make([]Stats[K], count)
		for j := range out {
			out[j] = v.memberAt(start + j)
		}
		return out
	}
}
