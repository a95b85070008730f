// Inferences is the one representation of a classification: the
// snapshot's sections of each kind of key, queried in place. The
// classifier writes them into memory, ReadSnapshot keeps the bytes it
// read and verified, and Mapped embeds the same view over mapped pages.
// InferenceSource is what the serving and anomaly layers program against,
// so tests can stand in a fake.
package core

import (
	"math"
	"sort"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// ClusterSummary is the flat, pointer-free description of one cluster of
// either kind: everything a query response renders, with the per-member
// evidence pre-aggregated — a snapshot's cluster record decoded. It holds
// no slices, so the serving hot path returns these by value. Fn is 0 for
// classic clusters.
type ClusterSummary struct {
	Alpha, Fn uint32
	Lo, Hi    uint32
	Label     dict.Category
	// Size is the observed member-community count.
	Size int
	// OnPath/OffPath are the members' unique-path counts, summed.
	OnPath, OffPath int64
	PureOnPath      bool
	PureOffPath     bool
	Ratio           float64
}

// KeyVerdict is the full answer for one community: the label, the
// evidence behind it and the deciding cluster by value or, when
// unclassified, the reason why. It is the allocation-free serving
// primitive — a verdict is one lookup record and its cluster record,
// decoded.
type KeyVerdict[K Key[K]] struct {
	Comm     K
	Observed bool
	Category dict.Category
	Stats    Stats[K]
	Reason   ExcludeReason
	// HasCluster reports whether Cluster is meaningful (false for
	// excluded and unobserved communities).
	HasCluster bool
	Cluster    ClusterSummary
}

// Verdict is the classic-community verdict.
type Verdict = KeyVerdict[bgp.Community]

// KindSource is a read-only set of intent inferences over one kind of
// community key. It lists in key order: clusters by (Alpha, Fn, Lo) with
// members by value, so walking them visits the classified communities in
// ascending Compare order — the order of a snapshot's lookup section.
type KindSource[K Key[K]] interface {
	// Verdict answers one community query without allocating.
	Verdict(k K) KeyVerdict[K]
	// Category returns the label (CatUnknown when excluded/unobserved).
	Category(k K) dict.Category
	// Observed is the number of distinct communities covered
	// (classified plus excluded).
	Observed() int
	// Counts returns how many communities were labeled action and
	// information.
	Counts() (action, information int)
	// ExcludedCount is how many observed communities were deliberately
	// left unclassified.
	ExcludedCount() int
	// ClusterCount is the number of inferred clusters; summaries are
	// addressed by index in (Alpha, Fn, Lo) order.
	ClusterCount() int
	// ClusterSummaryAt returns the i-th cluster's summary; i must be in
	// [0, ClusterCount()).
	ClusterSummaryAt(i int) ClusterSummary
	// EachLabeled visits every classified community in ascending
	// Compare order until fn returns false.
	EachLabeled(fn func(k K, cat dict.Category) bool)
}

// AlphaClusters returns the index range [lo, hi) of src's clusters whose
// Alpha equals alpha, by binary search over the (Alpha, Fn, Lo) order
// every KindSource lists its clusters in.
func AlphaClusters[K Key[K]](src KindSource[K], alpha uint32) (lo, hi int) {
	n := src.ClusterCount()
	lo = sort.Search(n, func(i int) bool { return src.ClusterSummaryAt(i).Alpha >= alpha })
	hi = lo + sort.Search(n-lo, func(i int) bool { return src.ClusterSummaryAt(lo+i).Alpha > alpha })
	return lo, hi
}

// InferenceSource is a read-only set of community-intent inferences:
// itself the source of the classic (RFC 1997) ones, with the large
// (RFC 8092) ones behind Large. Implementations are immutable after
// construction and safe for unsynchronized concurrent readers.
type InferenceSource interface {
	KindSource[bgp.Community]
	// Large returns the large-community inferences. Sources built from
	// classic-only corpora report zero large clusters and answer every
	// large query as unobserved.
	Large() KindSource[bgp.LargeCommunity]
	// Options returns the classifier options the inferences were
	// produced with (query-shaping fields only).
	Options() Options
}

// Inferences is a classification in the snapshot's layout: each kind's
// four sections (stats, clusters, members, lookup), with the classic view
// embedded so its query methods are the Inferences' own. The large view
// is empty for classic-only corpora — whose snapshots and reports are
// then byte-identical to a larges-unaware build. Immutable once built,
// so queries need no locking.
type Inferences struct {
	kindView[bgp.Community]
	large kindView[bgp.LargeCommunity]
}

// Compile-time interface checks: the inferences, and the mapped file
// that embeds them.
var (
	_ InferenceSource = (*Inferences)(nil)
	_ InferenceSource = (*Mapped)(nil)
)

// Large returns the large-community inferences.
func (inf *Inferences) Large() KindSource[bgp.LargeCommunity] { return &inf.large }

// Options returns the classifier options the classic stats section
// records.
func (inf *Inferences) Options() Options {
	b := inf.stats
	flags := le.Uint64(b[16:])
	return Options{
		MinGap:            int(int64(le.Uint64(b[0:]))),
		RatioThreshold:    math.Float64frombits(le.Uint64(b[8:])),
		DisableExclusions: flags&v2FlagDisableExclusions != 0,
		PooledRatio:       flags&v2FlagPooledRatio != 0,
	}
}

// putOptions records opts' query-shaping fields at the head of a classic
// stats section.
func putOptions(b []byte, opts Options) {
	le.PutUint64(b[0:], uint64(int64(opts.MinGap)))
	le.PutUint64(b[8:], math.Float64bits(opts.RatioThreshold))
	var flags uint64
	if opts.DisableExclusions {
		flags |= v2FlagDisableExclusions
	}
	if opts.PooledRatio {
		flags |= v2FlagPooledRatio
	}
	le.PutUint64(b[16:], flags)
}

// clone copies every section out of the backing bytes.
func (inf *Inferences) clone() *Inferences {
	return &Inferences{kindView: inf.kindView.clone(), large: inf.large.clone()}
}

// NoLargeInferences provides InferenceSource's Large with the
// classic-only answer: zero large clusters, every large query
// unobserved. Embed it in adapters and test fakes that only model
// classic communities.
type NoLargeInferences struct{}

// noLarges is the empty large-community view.
var noLarges = kindView[bgp.LargeCommunity]{lay: &largeLayout}

// Large returns an empty set.
func (NoLargeInferences) Large() KindSource[bgp.LargeCommunity] { return &noLarges }

// Verdict answers one community query by binary-searching the lookup
// section. Zero-alloc: everything returned is a value decoded from the
// section bytes.
func (v *kindView[K]) Verdict(k K) KeyVerdict[K] {
	i, ok := v.findLookup(k)
	if !ok {
		return KeyVerdict[K]{Comm: k, Reason: ExcludeUnobserved}
	}
	rec, cluster := v.lookupRec(i)
	out := KeyVerdict[K]{Comm: k, Observed: true, Stats: Stats[K]{Comm: k}}
	out.Stats.OnPath, out.Stats.OffPath = v.lay.counts(rec)
	if cluster < 0 {
		out.Reason = excludeReason(cluster)
	} else if v.clusterSummary(int(cluster), &out.Cluster) {
		out.HasCluster = true
		out.Category = out.Cluster.Label
	}
	return out
}

// Category returns the community's label, CatUnknown when excluded or
// unobserved.
func (v *kindView[K]) Category(k K) dict.Category {
	i, ok := v.findLookup(k)
	if !ok {
		return dict.CatUnknown
	}
	_, cluster := v.lookupRec(i)
	return v.clusterLabel(int(cluster)) // CatUnknown for an exclusion's negative index
}

// Observed is the number of distinct communities: one lookup record
// each.
func (v *kindView[K]) Observed() int { return v.lookupCount() }

// Counts returns the action/information label totals the stats section
// records, so this is O(1).
func (v *kindView[K]) Counts() (action, information int) {
	return int(v.counter(0)), int(v.counter(1))
}

// ExcludedCount is observed minus classified — both O(1) section
// record counts.
func (v *kindView[K]) ExcludedCount() int { return v.lookupCount() - v.memberCount() }

// ClusterCount is the number of cluster records.
func (v *kindView[K]) ClusterCount() int { return v.clusterCount() }

// ClusterSummaryAt decodes the i-th cluster record (sorted by
// (alpha, fn, lo)); i must be in [0, ClusterCount()).
func (v *kindView[K]) ClusterSummaryAt(i int) (cs ClusterSummary) {
	v.clusterSummary(i, &cs)
	return cs
}

// EachLabeled visits every classified community in ascending key order
// (the lookup section's order).
func (v *kindView[K]) EachLabeled(fn func(k K, cat dict.Category) bool) {
	for i, n := 0, v.lookupCount(); i < n; i++ {
		rec, cluster := v.lookupRec(i)
		if cluster >= 0 && !fn(v.lay.stats(rec).Comm, v.clusterLabel(int(cluster))) {
			return
		}
	}
}
