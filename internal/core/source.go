// InferenceSource abstracts "a queryable set of inferences" over its
// two implementations: the heap-resident *Inferences the classifier
// produces, and the mmap-backed *Mapped view over a snapshot file.
// The serving layer programs against this interface so a replica can
// swap between heap and mapped generations without caring which it got.
package core

import (
	"sort"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// ClusterSummary is the flat, pointer-free description of one cluster of
// either kind: everything a query response renders, with the per-member
// evidence pre-aggregated — a snapshot's cluster record, and the head of
// a heap Cluster. It holds no slices, so the serving hot path returns
// these by value. Fn is 0 for classic clusters.
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
// primitive — a verdict is a copy of one heap index entry or of one
// lookup record of the mapped snapshot pages.
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
// community key. Both implementations list in key order: clusters by
// (Alpha, Fn, Lo) with members by value, so walking them visits the
// classified communities in ascending Compare order — the order of a
// snapshot's lookup section.
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
	// Materialize returns the inferences as a heap *Inferences —
	// the implementation itself when already heap-resident, otherwise a
	// full reconstruction. WriteSnapshotFlat of the result writes the
	// same flat bytes as the original classifier output.
	Materialize() *Inferences
}

// Compile-time interface checks for both implementations.
var (
	_ InferenceSource = (*Inferences)(nil)
	_ InferenceSource = (*Mapped)(nil)
)

// NoLargeInferences provides InferenceSource's Large with the
// classic-only answer: zero large clusters, every large query
// unobserved. Embed it in adapters and test fakes that only model
// classic communities.
type NoLargeInferences struct{}

// Large returns an empty set.
func (NoLargeInferences) Large() KindSource[bgp.LargeCommunity] {
	return new(KindSet[bgp.LargeCommunity])
}

// Verdict answers one community query from the heap index without
// allocating.
func (ks *KindSet[K]) Verdict(k K) KeyVerdict[K] {
	e, ok := ks.index[k]
	if !ok {
		return KeyVerdict[K]{Comm: k, Reason: ExcludeUnobserved}
	}
	v := KeyVerdict[K]{Comm: k, Observed: true, Stats: e.stats}
	if e.cluster >= 0 {
		v.HasCluster = true
		v.Cluster = ks.Clusters[e.cluster].ClusterSummary
		v.Category = v.Cluster.Label
	} else {
		v.Reason = ExcludeReason(-e.cluster)
	}
	return v
}

// ExcludedCount is how many observed communities were left
// unclassified: those the index holds beyond the cluster members.
func (ks *KindSet[K]) ExcludedCount() int {
	n := len(ks.index)
	for i := range ks.Clusters {
		n -= ks.Clusters[i].Size
	}
	return n
}

// ClusterCount returns the number of inferred clusters.
func (ks *KindSet[K]) ClusterCount() int { return len(ks.Clusters) }

// ClusterSummaryAt returns the i-th cluster's summary.
func (ks *KindSet[K]) ClusterSummaryAt(i int) ClusterSummary {
	return ks.Clusters[i].ClusterSummary
}

// EachLabeled visits every classified community, cluster by cluster.
func (ks *KindSet[K]) EachLabeled(fn func(k K, cat dict.Category) bool) {
	for i := range ks.Clusters {
		cl := &ks.Clusters[i]
		for j := range cl.Members {
			if !fn(cl.Members[j].Comm, cl.Label) {
				return
			}
		}
	}
}

// Options returns the classifier options behind these inferences.
func (inf *Inferences) Options() Options { return inf.Opts }

// Materialize returns the receiver: it is already heap-resident.
func (inf *Inferences) Materialize() *Inferences { return inf }
