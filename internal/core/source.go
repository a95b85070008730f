// InferenceSource abstracts "a queryable set of inferences" over its
// two implementations: the heap-resident *Inferences the classifier
// produces, and the mmap-backed *Mapped view over a snapshot file.
// The serving layer programs against this interface so a replica can
// swap between heap and mapped generations without caring which it got.
package core

import (
	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// ClusterSummary is the flat, pointer-free description of one cluster:
// everything a query response renders, with the per-member evidence
// pre-aggregated. Unlike Cluster it holds no slices, so producing one
// never allocates — the serving hot path returns these by value.
type ClusterSummary struct {
	Alpha  uint16
	Lo, Hi uint16
	Label  dict.Category
	// Size is the observed member-community count.
	Size int
	// OnPath/OffPath are the members' unique-path counts, summed.
	OnPath, OffPath int64
	PureOnPath      bool
	PureOffPath     bool
	Ratio           float64
}

// Verdict is the flat counterpart of Lookup: the full answer for one
// community with the deciding cluster embedded by value instead of by
// pointer. It is the allocation-free serving primitive — a Verdict can
// be produced straight from mapped snapshot pages without touching the
// heap.
type Verdict struct {
	Comm     bgp.Community
	Observed bool
	Category dict.Category
	Stats    CommunityStats
	Reason   ExcludeReason
	// HasCluster reports whether Cluster is meaningful (false for
	// excluded and unobserved communities).
	HasCluster bool
	Cluster    ClusterSummary
}

// InferenceSource is a read-only set of community-intent inferences.
// Implementations are immutable after construction and safe for
// unsynchronized concurrent readers.
type InferenceSource interface {
	// Verdict answers one community query without allocating.
	Verdict(c bgp.Community) Verdict
	// Category returns the label (CatUnknown when excluded/unobserved).
	Category(c bgp.Community) dict.Category
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
	// addressed by index in (Alpha, Lo) order.
	ClusterCount() int
	// ClusterSummaryAt returns the i-th cluster's summary; i must be in
	// [0, ClusterCount()).
	ClusterSummaryAt(i int) ClusterSummary
	// EachLabeled visits every classified community. Order is
	// implementation-defined; callers needing determinism must sort.
	EachLabeled(fn func(c bgp.Community, cat dict.Category) bool)
	// Options returns the classifier options the inferences were
	// produced with (query-shaping fields only).
	Options() Options
	// Materialize returns the inferences as a heap *Inferences —
	// the implementation itself when already heap-resident, otherwise a
	// full reconstruction. WriteSnapshotFlat of the result writes the
	// same flat bytes as the original classifier output.
	Materialize() *Inferences

	// Large-community (RFC 8092) counterparts. Sources built from
	// classic-only corpora report zero large clusters and answer every
	// large query as unobserved.

	// VerdictLarge answers one large-community query without
	// allocating.
	VerdictLarge(lc bgp.LargeCommunity) LargeVerdict
	// LargeObserved is the number of distinct large communities covered
	// (classified plus excluded).
	LargeObserved() int
	// LargeCounts returns how many large communities were labeled
	// action and information.
	LargeCounts() (action, information int)
	// LargeClusterCount is the number of inferred large clusters;
	// summaries are addressed by index in (Alpha, Fn, Lo) order.
	LargeClusterCount() int
	// LargeClusterSummaryAt returns the i-th large cluster's summary.
	LargeClusterSummaryAt(i int) LargeClusterSummary
	// EachLargeLabeled visits every classified large community; order
	// is implementation-defined.
	EachLargeLabeled(fn func(lc bgp.LargeCommunity, cat dict.Category) bool)
}

// Compile-time interface checks for both implementations.
var (
	_ InferenceSource = (*Inferences)(nil)
	_ InferenceSource = (*Mapped)(nil)
)

// NoLargeInferences provides the large-community half of
// InferenceSource with the classic-only answers: zero large clusters,
// every large query unobserved. Embed it in adapters and test fakes
// that only model classic communities.
type NoLargeInferences struct{}

// VerdictLarge reports every large community as unobserved.
func (NoLargeInferences) VerdictLarge(lc bgp.LargeCommunity) LargeVerdict {
	return LargeVerdict{Comm: lc, Reason: ExcludeUnobserved}
}

// LargeObserved is always zero.
func (NoLargeInferences) LargeObserved() int { return 0 }

// LargeCounts is always zero.
func (NoLargeInferences) LargeCounts() (action, information int) { return 0, 0 }

// LargeClusterCount is always zero.
func (NoLargeInferences) LargeClusterCount() int { return 0 }

// LargeClusterSummaryAt never has a valid index; it returns the zero
// summary.
func (NoLargeInferences) LargeClusterSummaryAt(int) LargeClusterSummary {
	return LargeClusterSummary{}
}

// EachLargeLabeled visits nothing.
func (NoLargeInferences) EachLargeLabeled(func(lc bgp.LargeCommunity, cat dict.Category) bool) {}

// summarize aggregates one heap cluster into its flat summary.
func summarize(cl *Cluster) ClusterSummary {
	s := ClusterSummary{
		Alpha: cl.Alpha, Lo: cl.Lo, Hi: cl.Hi, Label: cl.Label,
		Size:       len(cl.Members),
		PureOnPath: cl.PureOnPath, PureOffPath: cl.PureOffPath,
		Ratio: cl.Ratio,
	}
	for i := range cl.Members {
		s.OnPath += int64(cl.Members[i].OnPath)
		s.OffPath += int64(cl.Members[i].OffPath)
	}
	return s
}

// Verdict answers one community query from the heap index without
// allocating (the cluster summary is aggregated on the fly; member
// counts are small by construction).
func (inf *Inferences) Verdict(c bgp.Community) Verdict {
	e, ok := inf.index[c]
	if !ok {
		return Verdict{Comm: c, Reason: ExcludeUnobserved}
	}
	v := Verdict{Comm: c, Observed: true, Stats: e.stats}
	if e.cluster >= 0 {
		v.HasCluster = true
		v.Cluster = summarize(&inf.Clusters[e.cluster])
		v.Category = v.Cluster.Label
	} else {
		v.Reason = inf.Excluded[c]
	}
	return v
}

// ExcludedCount is how many observed communities were left
// unclassified.
func (inf *Inferences) ExcludedCount() int { return len(inf.Excluded) }

// ClusterCount returns the number of inferred clusters.
func (inf *Inferences) ClusterCount() int { return len(inf.Clusters) }

// ClusterSummaryAt summarizes the i-th cluster.
func (inf *Inferences) ClusterSummaryAt(i int) ClusterSummary {
	return summarize(&inf.Clusters[i])
}

// EachLabeled visits every classified community in map order.
func (inf *Inferences) EachLabeled(fn func(c bgp.Community, cat dict.Category) bool) {
	for c, cat := range inf.Labels {
		if !fn(c, cat) {
			return
		}
	}
}

// Options returns the classifier options behind these inferences.
func (inf *Inferences) Options() Options { return inf.Opts }

// Materialize returns the receiver: it is already heap-resident.
func (inf *Inferences) Materialize() *Inferences { return inf }
