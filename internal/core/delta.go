// Incremental reclassification: the streaming path calls ClassifyDelta
// with the set of dirty αs — the ASes whose evidence changed since the
// previous classification — so only their clusters re-run the
// observe/cluster/ratio/classify stages; every clean α reuses its
// clusters from the previous Inferences verbatim.
package core

import (
	"cmp"
	"context"
	"slices"

	"bgpintent/internal/bgp"
)

// deltaCompatible reports whether two option sets classify under the
// same regime, so previous clusters remain valid for clean αs.
func deltaCompatible(a, b Options) bool {
	return a.MinGap == b.MinGap &&
		a.RatioThreshold == b.RatioThreshold &&
		a.DisableExclusions == b.DisableExclusions &&
		a.PooledRatio == b.PooledRatio
}

// ClassifyDelta reclassifies only the dirty αs against the current
// store, merging with prev for every other α. The result is identical
// to ClassifyContext(ctx, ts, opts) provided dirty covers every α
// whose evidence changed: the α of every community added to or evicted
// from the store since prev, plus every 16-bit ASN whose presence in
// the observed path set flipped (never-on-path exclusions depend on
// it). The stream.Window tracks exactly that set.
//
// Falls back to a full classification when prev is nil, when the
// classification options changed, when sibling awareness (opts.Orgs)
// is enabled — an org flip can dirty sibling αs the caller cannot see
// — or when large communities are in play on either side: the dirty
// set tracks 16-bit αs only, so large evidence changes are invisible
// to it and the conservative path is the correct one.
//
// A nil dirty set with a valid prev means nothing changed; prev is
// returned as-is.
func ClassifyDelta(ctx context.Context, ts *TupleStore, opts Options, prev *Inferences, dirty map[uint16]bool) (*Inferences, error) {
	if prev == nil || opts.Orgs != nil || !deltaCompatible(opts, prev.Opts) ||
		ts.largeTuples || hasLargeInferences(prev) {
		return ClassifyContext(ctx, ts, opts)
	}
	if len(dirty) == 0 {
		return prev, nil
	}

	// Observe only the dirty αs' communities; on-path evidence stays
	// global.
	os, err := observe(ctx, ts, opts, dirty)
	if err != nil {
		return nil, err
	}

	// Cluster/ratio/classify the dirty αs alone.
	sub, err := ClassifyObservedContext(ctx, os, opts)
	if err != nil {
		return nil, err
	}

	// Merge: clean αs keep their previous clusters and exclusions
	// (shared, immutable), dirty αs take the fresh ones.
	merged := &Inferences{Opts: opts}
	merged.Clusters = make([]Cluster[bgp.Community], 0, len(prev.Clusters)+len(sub.Clusters))
	for i := range prev.Clusters {
		if !dirty[uint16(prev.Clusters[i].Alpha)] {
			merged.Clusters = append(merged.Clusters, prev.Clusters[i])
		}
	}
	merged.Clusters = append(merged.Clusters, sub.Clusters...)
	// ClassifyContext emits clusters in (α, Lo) order; restore it so a
	// delta-maintained result is byte-identical to a batch one.
	slices.SortFunc(merged.Clusters, func(a, b Cluster[bgp.Community]) int {
		return cmp.Or(cmp.Compare(a.Alpha, b.Alpha), cmp.Compare(a.Lo, b.Lo))
	})

	// Sized to what it will hold, give or take the dirty αs' former
	// exclusions: a generous hint would double the bucket array every
	// generation keeps.
	n := prev.ExcludedCount() + sub.ExcludedCount()
	for i := range merged.Clusters {
		n += merged.Clusters[i].Size
	}
	merged.index = make(map[bgp.Community]indexEntry[bgp.Community], n)
	for c, e := range prev.index {
		if e.cluster < 0 && !dirty[c.ASN()] {
			merged.index[c] = e
		}
	}
	for c, e := range sub.index {
		if e.cluster < 0 {
			merged.index[c] = e
		}
	}
	merged.buildIndex(nil)
	return merged, nil
}
