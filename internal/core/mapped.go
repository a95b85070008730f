// Mapped is the mmap-backed InferenceSource: a read-only view over a
// snapshot file whose query structures live in the kernel page
// cache, not this process's heap. Opening one is O(1) in corpus size;
// N replicas mapping the same file share one physical copy of the
// data; and Verdict reads decode fixed-width records straight off the
// mapped pages without allocating.
//
// Safety model: no unsafe pointer casts — records are decoded with
// encoding/binary accessors (which compile to plain loads), and the one
// public method that returns reference types (Materialize) copies out of
// the mapping, so no caller-held slice can alias pages that a later
// Close unmaps. Value results (Verdict, ClusterSummary) are copies by
// construction.
package core

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// Mapped is an immutable inference set served directly from a mapped
// snapshot file. Safe for unsynchronized concurrent readers. The
// embedded parsed view is the InferenceSource: the classic KindSource
// methods, Large, Options, Materialize — and Verify, the full integrity
// pass (section CRCs, sort invariants, index ranges) an open skips.
type Mapped struct {
	*snapV2
	mmapped bool // true when backed by a real mmap, false for the heap fallback
	closed  atomic.Bool
}

// OpenSnapshotMmap maps the snapshot at path and returns a queryable
// view. The work done is O(1) in corpus size: the file is mapped (or,
// on platforms without mmap support, read whole), the header and
// section table are validated, and the tiny meta/stats sections are
// decoded; record arrays are only faulted in as queries touch them.
//
// The mapping is released by Close, or by the garbage collector when
// the Mapped becomes unreachable — so an atomically swapped-out
// generation stays valid until the last in-flight request drops its
// reference.
func OpenSnapshotMmap(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mmapped, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("snapshot: mmap %s: %w", path, err)
	}
	s, err := parseSnapshotV2(data)
	if err != nil {
		if mmapped {
			munmapFile(data)
		}
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	m := &Mapped{snapV2: s, mmapped: mmapped}
	if mmapped {
		// Belt and braces: unmap when the GC proves no reference —
		// including any in-flight request's — can still reach the pages.
		runtime.SetFinalizer(m, func(m *Mapped) { m.Close() })
	}
	return m, nil
}

// Close releases the mapping. Idempotent; safe to call while other
// goroutines still hold the *Mapped only if they have stopped querying
// it (the serving layer guarantees this by draining before closing —
// or by not calling Close at all and letting the finalizer run).
func (m *Mapped) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	if m.mmapped {
		return munmapFile(m.data)
	}
	return nil
}

// Mmapped reports whether the view is backed by a real memory mapping
// (false on platforms where the fallback read the file into the heap).
func (m *Mapped) Mmapped() bool { return m.mmapped }

// Meta returns the snapshot's provenance block.
func (m *Mapped) Meta() SnapshotMeta { return m.meta }

// Large returns the large-community inferences (an empty set on a file
// without large sections).
func (s *snapV2) Large() KindSource[bgp.LargeCommunity] { return &s.large }

// Verdict answers one community query by binary-searching the mapped
// lookup section. Zero-alloc: everything returned is a value decoded
// from the pages.
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

// Observed is the number of distinct communities in the snapshot.
func (v *kindView[K]) Observed() int { return v.observed }

// Counts returns the action/information label totals, precomputed at
// write time (stats section), so this is O(1) on a mapped view.
func (v *kindView[K]) Counts() (action, information int) { return v.action, v.information }

// ExcludedCount is observed minus classified — both O(1) section
// record counts.
func (v *kindView[K]) ExcludedCount() int { return v.lookupCount() - v.memberCount() }

// ClusterCount is the number of clusters in the snapshot.
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
