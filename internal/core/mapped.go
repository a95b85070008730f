// Mapped is the mmap-backed InferenceSource: a read-only view over a
// snapshot file whose query structures live in the kernel page
// cache, not this process's heap. Opening one is O(1) in corpus size;
// N replicas mapping the same file share one physical copy of the
// data; and Verdict reads decode fixed-width records straight off the
// mapped pages without allocating.
//
// Safety model: no unsafe pointer casts — records are decoded with
// encoding/binary accessors (which compile to plain loads), and every
// public method that returns reference types (Materialize) copies out
// of the mapping, so no caller-held slice can alias pages that a later
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
// snapshot file. Safe for unsynchronized concurrent readers.
type Mapped struct {
	s       *snapV2
	mmapped bool // true when backed by a real mmap, false for the heap fallback
	path    string
	size    int64
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
	m := &Mapped{s: s, mmapped: mmapped, path: path, size: st.Size()}
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
		return munmapFile(m.s.data)
	}
	return nil
}

// Path returns the snapshot file this view is mapped from.
func (m *Mapped) Path() string { return m.path }

// SizeBytes is the mapped file's size.
func (m *Mapped) SizeBytes() int64 { return m.size }

// Mmapped reports whether the view is backed by a real memory mapping
// (false on platforms where the fallback read the file into the heap).
func (m *Mapped) Mmapped() bool { return m.mmapped }

// Meta returns the snapshot's provenance block.
func (m *Mapped) Meta() SnapshotMeta { return m.s.meta }

// Verdict answers one community query by binary-searching the mapped
// lookup section. Zero-alloc: everything returned is a value decoded
// from the pages.
func (m *Mapped) Verdict(c bgp.Community) Verdict {
	i, ok := m.s.findLookup(uint32(c))
	if !ok {
		return Verdict{Comm: c, Reason: ExcludeUnobserved}
	}
	_, cluster, on, off := m.s.lookupAt(i)
	v := Verdict{
		Comm:     c,
		Observed: true,
		Stats:    CommunityStats{Comm: c, OnPath: int(on), OffPath: int(off)},
	}
	if cluster >= 0 {
		if cs, ok := m.s.clusterSummaryAt(int(cluster)); ok {
			v.HasCluster = true
			v.Cluster = cs
			v.Category = cs.Label
		}
		return v
	}
	reason := -cluster
	if reason > int32(ExcludeNeverOnPath) {
		reason = int32(ExcludeUnobserved)
	}
	v.Reason = ExcludeReason(reason)
	return v
}

// Category returns the community's label, CatUnknown when excluded or
// unobserved.
func (m *Mapped) Category(c bgp.Community) dict.Category {
	i, ok := m.s.findLookup(uint32(c))
	if !ok {
		return dict.CatUnknown
	}
	_, cluster, _, _ := m.s.lookupAt(i)
	if cluster < 0 {
		return dict.CatUnknown
	}
	return m.s.clusterLabel(int(cluster))
}

// Observed is the number of distinct communities in the snapshot.
func (m *Mapped) Observed() int { return m.s.observed }

// Counts returns the action/information label totals, precomputed at
// write time (stats section), so this is O(1) on a mapped view.
func (m *Mapped) Counts() (action, information int) {
	return m.s.action, m.s.information
}

// ExcludedCount is observed minus classified — both O(1) section
// record counts.
func (m *Mapped) ExcludedCount() int {
	return m.s.lookupCount() - m.s.memberCount()
}

// ClusterCount is the number of clusters in the snapshot.
func (m *Mapped) ClusterCount() int { return m.s.clusterCount() }

// ClusterSummaryAt decodes the i-th cluster record (sorted by
// (alpha, lo)); i must be in [0, ClusterCount()).
func (m *Mapped) ClusterSummaryAt(i int) ClusterSummary {
	cs, _ := m.s.clusterSummaryAt(i)
	return cs
}

// ClusterMembers copies the i-th cluster's member stats out of the
// mapping. The returned slice is heap-owned and remains valid after
// Close.
func (m *Mapped) ClusterMembers(i int) []CommunityStats {
	start, count := m.s.clusterMemberRange(i)
	if count == 0 {
		return nil
	}
	out := make([]CommunityStats, count)
	for j := 0; j < count; j++ {
		out[j] = m.s.memberAt(start + j)
	}
	return out
}

// AlphaClusters returns the index range [lo, hi) of clusters whose
// Alpha equals alpha, by binary search over the (alpha, lo)-sorted
// cluster section.
func (m *Mapped) AlphaClusters(alpha uint16) (lo, hi int) {
	n := m.s.clusterCount()
	lo = m.s.searchAlpha(alpha, n)
	hi = lo
	for hi < n {
		cs, _ := m.s.clusterSummaryAt(hi)
		if cs.Alpha != alpha {
			break
		}
		hi++
	}
	return lo, hi
}

// EachLabeled visits every classified community in ascending community
// order (the lookup section's order).
func (m *Mapped) EachLabeled(fn func(c bgp.Community, cat dict.Category) bool) {
	for i, n := 0, m.s.lookupCount(); i < n; i++ {
		comm, cluster, _, _ := m.s.lookupAt(i)
		if cluster < 0 {
			continue
		}
		if !fn(bgp.Community(comm), m.s.clusterLabel(int(cluster))) {
			return
		}
	}
}

// VerdictLarge answers one large-community query by binary-searching
// the mapped large lookup section (on a file without large sections
// every large community is unobserved). Zero-alloc like Verdict.
func (m *Mapped) VerdictLarge(lc bgp.LargeCommunity) LargeVerdict {
	i, ok := m.s.findLargeLookup(lc)
	if !ok {
		return LargeVerdict{Comm: lc, Reason: ExcludeUnobserved}
	}
	_, cluster, on, off := m.s.largeLookupAt(i)
	v := LargeVerdict{
		Comm:     lc,
		Observed: true,
		Stats:    LargeStats{Comm: lc, OnPath: int(on), OffPath: int(off)},
	}
	if cluster >= 0 {
		if cs, ok := m.s.largeClusterSummaryAt(int(cluster)); ok {
			v.HasCluster = true
			v.Cluster = cs
			v.Category = cs.Label
		}
		return v
	}
	reason := -cluster
	if reason > int32(ExcludeNeverOnPath) {
		reason = int32(ExcludeUnobserved)
	}
	v.Reason = ExcludeReason(reason)
	return v
}

// LargeObserved is the number of distinct large communities in the
// snapshot (0 on a file without large sections).
func (m *Mapped) LargeObserved() int { return m.s.largeObserved }

// LargeCounts returns the large action/information label totals,
// precomputed at write time.
func (m *Mapped) LargeCounts() (action, information int) {
	return m.s.largeAction, m.s.largeInformation
}

// LargeClusterCount is the number of large clusters in the snapshot.
func (m *Mapped) LargeClusterCount() int { return m.s.largeClusterCount() }

// LargeClusterSummaryAt decodes the i-th large cluster record (sorted
// by (alpha, fn, lo)); i must be in [0, LargeClusterCount()).
func (m *Mapped) LargeClusterSummaryAt(i int) LargeClusterSummary {
	cs, _ := m.s.largeClusterSummaryAt(i)
	return cs
}

// EachLargeLabeled visits every classified large community in
// ascending (ga, ld1, ld2) order.
func (m *Mapped) EachLargeLabeled(fn func(lc bgp.LargeCommunity, cat dict.Category) bool) {
	for i, n := 0, m.s.largeLookupCount(); i < n; i++ {
		lc, cluster, _, _ := m.s.largeLookupAt(i)
		if cluster < 0 {
			continue
		}
		if !fn(lc, m.s.largeClusterLabel(int(cluster))) {
			return
		}
	}
}

// Options returns the classifier options recorded in the snapshot.
func (m *Mapped) Options() Options { return m.s.options() }

// Materialize reconstructs a fully heap-resident *Inferences — every
// byte copied out of the mapping — for callers that need the mutable
// form (delta reclassification, re-serialization).
func (m *Mapped) Materialize() *Inferences { return m.s.materialize() }

// Verify runs the full integrity pass (section CRCs, sort invariants,
// index ranges) against the mapped bytes.
func (m *Mapped) Verify() error { return m.s.verify() }
