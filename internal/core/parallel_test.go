package core

import (
	"bytes"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// buildParallelStore loads enough synthetic views that Observe's
// parallel path engages (>= minParallelTuples tuples).
func buildParallelStore(t *testing.T) *TupleStore {
	t.Helper()
	views := genViews(7, 40000)
	ts := NewTupleStore()
	for _, v := range views {
		ts.AddView(v.vp, v.path, v.comms)
	}
	if ts.Len() < minParallelTuples {
		t.Fatalf("fixture too small: %d tuples < %d", ts.Len(), minParallelTuples)
	}
	return ts
}

// TestObserveParallelEquivalence: Observe returns identical statistics
// for every worker count.
func TestObserveParallelEquivalence(t *testing.T) {
	ts := buildParallelStore(t)
	opts := DefaultOptions()
	opts.Workers = 1
	ref := Observe(ts, opts)
	for _, workers := range []int{2, 8} {
		opts.Workers = workers
		got := Observe(ts, opts)
		if !slices.Equal(got.Stats, ref.Stats) {
			t.Fatalf("workers=%d: %d community records differ from the sequential %d", workers, len(got.Stats), len(ref.Stats))
		}
		if !slices.Equal(got.seenASNs, ref.seenASNs) {
			t.Fatalf("workers=%d: on-path ASN sets differ", workers)
		}
		if !slices.Equal(got.seenOrgs, ref.seenOrgs) {
			t.Fatalf("workers=%d: on-path org sets differ", workers)
		}
	}
}

// TestClassifyParallelEquivalence: the full pipeline emits identical
// labels, clusters and exclusions for every worker count.
func TestClassifyParallelEquivalence(t *testing.T) {
	ts := buildParallelStore(t)
	opts := DefaultOptions()
	opts.Workers = 1
	ref := Classify(ts, opts)
	for _, workers := range []int{2, 8} {
		opts.Workers = workers
		got := Classify(ts, opts)
		if !reflect.DeepEqual(labelsOf(got), labelsOf(ref)) {
			t.Fatalf("workers=%d: labels differ", workers)
		}
		if !reflect.DeepEqual(excludedOf(&got.kindView), excludedOf(&ref.kindView)) {
			t.Fatalf("workers=%d: exclusions differ", workers)
		}
		if !bytes.Equal(writeFlat(t, got, SnapshotMeta{}), writeFlat(t, ref, SnapshotMeta{})) {
			t.Fatalf("workers=%d: clusters, members or lookup records differ", workers)
		}
	}
}

// TestParallelFor covers the pool helper: every index runs exactly
// once, for worker counts around and beyond n.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 16} {
		for _, n := range []int{0, 1, 5, 100} {
			var hits atomic.Int64
			seen := make([]atomic.Bool, n)
			ParallelFor(workers, n, func(i int) {
				if seen[i].Swap(true) {
					t.Errorf("workers=%d n=%d: index %d ran twice", workers, n, i)
				}
				hits.Add(1)
			})
			if int(hits.Load()) != n {
				t.Errorf("workers=%d n=%d: %d calls", workers, n, hits.Load())
			}
		}
	}
}

// TestParallelRanges covers the range splitter: the ranges tile [0, n)
// without overlap.
func TestParallelRanges(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 6, 97} {
			covered := make([]atomic.Int32, n)
			parallelRanges(workers, n, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			})
			for i := range covered {
				if c := covered[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestResolveWorkers pins the knob semantics.
func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("ResolveWorkers(3) = %d", got)
	}
	if got := ResolveWorkers(0); got < 1 {
		t.Errorf("ResolveWorkers(0) = %d", got)
	}
	if got := ResolveWorkers(-2); got < 1 {
		t.Errorf("ResolveWorkers(-2) = %d", got)
	}
}
