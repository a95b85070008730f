// Package serve is the query layer over the inference pipeline: a
// long-running HTTP service answering "what does community α:β mean?"
// from an immutable, atomically swappable snapshot of classifier
// output.
//
// The read path is lock-free: every request loads the current
// *Snapshot once from an atomic.Pointer and answers entirely from that
// snapshot, so a concurrent reload can never tear a response across
// two corpus generations. Reloads build the replacement snapshot in
// the background (from MRT archives or a snapshot file, via the
// caller-supplied Builder) and swap it in with a single pointer store;
// the old snapshot stays reachable — and thus alive — until the last
// in-flight request that loaded it returns, at which point the garbage
// collector reclaims it. No reader ever blocks on a writer, and no
// request ever fails because a reload is in progress.
package serve

import (
	"fmt"
	"time"

	"bgpintent"
)

// Snapshot is one immutable generation of classifier output plus the
// derived query indexes. Everything in it is read-only after Build;
// handlers may share it freely across goroutines.
type Snapshot struct {
	// Gen is the monotonically increasing snapshot generation; every
	// response reports the generation it was answered from.
	Gen uint64
	// BuiltAt is when this snapshot was installed.
	BuiltAt time.Time
	// BuildDuration is how long the builder took to produce it.
	BuildDuration time.Duration
	// Source describes where the data came from ("snapshot:<path>" or
	// "mrt:<n> files").
	Source string
	// Info carries the corpus counters recorded at classification time.
	Info bgpintent.SnapshotInfo

	// Mode says how the result is held: "mmap" when served zero-copy
	// from a mapped snapshot file, "heap" otherwise.
	Mode string

	res *bgpintent.Result

	action      int
	information int
	excluded    int
	clusters    int
}

// NewSnapshot wraps a classification result into a query-ready
// snapshot. The summary counters are O(1) reads for mmap-backed
// results (precomputed in the snapshot's stats section), so installing
// a polled replica generation does not touch the full inference set.
func NewSnapshot(gen uint64, res *bgpintent.Result, info bgpintent.SnapshotInfo, source string, buildDuration time.Duration) *Snapshot {
	mode := "heap"
	if res.Mmapped() {
		mode = "mmap"
	}
	s := &Snapshot{
		Gen:           gen,
		BuiltAt:       time.Now(),
		BuildDuration: buildDuration,
		Source:        source,
		Info:          info,
		Mode:          mode,
		res:           res,
	}
	s.action, s.information = res.Counts()
	s.excluded = res.ExcludedCount()
	s.clusters = res.ClusterCount()
	return s
}

// LookupKey answers one community query (classic or large) from this
// snapshot.
func (s *Snapshot) LookupKey(k bgpintent.CommunityKey) bgpintent.KeyLookup {
	return s.res.LookupKey(k)
}

// ClustersFor returns the clusters inferred for one α, in (Lo, Hi)
// order. The returned slice is shared and must not be mutated.
func (s *Snapshot) ClustersFor(asn uint16) []bgpintent.Cluster {
	return s.res.ClustersFor(asn)
}

// String identifies the snapshot in logs.
func (s *Snapshot) String() string {
	return fmt.Sprintf("gen %d (%s: %d action, %d information, %d clusters)",
		s.Gen, s.Source, s.action, s.information, s.clusters)
}
