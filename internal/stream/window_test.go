package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
)

// wu builds a synthetic update for window tests: one VP, a path, and
// communities given as (asn, value) pairs.
func wu(seq uint64, at time.Time, path []uint32, comms ...uint32) Update {
	cs := make(bgp.Communities, 0, len(comms)/2)
	for i := 0; i+1 < len(comms); i += 2 {
		cs = append(cs, bgp.NewCommunity(uint16(comms[i]), uint16(comms[i+1])))
	}
	return Update{Seq: seq, Time: at, VP: path[0], Path: path, Comms: cs}
}

// refStore rebuilds a tuple store from scratch out of updates, the way a
// batch load keys them — the oracle an incrementally-maintained window
// store must match.
func refStore(ups []Update) *core.TupleStore {
	ts := core.NewTupleStore()
	for _, u := range ups {
		ts.AddViewLarge(u.VP, u.Path, u.Comms, u.LargeComms)
	}
	return ts
}

// sameStore compares the observable content of two tuple stores.
func sameStore(t *testing.T, got, want *core.TupleStore) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("tuples: got %d, want %d", got.Len(), want.Len())
	}
	if got.PathCount() != want.PathCount() {
		t.Fatalf("paths: got %d, want %d", got.PathCount(), want.PathCount())
	}
	gc, wc := got.Communities(), want.Communities()
	slices.Sort(gc)
	slices.Sort(wc)
	if !slices.Equal(gc, wc) {
		t.Fatalf("community sets differ: got %d, want %d", len(gc), len(wc))
	}
	gv, wv := got.VPSet(), want.VPSet()
	slices.Sort(gv)
	slices.Sort(wv)
	if !slices.Equal(gv, wv) {
		t.Fatalf("VP sets differ: %d vs %d", len(gv), len(wv))
	}
}

func TestWindowUnboundedMatchesBatch(t *testing.T) {
	w := NewWindow(WindowConfig{}) // Span 0: no eviction
	ups := drain(t, NewSimSource(newTestSim(t), SimConfig{Days: 1}), 0, 0)
	for _, u := range ups {
		w.Add(u)
	}
	sameStore(t, w.Store(), refStore(ups))
	st := w.Stats()
	if st.Evicted != 0 || st.Rebuilds != 0 {
		t.Fatalf("unbounded window evicted %d / rebuilt %d times", st.Evicted, st.Rebuilds)
	}
	if st.Updates != len(ups) {
		t.Fatalf("Updates = %d, want %d", st.Updates, len(ups))
	}
}

func TestWindowEvicts(t *testing.T) {
	// Span 4h in 4 buckets of 1h; updates one hour apart, so each Add
	// past the fourth opens a bucket and evicts the tail one.
	epoch := time.Unix(1_700_000_000, 0).UTC()
	w := NewWindow(WindowConfig{Span: 4 * time.Hour, Buckets: 4})
	var ups []Update
	for i := 0; i < 10; i++ {
		u := wu(uint64(i+1), epoch.Add(time.Duration(i)*time.Hour),
			[]uint32{uint32(100 + i), 200}, uint32(300+i), 10)
		ups = append(ups, u)
		w.Add(u)
	}
	st := w.Stats()
	if st.Evicted != 6 {
		t.Fatalf("Evicted = %d, want 6 (10 hourly updates, 4-bucket window)", st.Evicted)
	}
	if st.Rebuilds == 0 {
		t.Fatal("eviction without a store rebuild")
	}
	if st.Updates != 4 {
		t.Fatalf("live Updates = %d, want 4", st.Updates)
	}
	// The store must equal one rebuilt from only the surviving updates.
	sameStore(t, w.Store(), refStore(ups[6:]))
	if got, want := st.Oldest, ups[6].Time; !got.Equal(want) {
		t.Fatalf("Oldest = %v, want %v", got, want)
	}
	if got, want := st.Newest, ups[9].Time; !got.Equal(want) {
		t.Fatalf("Newest = %v, want %v", got, want)
	}
}

func TestWindowTimeJumpFastForward(t *testing.T) {
	// A feed-time jump far past the window (long stall, loop wrap) must
	// evict everything old without materializing intermediate buckets.
	epoch := time.Unix(1_700_000_000, 0).UTC()
	w := NewWindow(WindowConfig{Span: time.Hour, Buckets: 4})
	w.Add(wu(1, epoch, []uint32{1, 2}, 10, 1))
	w.Add(wu(2, epoch.Add(10*365*24*time.Hour), []uint32{3, 4}, 20, 2))
	st := w.Stats()
	if st.Updates != 1 || st.Evicted != 1 {
		t.Fatalf("after 10-year jump: live=%d evicted=%d, want 1/1", st.Updates, st.Evicted)
	}
	sameStore(t, w.Store(), refStore([]Update{wu(2, epoch, []uint32{3, 4}, 20, 2)}))
}

func TestWindowStragglerStays(t *testing.T) {
	// An update whose feed time is older than the newest bucket lands in
	// it rather than being dropped: conservative, never lossy.
	epoch := time.Unix(1_700_000_000, 0).UTC()
	w := NewWindow(WindowConfig{Span: 4 * time.Hour, Buckets: 4})
	w.Add(wu(1, epoch.Add(2*time.Hour), []uint32{1, 2}, 10, 1))
	w.Add(wu(2, epoch, []uint32{3, 4}, 20, 2)) // straggler, 2h behind
	if st := w.Stats(); st.Updates != 2 || st.Evicted != 0 {
		t.Fatalf("straggler handling: live=%d evicted=%d, want 2/0", st.Updates, st.Evicted)
	}
}

// TestWindowStragglerBounds: the window's feed-time bounds are its
// updates' own times, not bucket starts, also when stragglers older than
// the newest bucket's start land in it — here older than the start of
// every bucket, then between two older updates.
func TestWindowStragglerBounds(t *testing.T) {
	epoch := time.Unix(1_699_999_200, 0).UTC() // on an hour boundary
	w := NewWindow(WindowConfig{Span: 4 * time.Hour, Buckets: 4})
	var fed []Update
	for i, at := range []time.Duration{
		10 * time.Minute, 70 * time.Minute, 150 * time.Minute, 125 * time.Minute, // newest bucket starts at 2h
		-30 * time.Minute, // older than every bucket's start
		90 * time.Minute,
		130 * time.Minute,
	} {
		u := wu(uint64(i+1), epoch.Add(at), []uint32{uint32(1 + i), 9}, 9, uint32(i))
		w.Add(u)
		fed = append(fed, u)
		oldest, newest := fed[0].Time, fed[0].Time
		for _, f := range fed {
			if f.Time.Before(oldest) {
				oldest = f.Time
			}
			if f.Time.After(newest) {
				newest = f.Time
			}
		}
		st := w.Stats()
		if st.Updates != len(fed) || st.Evicted != 0 {
			t.Fatalf("after add %d: live=%d evicted=%d, want %d/0", i+1, st.Updates, st.Evicted, len(fed))
		}
		if !st.Oldest.Equal(oldest) || !st.Newest.Equal(newest) {
			t.Fatalf("after add %d: window spans %v–%v, its updates %v–%v", i+1, st.Oldest, st.Newest, oldest, newest)
		}
	}
	if st := NewWindow(WindowConfig{Span: time.Hour, Buckets: 2}).Stats(); !st.Oldest.IsZero() || !st.Newest.IsZero() {
		t.Fatalf("an empty window spans %v–%v, want zero times", st.Oldest, st.Newest)
	}
}

// TestWindowMatchesOracle: over random schedules with non-decreasing feed
// times — same-instant runs, steps inside a bucket, landings exactly on
// a bucket boundary and jumps longer than the whole span — the window
// holds, after every Add, exactly the updates at or after
// Truncate(newest, bucket) − (Buckets−1)·bucket: its counters and bounds
// say so, its distinct vantage points and communities are those of the
// updates counted directly, and its store is the size of one rebuilt
// from those updates.
func TestWindowMatchesOracle(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0).UTC()
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		buckets := 2 + rng.Intn(5)
		bucket := time.Duration(1+rng.Intn(4)) * time.Minute
		w := NewWindow(WindowConfig{Span: time.Duration(buckets) * bucket, Buckets: buckets})
		now := epoch.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		var fed []Update
		for i := 0; i < 200; i++ {
			switch r := rng.Intn(10); {
			case r < 3: // same instant
			case r < 6:
				now = now.Add(time.Duration(rng.Int63n(int64(bucket))))
			case r < 9:
				now = now.Truncate(bucket).Add(time.Duration(1+rng.Intn(buckets)) * bucket)
			default:
				now = now.Add(time.Duration(buckets+rng.Intn(3))*bucket + time.Duration(rng.Int63n(int64(bucket))))
			}
			u := wu(uint64(i+1), now, []uint32{uint32(1 + rng.Intn(4)), uint32(10 + rng.Intn(6))},
				uint32(10+rng.Intn(6)), uint32(rng.Intn(3)), uint32(1+rng.Intn(4)), uint32(rng.Intn(3)))
			w.Add(u)
			fed = append(fed, u)

			cutoff := now.Truncate(bucket).Add(-time.Duration(buckets-1) * bucket)
			live := fed[sort.Search(len(fed), func(i int) bool { return !fed[i].Time.Before(cutoff) }):]
			label := fmt.Sprintf("seed %d add %d (%d buckets of %v)", seed, i+1, buckets, bucket)
			st := w.Stats()
			if st.Updates != len(live) || st.Evicted != uint64(len(fed)-len(live)) {
				t.Fatalf("%s: window holds %d and evicted %d, oracle %d and %d",
					label, st.Updates, st.Evicted, len(live), len(fed)-len(live))
			}
			if !st.Oldest.Equal(live[0].Time) || !st.Newest.Equal(now) {
				t.Fatalf("%s: window spans %v–%v, oracle %v–%v", label, st.Oldest, st.Newest, live[0].Time, now)
			}
			if got, ref := w.Store(), refStore(live); got.Len() != ref.Len() || got.PathCount() != ref.PathCount() {
				t.Fatalf("%s: store holds %d tuples on %d paths, oracle's %d on %d",
					label, got.Len(), got.PathCount(), ref.Len(), ref.PathCount())
			}
			vps, comms := map[uint32]bool{}, map[bgp.Community]bool{}
			for _, u := range live {
				vps[u.VP] = true
				for _, c := range u.Comms {
					comms[c] = true
				}
			}
			if st.VantagePoints != len(vps) || st.Communities != len(comms) {
				t.Fatalf("%s: window counts %d vantage points and %d communities, oracle %d and %d",
					label, st.VantagePoints, st.Communities, len(vps), len(comms))
			}
		}
	}
}
