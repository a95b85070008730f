package bgpintent

import (
	"context"
	"sync"
	"testing"
)

// TestStartLiveClassifiesLarges: a live generation carries verdicts for
// the feed's large communities, as a batch classification of the same
// updates does.
func TestStartLiveClassifiesLarges(t *testing.T) {
	var mu sync.Mutex
	var last *Result
	var info SnapshotInfo
	live, err := StartLive(context.Background(), LiveOptions{
		Small:            true,
		Days:             1,
		SnapshotInterval: -1,
		OnSnapshot: func(res *Result, si SnapshotInfo, _ uint64) {
			mu.Lock()
			last, info = res, si
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last == nil {
		t.Fatal("no generation published")
	}
	if info.LargeCommunities == 0 {
		t.Fatal("the feed carried no large communities")
	}
	larges := last.LabeledLarge()
	if len(larges) == 0 {
		t.Fatalf("the final generation labels no large community (%d distinct in the window)", info.LargeCommunities)
	}
	if l := last.LookupKey(larges[0].Key); !l.HasCluster {
		t.Fatalf("LookupKey(%v) = %+v, want its deciding cluster", larges[0].Key, l)
	}
}
