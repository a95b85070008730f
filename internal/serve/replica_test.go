package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgpintent"
)

// writeSnapFile serializes res as a snapshot file and returns its
// path — what an origin intentd would publish at
// /v1/snapshot.
func writeSnapFile(t testing.TB, dir, name string, w *testWorld, res *bgpintent.Result) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteSnapshotFlat(f, w.corpus.SnapshotInfo("replica-test")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapOrigin is a fake origin: it serves whichever snapshot file is
// currently selected, with a per-file ETag, like intentd's
// /v1/snapshot endpoint.
type snapOrigin struct {
	mu   sync.Mutex
	path string
	hits atomic.Int64
}

func (o *snapOrigin) set(path string) {
	o.mu.Lock()
	o.path = path
	o.mu.Unlock()
}

func (o *snapOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.hits.Add(1)
	o.mu.Lock()
	path := o.path
	o.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	etag := fmt.Sprintf("%q", path)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	http.ServeContent(w, r, "snapshot", st.ModTime(), f)
}

// emptyBuilder is the placeholder builder replica-mode intentd uses
// before its first successful poll.
func emptyBuilder(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
	res, info := bgpintent.EmptyResult()
	return res, info, "replica:awaiting-poll", nil
}

// TestReplicaPollAndSwap: the poller installs the origin's snapshot,
// 304s an unchanged generation, and swaps when the origin advances.
func TestReplicaPollAndSwap(t *testing.T) {
	w := getWorld(t)
	dir := t.TempDir()
	origin := &snapOrigin{}
	origin.set(writeSnapFile(t, dir, "a.snap", w, w.resA))
	ts := httptest.NewServer(origin)
	defer ts.Close()

	s := newTestServer(t, emptyBuilder)
	// A cache dir that doesn't exist yet: NewReplica must create it, or
	// every poll fails before the first byte is written.
	rep := NewReplica(s, ReplicaConfig{URL: ts.URL, CacheDir: filepath.Join(t.TempDir(), "nested", "cache")})

	swapped, err := rep.Poll(context.Background())
	if err != nil || !swapped {
		t.Fatalf("first poll: swapped=%v err=%v", swapped, err)
	}
	snap := s.Snapshot()
	if snap.Gen != 2 { // gen 1 is the awaiting-poll placeholder
		t.Fatalf("generation after first swap = %d, want 2", snap.Gen)
	}
	if got := snap.res.Category(w.probe); got != w.catA {
		t.Fatalf("probe category = %v, want %v (resA)", got, w.catA)
	}
	if snap.Mode != "mmap" {
		t.Fatalf("replica snapshot mode = %q, want mmap", snap.Mode)
	}

	// Unchanged origin: ETag gates the transfer, no swap.
	swapped, err = rep.Poll(context.Background())
	if err != nil || swapped {
		t.Fatalf("unchanged poll: swapped=%v err=%v", swapped, err)
	}
	if s.Snapshot().Gen != 2 {
		t.Fatalf("generation moved on an unchanged poll")
	}

	// Origin advances: next poll swaps to resB's verdicts.
	origin.set(writeSnapFile(t, dir, "b.snap", w, w.resB))
	swapped, err = rep.Poll(context.Background())
	if err != nil || !swapped {
		t.Fatalf("advance poll: swapped=%v err=%v", swapped, err)
	}
	if got := s.Snapshot().res.Category(w.probe); got != w.catB {
		t.Fatalf("probe category after swap = %v, want %v (resB)", got, w.catB)
	}

	h := rep.Health()
	if h.Status != "healthy" || h.Swaps != 2 || h.PollErrors != 0 {
		t.Fatalf("health = %+v, want healthy with 2 swaps", h)
	}
}

// TestReplicaReadDuringSwap hammers /v1/community while polls swap
// mmap-backed snapshots underneath — the torn-read proof for the
// replica path, meaningful under -race. Every response must be
// internally consistent: the category must match the generation the
// response reports.
func TestReplicaReadDuringSwap(t *testing.T) {
	w := getWorld(t)
	dir := t.TempDir()
	pathA := writeSnapFile(t, dir, "a.snap", w, w.resA)
	pathB := writeSnapFile(t, dir, "b.snap", w, w.resB)
	origin := &snapOrigin{}
	origin.set(pathA)
	ts := httptest.NewServer(origin)
	defer ts.Close()

	s := newTestServer(t, emptyBuilder)
	rep := NewReplica(s, ReplicaConfig{URL: ts.URL, CacheDir: t.TempDir()})
	if _, err := rep.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Generation → expected category: polls alternate A and B, and the
	// first fetch (gen 2) is A.
	expect := func(gen uint64) bgpintent.Category {
		if gen%2 == 0 {
			return w.catA
		}
		return w.catB
	}

	const readers = 8
	const swaps = 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := "/v1/community/" + w.probe.String()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp communityResponse
				if code := do(t, s, "GET", url, "", &resp); code != 200 {
					errs <- fmt.Errorf("status %d", code)
					return
				}
				if want := expect(resp.Generation); resp.Category != want.String() {
					errs <- fmt.Errorf("gen %d served %q, want %q (torn read)",
						resp.Generation, resp.Category, want)
					return
				}
			}
		}()
	}
	for i := 0; i < swaps; i++ {
		if i%2 == 0 {
			origin.set(pathB)
		} else {
			origin.set(pathA)
		}
		if swapped, err := rep.Poll(context.Background()); err != nil || !swapped {
			close(stop)
			wg.Wait()
			t.Fatalf("swap %d: swapped=%v err=%v", i, swapped, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if gen := s.Snapshot().Gen; gen != uint64(2+swaps) {
		t.Fatalf("final generation = %d, want %d", gen, 2+swaps)
	}
}

// TestReplicaUpstreamDeath: when the origin dies the replica keeps
// serving its last good snapshot and /v1/health degrades to "stale"
// without ever failing a request.
func TestReplicaUpstreamDeath(t *testing.T) {
	w := getWorld(t)
	dir := t.TempDir()
	origin := &snapOrigin{}
	origin.set(writeSnapFile(t, dir, "a.snap", w, w.resA))
	ts := httptest.NewServer(origin)

	s := newTestServer(t, emptyBuilder)
	rep := NewReplica(s, ReplicaConfig{
		URL:        ts.URL,
		CacheDir:   t.TempDir(),
		StaleAfter: time.Nanosecond, // any gap counts as stale
	})
	if _, err := rep.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}

	ts.Close() // kill the upstream
	if _, err := rep.Poll(context.Background()); err == nil {
		t.Fatal("poll against a dead origin succeeded")
	}

	// Still serving the last good snapshot.
	var resp communityResponse
	if code := do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &resp); code != 200 {
		t.Fatalf("lookup after origin death: status %d", code)
	}
	if resp.Category != w.catA.String() {
		t.Fatalf("category after origin death = %q, want %q", resp.Category, w.catA)
	}

	h := rep.Health()
	if h.Status != "stale" || h.PollErrors == 0 || h.LastError == "" {
		t.Fatalf("health after origin death = %+v, want stale with an error", h)
	}

	// /v1/health reports the degradation and the replica provenance.
	var hr struct {
		Status   string `json:"status"`
		Mode     string `json:"mode"`
		Snapshot struct {
			Source     string `json:"source"`
			Mode       string `json:"mode"`
			PollErrors uint64 `json:"poll_errors"`
			LastError  string `json:"last_error"`
		} `json:"snapshot"`
	}
	if code := do(t, s, "GET", "/v1/health", "", &hr); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if hr.Status != "stale" || hr.Mode != "replica" || hr.Snapshot.Source != "replica-url" {
		t.Fatalf("health body = %+v", hr)
	}
	if hr.Snapshot.PollErrors == 0 || hr.Snapshot.LastError == "" {
		t.Fatalf("health body hides the poll failure: %+v", hr)
	}

	// A replica that never fetched anything is "degraded", not "stale".
	s2 := newTestServer(t, emptyBuilder)
	rep2 := NewReplica(s2, ReplicaConfig{URL: ts.URL, CacheDir: t.TempDir()})
	if _, err := rep2.Poll(context.Background()); err == nil {
		t.Fatal("poll against a dead origin succeeded")
	}
	if h := rep2.Health(); h.Status != "degraded" {
		t.Fatalf("never-fetched health = %+v, want degraded", h)
	}
}

// TestReplicaCorruptFetchKeepsServing: a snapshot whose body was
// damaged in transit passes the O(1) open (header and section table are
// intact) and would serve wrong verdicts; the replica must deep-verify
// the fetched bytes, count a poll error, and keep the old generation.
func TestReplicaCorruptFetchKeepsServing(t *testing.T) {
	w := getWorld(t)
	dir := t.TempDir()
	origin := &snapOrigin{}
	origin.set(writeSnapFile(t, dir, "a.snap", w, w.resA))
	ts := httptest.NewServer(origin)
	defer ts.Close()

	s := newTestServer(t, emptyBuilder)
	cache := t.TempDir()
	rep := NewReplica(s, ReplicaConfig{URL: ts.URL, CacheDir: cache})
	if swapped, err := rep.Poll(context.Background()); err != nil || !swapped {
		t.Fatalf("first poll: swapped=%v err=%v", swapped, err)
	}

	// Flip one byte inside the members section (kind 4) of resB's file.
	// Section table entries are 32 bytes from offset 32: u32 kind at +0,
	// u64 offset at +8.
	good, err := os.ReadFile(writeSnapFile(t, dir, "b.snap", w, w.resB))
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	flipped := false
	for i, n := 0, int(binary.LittleEndian.Uint32(bad[24:])); i < n; i++ {
		ent := bad[32+i*32:]
		if binary.LittleEndian.Uint32(ent) == 4 {
			bad[binary.LittleEndian.Uint64(ent[8:])+8] ^= 0x01 // first member's on-path count
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("no members section in snapshot")
	}
	badPath := filepath.Join(dir, "b-corrupt.snap")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, _, err := bgpintent.OpenSnapshotFile(badPath); err != nil {
		t.Fatalf("fixture must pass the O(1) open to prove anything: %v", err)
	} else {
		res.Close()
	}

	origin.set(badPath)
	if swapped, err := rep.Poll(context.Background()); err == nil || swapped {
		t.Fatalf("corrupt fetch: swapped=%v err=%v, want a poll error and no swap", swapped, err)
	}
	var resp communityResponse
	do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &resp)
	if resp.Generation != 2 || resp.Category != w.catA.String() {
		t.Fatalf("corrupt fetch disturbed serving: %+v", resp)
	}
	var hr struct {
		Snapshot struct {
			PollErrors uint64 `json:"poll_errors"`
			LastError  string `json:"last_error"`
		} `json:"snapshot"`
	}
	do(t, s, "GET", "/v1/health", "", &hr)
	if hr.Snapshot.PollErrors != 1 || !strings.Contains(hr.Snapshot.LastError, "checksum mismatch") {
		t.Fatalf("/v1/health hides the rejected fetch: %+v", hr)
	}
	// The rejected download is not left behind in the cache directory.
	if files, _ := os.ReadDir(cache); len(files) != 1 {
		t.Fatalf("cache dir holds %d files after a rejected fetch, want only the serving generation", len(files))
	}

	// Origin serves the intact body: the next poll swaps.
	origin.set(filepath.Join(dir, "b.snap"))
	if swapped, err := rep.Poll(context.Background()); err != nil || !swapped {
		t.Fatalf("recovery poll: swapped=%v err=%v", swapped, err)
	}
	if got := s.Snapshot().res.Category(w.probe); got != w.catB {
		t.Fatalf("probe category after recovery = %v, want %v (resB)", got, w.catB)
	}
}
