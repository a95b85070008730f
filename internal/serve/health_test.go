package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpintent"
)

// fakeFeed is a scriptable HealthSource.
type fakeFeed struct{ fh bgpintent.LiveHealth }

func (f *fakeFeed) Health() bgpintent.LiveHealth { return f.fh }

func TestHealthBatchMode(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))

	var resp healthResponse
	if code := do(t, s, "GET", "/v1/health", "", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Status != "healthy" || resp.Mode != "batch" || resp.Generation != 1 {
		t.Fatalf("batch health = %+v", resp)
	}
	if resp.Feed != nil {
		t.Fatalf("batch mode reported feed details: %+v", resp.Feed)
	}
}

func TestHealthLiveMode(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))
	feed := &fakeFeed{fh: bgpintent.LiveHealth{
		Status: "stale", State: "connecting", LastSeq: 42,
		LastUpdate: time.Now().Add(-time.Minute), Staleness: time.Minute,
		Updates: 42, Reconnects: 3, Snapshots: 2,
	}}
	s.SetFeed(feed)

	var resp healthResponse
	if code := do(t, s, "GET", "/v1/health", "", &resp); code != 200 {
		t.Fatalf("status %d: degraded health must still answer 200", code)
	}
	if resp.Status != "stale" || resp.Mode != "live" || resp.Feed == nil {
		t.Fatalf("live health = %+v", resp)
	}
	if resp.Feed.LastSeq != 42 || resp.Feed.Reconnects != 3 || resp.Feed.StalenessSeconds < 59 {
		t.Fatalf("feed details = %+v", resp.Feed)
	}

	// The transition back to healthy is visible immediately.
	feed.fh.Status, feed.fh.State = "healthy", "live"
	do(t, s, "GET", "/v1/health", "", &resp)
	if resp.Status != "healthy" || resp.Feed.State != "live" {
		t.Fatalf("recovered health = %+v", resp)
	}

	// The feed gauges reached /metrics.
	reqRec := doRaw(t, s, "GET", "/metrics")
	for _, metric := range []string{"intentd_feed_healthy 1", "intentd_feed_connected 1", "intentd_feed_last_seq 42"} {
		if !strings.Contains(reqRec, metric) {
			t.Fatalf("/metrics missing %q:\n%s", metric, reqRec)
		}
	}
}

func TestInstallSwapsSnapshot(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))

	var before communityResponse
	do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &before)
	if before.Category != w.catA.String() {
		t.Fatalf("before install: %+v", before)
	}

	snap := s.Install(w.resB, w.corpus.SnapshotInfo("live"), "live-feed", time.Millisecond)
	if snap.Gen != 2 {
		t.Fatalf("installed generation %d, want 2", snap.Gen)
	}

	var after communityResponse
	do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &after)
	if after.Category != w.catB.String() || after.Generation != 2 {
		t.Fatalf("after install: %+v, want %s gen 2", after, w.catB)
	}
}

func TestDisableReload(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))
	s.DisableReload("live mode: snapshots come from the feed")

	var errResp errorResponse
	if code := do(t, s, "POST", "/v1/admin/reload", "", &errResp); code != 409 {
		t.Fatalf("reload while disabled: status %d, want 409", code)
	}
	if !strings.Contains(errResp.Error, "live mode") {
		t.Fatalf("error body %q lacks the disable reason", errResp.Error)
	}
	// The served snapshot is untouched.
	var resp communityResponse
	do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &resp)
	if resp.Generation != 1 || resp.Category != w.catA.String() {
		t.Fatalf("snapshot disturbed by rejected reload: %+v", resp)
	}
}

// TestReloadCorruptSnapshotKeepsServing is the regression test for the
// robustness bug class: a reload pointed at a truncated, damaged or
// retired-format snapshot file must fail with a structured error and
// keep serving the old generation — through the streamed reader and
// through OpenSnapshotFile, the way `intentd -snapshot` really opens.
func TestReloadCorruptSnapshotKeepsServing(t *testing.T) {
	w := getWorld(t)
	var buf bytes.Buffer
	if err := w.resA.WriteSnapshotFlat(&buf, w.corpus.SnapshotInfo("file-test")); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	flip := func(at int) []byte {
		bad := bytes.Clone(good)
		bad[at] ^= 0xFF
		return bad
	}
	v1 := append([]byte("BGPINTSNP\x01"), good[10:]...)

	type corruption struct {
		name    string
		data    []byte
		wantErr string // substring of the structured error
	}
	run := func(t *testing.T, open func(path string) (*bgpintent.Result, bgpintent.SnapshotInfo, error), cases []corruption) {
		path := filepath.Join(t.TempDir(), "snap.bin")
		// Replace by rename, as intentinfer does: the serving generation
		// may be a mapping of the old inode, which must stay whole.
		put := func(data []byte) {
			t.Helper()
			if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(path+".tmp", path); err != nil {
				t.Fatal(err)
			}
		}
		put(good)
		s := newTestServer(t, func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
			res, info, err := open(path)
			return res, info, path, err
		})
		var healthy communityResponse
		do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &healthy)
		if healthy.Generation != 1 {
			t.Fatalf("initial load: %+v", healthy)
		}
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				put(c.data)
				var errResp errorResponse
				if code := do(t, s, "POST", "/v1/admin/reload", "", &errResp); code != 500 {
					t.Fatalf("reload of %s file: status %d, want 500", c.name, code)
				}
				if errResp.Error == "" || !strings.Contains(errResp.Error, c.wantErr) {
					t.Fatalf("reload failure body %q, want a structured error containing %q", errResp.Error, c.wantErr)
				}
				// Old generation still serves, fully intact.
				var resp communityResponse
				do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &resp)
				if resp.Generation != 1 || resp.Category != w.catA.String() {
					t.Fatalf("corrupt reload disturbed serving: %+v", resp)
				}
			})
		}
		// Restoring the file makes reload work again — no sticky failure.
		put(good)
		var ok reloadResponse
		if code := do(t, s, "POST", "/v1/admin/reload", "", &ok); code != 200 || ok.Generation != 2 {
			t.Fatalf("recovery reload: code %d resp %+v", code, ok)
		}
	}

	// Streamed: ReadSnapshot deep-verifies, so a payload bit-flip fails.
	run(t, func(path string) (*bgpintent.Result, bgpintent.SnapshotInfo, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, bgpintent.SnapshotInfo{}, err
		}
		defer f.Close()
		return bgpintent.ReadSnapshot(f)
	}, []corruption{
		{"truncated", good[:len(good)/2], "short body"},
		{"bit-flipped", flip(len(good) - 9), "checksum mismatch"}, // inside the last section's payload
		{"empty", nil, "short header"},
		{"version-1", v1, "unsupported format version 1 "},
	})
	// Mapped: the O(1) open checks header, size and section table.
	t.Run("mmap", func(t *testing.T) {
		run(t, bgpintent.OpenSnapshotFile, []corruption{
			{"truncated", good[:len(good)/2], "truncated"},
			{"empty", nil, "short header"},
			{"table-flip", flip(32 + 8), "section table checksum mismatch"}, // first entry's offset field
			{"version-1", v1, "unsupported format version 1 "},
		})
	})
}

func TestServeConfigTimeouts(t *testing.T) {
	cases := []struct {
		in, def, want time.Duration
	}{
		{0, DefaultReadHeaderTimeout, DefaultReadHeaderTimeout}, // zero: default
		{-1, DefaultReadTimeout, 0},                             // negative: disabled
		{5 * time.Second, DefaultIdleTimeout, 5 * time.Second},  // explicit wins
	}
	for _, c := range cases {
		if got := timeoutOrDefault(c.in, c.def); got != c.want {
			t.Fatalf("timeoutOrDefault(%v, %v) = %v, want %v", c.in, c.def, got, c.want)
		}
	}
}

// doRaw performs an in-process request and returns the raw body.
func doRaw(t *testing.T, s *Server, method, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec.Body.String()
}
