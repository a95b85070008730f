package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"bgpintent"
)

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{}); err == nil {
		t.Error("no data source accepted")
	}
	if _, err := parseFlags([]string{"-snapshot", "x", "-rib", "y"}); err == nil {
		t.Error("conflicting sources accepted")
	}
	cfg, err := parseFlags([]string{"-snapshot", "x", "-addr", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.snapshot != "x" || cfg.addr != ":0" {
		t.Fatalf("cfg = %+v", cfg)
	}

	if _, err := parseFlags([]string{"-live", "-snapshot", "x"}); err == nil {
		t.Error("-live with -snapshot accepted")
	}
	if _, err := parseFlags([]string{"-live", "-fault-rate", "1.5"}); err == nil {
		t.Error("fault rate > 1 accepted")
	}
	if _, err := parseFlags([]string{"-snapshot", "x", "-fault-rate", "0.1"}); err == nil {
		t.Error("-fault-rate without -live accepted")
	}
	cfg, err = parseFlags([]string{"-live", "-live-small", "-fault-rate", "0.1", "-window", "48h"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.live || !cfg.liveSmall || cfg.faultRate != 0.1 || cfg.windowSpan != 48*time.Hour {
		t.Fatalf("live cfg = %+v", cfg)
	}
}

// startDaemon launches run() with the given flags and returns the base
// URL once the daemon is listening, plus the cancel and exit channel
// (run's error, then closed). A test that fails before stopping its
// daemon still has it stopped and joined at cleanup.
func startDaemon(t *testing.T, args ...string) (base string, cancel context.CancelFunc, done chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	done = make(chan error, 1)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		done <- err
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("intentd exited before listening: %v", <-done)
			}
			if rest, found := strings.CutPrefix(line, "listening on "); found {
				go func() { // keep draining so the writer never blocks
					for range lines {
					}
				}()
				return "http://" + rest, cancel, done
			}
		case <-deadline:
			t.Fatal("timed out waiting for listen line")
		}
	}
}

// stopDaemon cancels the daemon's context (what SIGTERM triggers) and
// waits for run to return cleanly.
func stopDaemon(t *testing.T, cancel context.CancelFunc, done chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("intentd did not shut down within the drain timeout")
	}
}

// writeTestSnapshot classifies the small synthetic corpus and writes a
// snapshot file, returning its path and the expected counts.
func writeTestSnapshot(t *testing.T) (path string, action, info int) {
	t.Helper()
	c, err := bgpintent.NewSyntheticCorpus(bgpintent.CorpusOptions{Small: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.ClassifyContext(context.Background(), bgpintent.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "test.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteSnapshotFlat(f, c.SnapshotInfo("test")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	action, info = res.Counts()
	return path, action, info
}

func TestServeFromSnapshot(t *testing.T) {
	snapPath, wantAction, wantInfo := writeTestSnapshot(t)
	base, cancel, done := startDaemon(t,
		"-snapshot", snapPath, "-addr", "127.0.0.1:0", "-drain-timeout", "5s")

	var stats struct {
		Generation  uint64 `json:"generation"`
		Source      string `json:"source"`
		Action      int    `json:"action"`
		Information int    `json:"information"`
	}
	getJSON(t, base+"/v1/stats", &stats)
	if stats.Action != wantAction || stats.Information != wantInfo {
		t.Fatalf("stats = %+v, want action=%d information=%d", stats, wantAction, wantInfo)
	}
	if stats.Generation != 1 || !strings.HasPrefix(stats.Source, "snapshot:") {
		t.Fatalf("stats provenance %+v", stats)
	}

	// Reload from the same file: generation advances, counts identical.
	resp, err := http.Post(base+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	getJSON(t, base+"/v1/stats", &stats)
	if stats.Generation != 2 || stats.Action != wantAction {
		t.Fatalf("post-reload stats %+v", stats)
	}

	stopDaemon(t, cancel, done)
}

func TestRunBadSnapshot(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-snapshot", bad, "-addr", "127.0.0.1:0"}, io.Discard)
	if err == nil {
		t.Fatal("bad snapshot accepted")
	}
}

// healthBody mirrors the GET /v1/health response.
type healthBody struct {
	Status     string `json:"status"`
	Mode       string `json:"mode"`
	Generation uint64 `json:"generation"`
	Snapshot   *struct {
		Source string `json:"source"`
		Mode   string `json:"mode"`
	} `json:"snapshot"`
	Feed *struct {
		State      string `json:"state"`
		LastSeq    uint64 `json:"last_seq"`
		Updates    uint64 `json:"updates"`
		Reconnects uint64 `json:"reconnects"`
		Snapshots  uint64 `json:"snapshots"`
	} `json:"feed"`
}

// TestServeLiveMode runs the daemon against the faulty simulated feed
// end-to-end: it must come up instantly on the placeholder snapshot,
// install real snapshots from the feed, report live health, reject
// manual reloads with 409, and shut down cleanly.
func TestServeLiveMode(t *testing.T) {
	base, cancel, done := startDaemon(t,
		"-live", "-live-small", "-live-seed", "7", "-live-interval", "0",
		"-fault-rate", "0.05", "-fault-seed", "42", "-fault-stall", "50ms",
		"-feed-read-timeout", "25ms", "-retry-budget", "-1",
		"-snapshot-every", "2000", "-snapshot-interval", "-1ms",
		"-addr", "127.0.0.1:0", "-drain-timeout", "5s")

	// The feed installs snapshots past the gen-1 placeholder.
	var h healthBody
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, base+"/v1/health", &h)
		if h.Generation >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no feed snapshot installed; health %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h.Mode != "live" || h.Feed == nil {
		t.Fatalf("health = %+v, want live mode with feed details", h)
	}
	if h.Feed.LastSeq == 0 || h.Feed.Snapshots == 0 {
		t.Fatalf("feed made no progress: %+v", h.Feed)
	}

	// The installed snapshot is a real classification, not the placeholder.
	var stats struct {
		Source string `json:"source"`
		Action int    `json:"action"`
	}
	getJSON(t, base+"/v1/stats", &stats)
	if !strings.HasPrefix(stats.Source, "live:seq=") || stats.Action == 0 {
		t.Fatalf("stats = %+v, want live-installed classification", stats)
	}

	// Manual reload is the feed's job: structured 409.
	resp, err := http.Post(base+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload in live mode: status %d, want 409", resp.StatusCode)
	}

	stopDaemon(t, cancel, done)
}

// TestServeReplicaMode drives the binary's replica wiring (-replica,
// -snapshot-url, -poll-interval, -snapshot-cache) end to end, both
// daemons in-process: an origin serving a snapshot file zero-copy, a
// replica that polls it and converges on the same counts, and the
// replica degrading — not dying — once the origin is gone.
func TestServeReplicaMode(t *testing.T) {
	snapPath, wantAction, wantInfo := writeTestSnapshot(t)
	origin, stopOrigin, originDone := startDaemon(t,
		"-snapshot", snapPath, "-addr", "127.0.0.1:0", "-drain-timeout", "5s")
	var h healthBody
	getJSON(t, origin+"/v1/health", &h)
	if h.Snapshot == nil || h.Snapshot.Mode != "mmap" {
		t.Fatalf("origin health = %+v, want an mmap-served snapshot", h)
	}
	if m := getText(t, origin+"/metrics"); !strings.Contains(m, "\nintentd_snapshot_mmap 1\n") {
		t.Fatal("origin /metrics does not report intentd_snapshot_mmap 1")
	}

	replica, stopReplica, replicaDone := startDaemon(t,
		"-replica", "-snapshot-url", origin+"/v1/snapshot", "-poll-interval", "50ms",
		"-snapshot-cache", filepath.Join(t.TempDir(), "cache"),
		"-addr", "127.0.0.1:0", "-drain-timeout", "5s")

	// The synchronous first poll installs the origin's snapshot before
	// the replica starts listening.
	getJSON(t, replica+"/v1/health", &h)
	if h.Status != "healthy" || h.Mode != "replica" || h.Snapshot == nil || h.Snapshot.Source != "replica-url" {
		t.Fatalf("replica health = %+v (snapshot %+v), want healthy replica fed from replica-url", h, h.Snapshot)
	}
	var stats struct {
		Action      int `json:"action"`
		Information int `json:"information"`
	}
	getJSON(t, replica+"/v1/stats", &stats)
	if stats.Action != wantAction || stats.Information != wantInfo {
		t.Fatalf("replica stats = %+v, want the origin's action=%d information=%d", stats, wantAction, wantInfo)
	}

	stopDaemon(t, stopOrigin, originDone)
	pollErrors := regexp.MustCompile(`(?m)^intentd_replica_poll_errors_total [1-9]`)
	deadline := time.Now().Add(10 * time.Second)
	for !pollErrors.MatchString(getText(t, replica+"/metrics")) {
		if time.Now().After(deadline) {
			t.Fatal("replica counted no poll error after the origin went away")
		}
		time.Sleep(20 * time.Millisecond)
	}
	getJSON(t, replica+"/v1/stats", &stats)
	if stats.Action != wantAction || stats.Information != wantInfo {
		t.Fatalf("replica stats after origin death = %+v, want the last good snapshot's counts", stats)
	}
	getJSON(t, replica+"/v1/health", &h)
	if h.Status != "stale" && h.Status != "healthy" {
		t.Fatalf("replica status after origin death = %q, want stale or healthy", h.Status)
	}
	stopDaemon(t, stopReplica, replicaDone)
}

// getText returns the body of a 200 reply.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d, read error %v", url, resp.StatusCode, err)
	}
	return string(body)
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	if err := json.Unmarshal([]byte(getText(t, url)), out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
