package ingest

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"bgpintent/internal/mrt"
)

// writeRIBFiles writes n RIB files of varying record counts and returns
// the input list.
func writeRIBFiles(t *testing.T, dir string, n int) []InputFile {
	t.Helper()
	files := make([]InputFile, n)
	for i := 0; i < n; i++ {
		wire := buildRIBStream(t, 50+i*37)
		path := filepath.Join(dir, "rib"+string(rune('0'+i))+".mrt")
		if err := os.WriteFile(path, wire, 0o644); err != nil {
			t.Fatal(err)
		}
		files[i] = InputFile{Path: path}
	}
	return files
}

// TestScanParallelMatchesSequential: view counts and assembled Stats are
// identical for every worker count, including per-file order.
func TestScanParallelMatchesSequential(t *testing.T) {
	files := writeRIBFiles(t, t.TempDir(), 6)

	run := func(workers int) (int64, *Stats, error) {
		var views atomic.Int64
		st := &Stats{}
		err := ScanParallelContext(context.Background(), files, Options{}, workers, st,
			func(*mrt.RIBView) error { views.Add(1); return nil }, nil)
		return views.Load(), st, err
	}

	refViews, refStats, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if refViews == 0 {
		t.Fatal("no views scanned")
	}
	for _, workers := range []int{2, 8} {
		views, st, err := run(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if views != refViews {
			t.Errorf("workers=%d: %d views, want %d", workers, views, refViews)
		}
		if !reflect.DeepEqual(st, refStats) {
			t.Errorf("workers=%d: stats differ:\n  %+v\n  %+v", workers, st, refStats)
		}
	}
}

// TestScanParallelError: a corrupt file fails a strict parallel load,
// and files queued behind the failure are skipped.
func TestScanParallelError(t *testing.T) {
	dir := t.TempDir()
	files := writeRIBFiles(t, dir, 4)
	if err := os.WriteFile(files[1].Path, []byte("this is not MRT data at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	err := ScanParallelContext(context.Background(), files, Options{Strict: true}, 4, st,
		func(*mrt.RIBView) error { return nil }, nil)
	if err == nil {
		t.Fatal("corrupt file accepted")
	}
	// Stats stop at the failing file in input order.
	if len(st.Files) > 2 {
		t.Errorf("stats cover %d files, want <= 2 (through the failure)", len(st.Files))
	}
}

// TestScanParallelUpdatesRouting: updates files reach the updates
// callback, RIBs the RIB callback, under concurrency.
func TestScanParallelUpdatesRouting(t *testing.T) {
	dir := t.TempDir()
	files := writeRIBFiles(t, dir, 2)
	var ribs atomic.Int64
	err := ScanParallelContext(context.Background(), files, Options{}, 2, nil,
		func(*mrt.RIBView) error { ribs.Add(1); return nil },
		func(*mrt.UpdateView) error { t.Error("updates callback hit for RIB file"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if ribs.Load() == 0 {
		t.Fatal("no RIB views")
	}
}

// TestScanSinkPerGoroutine: Scan hands every goroutine that delivers
// views a sink of its own — never called by two goroutines at once — and
// runs each sink's Done exactly once before it returns, under the file
// pool (workers <= files) and the frame/decode split (workers > files).
// Together the sinks see every view a sequential scan sees.
func TestScanSinkPerGoroutine(t *testing.T) {
	files := writeRIBFiles(t, t.TempDir(), 4)
	var want int64
	if err := ScanParallelContext(context.Background(), files, Options{}, 1, nil,
		func(*mrt.RIBView) error { want++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		var made, done, views atomic.Int64
		newSink := func() Sink {
			made.Add(1)
			var busy, finished atomic.Bool
			return Sink{
				RIB: func(*mrt.RIBView) error {
					if !busy.CompareAndSwap(false, true) || finished.Load() {
						t.Errorf("workers=%d: a sink called concurrently or after Done", workers)
					}
					views.Add(1)
					busy.Store(false)
					return nil
				},
				Done: func() {
					if finished.Swap(true) {
						t.Errorf("workers=%d: a sink's Done ran twice", workers)
					}
					done.Add(1)
				},
			}
		}
		if err := Scan(context.Background(), files, Options{}, workers, nil, newSink); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if views.Load() != want {
			t.Errorf("workers=%d: sinks saw %d views, want %d", workers, views.Load(), want)
		}
		if made.Load() == 0 || done.Load() != made.Load() {
			t.Errorf("workers=%d: %d sinks made, %d Done calls", workers, made.Load(), done.Load())
		}
	}
}
