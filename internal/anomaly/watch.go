package anomaly

import (
	"context"
	"sync/atomic"

	"bgpintent/internal/core"
	"bgpintent/internal/stream"
)

// DefaultWatcherBuffer is the Offer channel depth when StartWatcher is
// given 0.
const DefaultWatcherBuffer = 4096

// Watcher runs an Engine on its own goroutine behind a buffered
// channel, so the stream Ingestor's OnUpdate tap can hand updates off
// without ever blocking ingestion. When the buffer is full the update
// is dropped and counted — detection degrades visibly (the dropped
// counter is in Health) instead of stalling the feed.
type Watcher struct {
	eng     *Engine
	ch      chan stream.Update
	dropped atomic.Uint64
	done    chan struct{}
}

// StartWatcher wraps eng and starts its processing goroutine. The
// goroutine drains remaining buffered updates and exits when ctx is
// canceled; Done observes termination.
func StartWatcher(ctx context.Context, eng *Engine, buffer int) *Watcher {
	if buffer <= 0 {
		buffer = DefaultWatcherBuffer
	}
	w := &Watcher{
		eng:  eng,
		ch:   make(chan stream.Update, buffer),
		done: make(chan struct{}),
	}
	go w.run(ctx)
	return w
}

func (w *Watcher) run(ctx context.Context) {
	defer close(w.done)
	for {
		select {
		case u := <-w.ch:
			w.eng.Process(u)
		case <-ctx.Done():
			// Drain what is already buffered, then stop.
			for {
				select {
				case u := <-w.ch:
					w.eng.Process(u)
				default:
					return
				}
			}
		}
	}
}

// Offer hands one update to the engine without blocking: safe to call
// from the ingest goroutine's OnUpdate tap. Full buffer drops the
// update and counts it.
func (w *Watcher) Offer(u stream.Update) {
	select {
	case w.ch <- u:
	default:
		w.dropped.Add(1)
	}
}

// SetSemantics forwards a fresh classification to the engine.
func (w *Watcher) SetSemantics(src core.InferenceSource) { w.eng.SetSemantics(src) }

// Query answers a windowed finding query.
func (w *Watcher) Query(q Query) Report { return w.eng.Query(q) }

// Health reports the engine's provenance plus the watcher's dropped
// count.
func (w *Watcher) Health() WatchHealth {
	return WatchHealth{HealthInfo: w.eng.Health(), Dropped: w.dropped.Load()}
}

// Done closes when the processing goroutine has exited.
func (w *Watcher) Done() <-chan struct{} { return w.done }

// WatchHealth is HealthInfo plus the hand-off drop counter.
type WatchHealth struct {
	HealthInfo
	// Dropped counts updates discarded because the hand-off buffer was
	// full (detection fell behind ingestion).
	Dropped uint64
}
