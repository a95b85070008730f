package core

import (
	"sync"
	"time"

	"bgpintent/internal/bgp"
	"bgpintent/internal/obs"
)

// outboxViews is how many prepared views a feeder gathers for one owner
// before handing them over.
const outboxViews = 1024

// preparedView is one view a Feeder readied for the owner of its shard:
// what addView reads, with the path key and the canonical set as spans of
// the outbox's word lists.
type preparedView struct {
	h     uint64
	vp    uint32
	shard uint32
	words span // path key, in outbox.words
	set   span // canonical set, in outbox.set
}

// span is an offset+length view into one of an outbox's word lists.
type span struct {
	off, n uint32
}

// outbox carries prepared views from a feeder to one owner, and goes
// back to the feeder's home list once applied.
type outbox struct {
	views []preparedView
	words []uint32
	set   []bgp.Community
	home  chan<- *outbox
}

// ShardLoad is one bulk load into a ShardedTupleStore in which every
// shard has a single writer. Each goroutine that delivers views holds a
// Feeder; the feeder does everything that depends only on the view —
// flattening, key collapse, canonicalization, hashing — and hands the
// prepared view to the owner of its shard. Owner w alone applies the
// views of shards [w·N/W, (w+1)·N/W), so no two goroutines write, or
// pull into their caches, the same shard. Owners still take the shard
// mutex, uncontended, once per run of views for one shard: the store's
// own AddViewASPathLarge stays safe beside a load, and every view is
// applied by the same addView.
//
// With one owner there are no owner goroutines: a feeder applies each
// view as it prepares it, the path of ShardedTupleStore.AddViewASPathLarge.
type ShardLoad struct {
	s     *ShardedTupleStore
	tr    *obs.Tracer
	owner []chan *outbox // owner w's inbox; none with one owner
	wg    sync.WaitGroup

	mu   sync.Mutex
	all  []*Feeder // every feeder made, for Close to flush
	idle []*Feeder // released feeders, for the next goroutine to take
}

// Load starts a load into s with the given number of shard owners
// (capped at the shard count; <= 1 means feeders apply their own views).
// tr, when active, receives the load's store-add time: the feeders'
// preparation and the owners' application, summed worker-seconds. s must
// not be stitched before Close.
func (s *ShardedTupleStore) Load(owners int, tr *obs.Tracer) *ShardLoad {
	l := &ShardLoad{s: s, tr: tr}
	owners = min(owners, len(s.shards))
	if owners <= 1 {
		return l
	}
	l.owner = make([]chan *outbox, owners)
	l.wg.Add(owners)
	for w := range l.owner {
		// Room for two outboxes from each of as many feeders as owners (a
		// load's scanning goroutines), so a feeder seldom waits on the
		// send; the feeders' home lists, not this buffer, bound the
		// read-ahead.
		l.owner[w] = make(chan *outbox, 2*owners)
		go l.own(l.owner[w])
	}
	return l
}

// Close flushes every feeder, none of which may be in use, and joins the
// owners; then every view fed is in the store, and its store-add time
// reported.
func (l *ShardLoad) Close() {
	for _, f := range l.all {
		f.flush()
	}
	for _, in := range l.owner {
		close(in)
	}
	l.wg.Wait()
}

// own is one owner's loop: apply each outbox handed over, then send it
// home.
func (l *ShardLoad) own(in <-chan *outbox) {
	defer l.wg.Done()
	sc := new(addScratch)
	for b := range in {
		var start time.Time
		if l.tr.Active() {
			start = time.Now()
		}
		l.s.apply(b, sc)
		if l.tr.Active() {
			// The views were counted where they were fed.
			l.tr.AddStageTime(obs.StageStoreAdd, time.Since(start), 0)
		}
		b.views, b.words, b.set = b.views[:0], b.words[:0], b.set[:0]
		b.home <- b
	}
}

// apply writes an outbox's views into their shards, holding each shard's
// lock across a run of views for it.
func (s *ShardedTupleStore) apply(b *outbox, sc *addScratch) {
	var sh *tupleShard
	for i := range b.views {
		v := &b.views[i]
		if next := &s.shards[v.shard]; next != sh {
			if sh != nil {
				sh.mu.Unlock()
			}
			sh = next
			sh.mu.Lock()
		}
		sc.words = b.words[v.words.off : v.words.off+v.words.n]
		sc.set = b.set[v.set.off : v.set.off+v.set.n]
		sh.ts.addView(v.vp, v.h, sc)
	}
	if sh != nil {
		sh.mu.Unlock()
	}
}

// Feeder is one goroutine's way into a ShardLoad, taken with
// ShardLoad.Feeder and given back with Release; it is not safe for
// concurrent use. Paths and community lists may be reused by the caller
// as soon as a call returns.
//
// A feeder owns two outboxes per owner: one it fills for each owner, and
// as many spares, which the owners send home once they have applied
// them. Handing a full outbox over, it waits for a spare if none is
// home, which bounds a load's read-ahead; it allocates no outbox after
// Feeder.
type Feeder struct {
	l    *ShardLoad
	sc   addScratch
	box  []*outbox    // the outbox being filled for each owner
	home chan *outbox // outboxes back from their owners

	// store-add time and views not yet reported to the tracer
	ns time.Duration
	n  int64
}

// Feeder returns a feeder for one goroutine: a released one, holding
// whatever views its last holder left in its outboxes, or a new one.
func (l *ShardLoad) Feeder() *Feeder {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.idle); n > 0 {
		f := l.idle[n-1]
		l.idle = l.idle[:n-1]
		return f
	}
	w := len(l.owner)
	f := &Feeder{l: l, box: make([]*outbox, w), home: make(chan *outbox, 2*w)}
	for i := 0; i < 2*w; i++ {
		b := &outbox{views: make([]preparedView, 0, outboxViews), home: f.home}
		if i < w {
			f.box[i] = b
		} else {
			f.home <- b
		}
	}
	l.all = append(l.all, f)
	return f
}

// Release gives the feeder back for another goroutine to take. The views
// it holds stay in its outboxes until they fill or Close flushes them.
func (f *Feeder) Release() {
	l := f.l
	l.mu.Lock()
	l.idle = append(l.idle, f)
	l.mu.Unlock()
}

// AddViewASPathLarge feeds one vantage-point observation; semantics
// match ShardedTupleStore.AddViewASPathLarge, larges on an empty path
// included. The path is flattened into the feeder's scratch.
func (f *Feeder) AddViewASPathLarge(vp uint32, path bgp.ASPath, comms bgp.Communities, larges bgp.LargeCommunities) {
	traced := f.l.tr.Active()
	var start time.Time
	if traced {
		start = time.Now()
	}
	f.sc.flat = path.AppendFlatten(f.sc.flat[:0])
	full := f.add(vp, f.sc.flat, comms, larges)
	if traced {
		// Tallied here, reported once per outboxViews views: the tracer's
		// aggregate takes a mutex.
		f.ns += time.Since(start)
		if f.n++; f.n == outboxViews {
			f.report()
		}
	}
	if full >= 0 {
		f.ship(full)
	}
}

// add prepares one view and appends it to its owner's outbox, returning
// that owner when the outbox is full and -1 otherwise. With one owner it
// applies the view itself.
func (f *Feeder) add(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities) int {
	s, sc := f.l.s, &f.sc
	switch {
	case len(path) == 0:
		s.NoteLarge(larges)
		return -1
	case len(f.box) == 0:
		s.add(vp, path, comms, larges, sc)
		return -1
	}
	sc.words = collapsePath(sc.words[:0], path)
	route, h := s.hash.prepare(sc, comms, larges)
	shard := uint32(route >> s.shift)
	w := int(shard) * len(f.box) >> (64 - s.shift) // shard·W / N
	b := f.box[w]
	b.views = append(b.views, preparedView{
		h: h, vp: vp, shard: shard,
		words: span{off: uint32(len(b.words)), n: uint32(len(sc.words))},
		set:   span{off: uint32(len(b.set)), n: uint32(len(sc.set))},
	})
	b.words = append(b.words, sc.words...)
	b.set = append(b.set, sc.set...)
	if len(b.views) == outboxViews {
		return w
	}
	return -1
}

func (f *Feeder) report() {
	if f.n != 0 {
		f.l.tr.AddStageTime(obs.StageStoreAdd, f.ns, f.n)
		f.ns, f.n = 0, 0
	}
}

// ship hands owner w's full outbox over and takes an empty one, waiting
// for one to come home if none has.
func (f *Feeder) ship(w int) {
	f.l.owner[w] <- f.box[w]
	f.box[w] = <-f.home
}

// flush hands every view the feeder holds to its owner and reports its
// store-add time; the feeder is spent.
func (f *Feeder) flush() {
	for w, b := range f.box {
		if len(b.views) > 0 {
			f.l.owner[w] <- b
		}
		f.box[w] = nil
	}
	f.report()
}
