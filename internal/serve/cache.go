package serve

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"

	"bgpintent/internal/bgp"
)

// responseCache memoizes pre-encoded JSON response bodies per snapshot
// generation. Hot lookups (the same community queried over and over)
// skip both the snapshot query and the JSON re-encode and reply with a
// single buffer write. Entries are keyed by request path and stamped
// with the generation they were rendered from; a snapshot swap makes
// every cached body stale at once, and each shard drops its old
// entries lazily the first time it is touched at the new generation —
// no swap-time stop-the-world sweep.
type responseCache struct {
	seed   maphash.Seed
	shards [cacheShards]cacheShard
}

const (
	cacheShards = 16
	// cacheShardCap bounds entries per shard (~4k bodies total) so a
	// key-scanning client cannot grow the cache without limit.
	cacheShardCap = 256
)

type cacheShard struct {
	mu      sync.RWMutex
	gen     uint64
	entries map[string][]byte
}

func newResponseCache() *responseCache {
	return &responseCache{seed: maphash.MakeSeed()}
}

func (c *responseCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&(cacheShards-1)]
}

// get returns the cached body for key if it was rendered at gen. The
// hit path is a shared-lock map probe — no allocation.
func (c *responseCache) get(gen uint64, key string) ([]byte, bool) {
	sh := c.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.gen != gen {
		return nil, false
	}
	body, ok := sh.entries[key]
	return body, ok
}

// put stores a body rendered at gen, clearing the shard first if it
// still holds a previous generation. The caller must hand over an
// unshared slice.
func (c *responseCache) put(gen uint64, key string, body []byte) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.gen != gen || sh.entries == nil {
		sh.gen = gen
		sh.entries = make(map[string][]byte, 32)
	}
	if len(sh.entries) >= cacheShardCap {
		if _, exists := sh.entries[key]; !exists {
			// Evict one arbitrary entry (map iteration order); hot keys
			// repopulate on their next request, cold ones stay gone.
			for k := range sh.entries {
				delete(sh.entries, k)
				break
			}
		}
	}
	sh.entries[key] = body
}

// len counts live entries across shards (metrics only).
func (c *responseCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// scratch is the per-request working set of the JSON endpoints: the
// rendered body and, for POST /v1/annotate, the slabs its response is
// assembled in. It cycles through scratchPool, so sustained load
// allocates none of it per request; nothing in it may be referenced
// once release has been called.
type scratch struct {
	out []byte // rendered response body

	tuples   []annotateTupleResponse
	anns     []Annotation  // every Annotations slice of a response is a window of this
	clusters []ClusterJSON // anns[i].Cluster, when set, is &clusters[i]
	comms    bgp.Communities
	lcomms   bgp.LargeCommunities
}

const (
	// maxPooledBytes and maxPooledItems bound what a scratch may keep
	// when it goes back to the pool (64 KiB of body, and about as much
	// of slabs): one huge request must not pin its working set for the
	// life of the process.
	maxPooledBytes = 64 << 10
	maxPooledItems = 512
)

var scratchPool = sync.Pool{
	New: func() any { return new(scratch) },
}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release hands the scratch back for reuse, or to the garbage
// collector when a request grew it past the retention bounds.
func (sc *scratch) release() {
	if cap(sc.out) > maxPooledBytes ||
		cap(sc.tuples)+cap(sc.anns)+cap(sc.comms)+cap(sc.lcomms) > maxPooledItems {
		return
	}
	// The slabs hold pointers (echoed path strings, large-cluster fn);
	// clear them so an idle pooled scratch keeps no request alive.
	clear(sc.tuples)
	clear(sc.anns)
	clear(sc.clusters)
	sc.tuples, sc.anns, sc.clusters = sc.tuples[:0], sc.anns[:0], sc.clusters[:0]
	scratchPool.Put(sc)
}

// encodeJSONBody appends v rendered by encoding/json (two-space
// indent, trailing newline) to b: the encoder of every body the
// verdict response writer (encode.go) does not render.
func encodeJSONBody(b []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return b, err
	}
	return buf.Bytes(), nil
}

// sendJSON writes a complete, already rendered body. The explicit
// Content-Length keeps net/http from chunking replies larger than its
// 2 KiB sniff buffer.
func sendJSON(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // the connection is gone; nothing to do
}

// serveCached answers a GET endpoint from the response cache when the
// body for this path was already rendered at the current generation,
// and renders-and-caches it otherwise. render must append the full
// response body for a cache miss.
func (s *Server) serveCached(w http.ResponseWriter, snap *Snapshot, key string, render func(b []byte) ([]byte, error)) {
	s.serveCachedIn(w, s.cache, snap.Gen, key, render)
}

// serveCachedIn is serveCached generalized over the cache instance and
// the invalidation stamp: snapshot-derived bodies stamp with the
// snapshot generation, anomaly bodies with (generation, engine stamp).
func (s *Server) serveCachedIn(w http.ResponseWriter, cache *responseCache, stamp uint64, key string, render func(b []byte) ([]byte, error)) {
	if body, ok := cache.get(stamp, key); ok {
		s.metrics.cacheHits.Add(1)
		// Not sendJSON: the hit path spends no allocation on a length
		// net/http works out itself for any body under 2 KiB.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body) //nolint:errcheck // the connection is gone; nothing to do
		return
	}
	s.metrics.cacheMisses.Add(1)
	sc := getScratch()
	defer sc.release()
	var err error
	if sc.out, err = render(sc.out[:0]); err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	body := bytes.Clone(sc.out) // the cache keeps an unshared copy
	cache.put(stamp, key, body)
	sendJSON(w, http.StatusOK, body)
}
