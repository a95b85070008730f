package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"bgpintent/internal/bgp"
)

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

// sendRendered answers with the body render appends to a pooled
// scratch: the one reply path of every JSON endpoint but POST
// /v1/annotate, which renders out of its own scratch. The body is
// complete before the status goes out, so a value that cannot be
// encoded is answered with a 500, not an empty 200.
func sendRendered(w http.ResponseWriter, status int, render func(b []byte) ([]byte, error)) {
	sc := getScratch()
	defer sc.release()
	var err error
	if sc.out, err = render(sc.out[:0]); err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	sendJSON(w, status, sc.out)
}
