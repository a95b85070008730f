package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"bgpintent"
)

// oracleJSON is the body encoding/json writes for v with the two-space
// indent every intentd response has always had: the contract the
// verdict response writer is held to, byte for byte.
func oracleJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// identityRatios covers both of encoding/json's float formats, their
// cutoffs, and the exponent clean-up.
var identityRatios = []float64{
	0, 160, 1e-7, 1e21, 1.0 / 3, 1e-6, 9.99e-7, 1e20, 159.99999999999997,
	123456789.125, 5e-324, math.MaxFloat64, 1e-10, 2.5e+100, 0.5,
}

// identityPaths are echoed path strings. Tab, NBSP and U+2028 are
// whitespace to strings.Fields and so reach the response through
// ParseASPath; the rest pin the escaper down regardless.
var identityPaths = []string{
	"", "701 2914 3356", "701\t2914", "<1&2>", "1\u00a02", "1\u20282\u20293",
	`"quoted\back"`, "\x00\x01\x1f\x7f", "\b\f\n\r\t", "bad\xffutf8\xc0", "{1,2} 3", "日本語 701",
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func genCluster(rng *rand.Rand, large bool) *ClusterJSON {
	c := &ClusterJSON{
		ASN: rng.Uint32(), Lo: rng.Uint32(), Hi: rng.Uint32(),
		Category: pick(rng, []string{"action", "information", "unknown"}),
		Size:     rng.Intn(1 << 20), OnPath: rng.Intn(1 << 30), OffPath: rng.Intn(1 << 30),
		PureOnPath: rng.Intn(2) == 0, PureOffPath: rng.Intn(2) == 0,
		Ratio: pick(rng, identityRatios),
	}
	if rng.Intn(4) == 0 {
		c.Ratio = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	if large {
		fn := rng.Uint32() >> uint(rng.Intn(32))
		c.Fn = &fn
	}
	return c
}

// genAnnotation draws one of the verdict shapes the handlers produce:
// clustered classic, clustered large (fn), excluded, unobserved.
func genAnnotation(rng *rand.Rand, tuple, havePath bool) Annotation {
	a := Annotation{
		Community: bgpintent.ClassicKey(uint16(rng.Uint32()), uint16(rng.Uint32())),
		Observed:  true,
		Category:  pick(rng, []string{"action", "information"}),
		OnPath:    rng.Intn(1 << 24), OffPath: rng.Intn(1 << 24),
	}
	large := rng.Intn(3) == 0
	if large {
		a.Community = bgpintent.LargeKey(rng.Uint32(), rng.Uint32()>>uint(rng.Intn(32)), rng.Uint32())
	}
	a.Kind = a.Community.Kind().String()
	switch rng.Intn(4) {
	case 0:
		a.Observed, a.Category, a.Reason, a.OnPath, a.OffPath = false, "unknown", "unobserved", 0, 0
	case 1:
		a.Category, a.Reason = "unknown", pick(rng, []string{"private-asn", "never-on-path"})
	default:
		a.Cluster = genCluster(rng, large)
	}
	if tuple && havePath {
		a.OnThisPath = &onThisPath[rng.Intn(2)]
	}
	return a
}

// genAnnotations also returns the nil and the empty slice, which
// encoding/json tells apart ("null" / "[]") wherever omitempty does not
// drop both.
func genAnnotations(rng *rand.Rand, tuple, havePath bool) []Annotation {
	switch n := rng.Intn(6); n {
	case 0:
		return nil
	case 1:
		return []Annotation{}
	default:
		as := make([]Annotation, n-1)
		for i := range as {
			as[i] = genAnnotation(rng, tuple, havePath)
		}
		return as
	}
}

// TestVerdictWriterMatchesEncodingJSON is the identity contract of
// encode.go: over generated responses of all three shapes, the writer
// and encoding/json produce the same bytes.
func TestVerdictWriterMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(what string, v any, got []byte, err error) {
		t.Helper()
		want, oerr := oracleJSON(v)
		if err != nil || oerr != nil {
			t.Fatalf("%s: writer error %v, oracle error %v for %+v", what, err, oerr, v)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from encoding/json\n got: %q\nwant: %q", what, got, want)
		}
	}
	for i := 0; i < 3000; i++ {
		ar := annotateResponse{Generation: rng.Uint64() >> uint(rng.Intn(64))}
		if rng.Intn(3) > 0 {
			ar.Annotations = genAnnotations(rng, false, false)
		}
		switch n := rng.Intn(5); n {
		case 0:
		case 1:
			ar.Tuples = []annotateTupleResponse{}
		default:
			for j := 1; j < n; j++ {
				path := pick(rng, identityPaths)
				ar.Tuples = append(ar.Tuples, annotateTupleResponse{
					Path: path, Annotations: genAnnotations(rng, true, path != ""),
				})
			}
		}
		got, err := appendAnnotateResponse(nil, &ar)
		check("annotateResponse", ar, got, err)

		cr := communityResponse{Annotation: genAnnotation(rng, false, false), Generation: rng.Uint64()}
		got, err = appendCommunityResponse(nil, &cr)
		check("communityResponse", cr, got, err)

		as := asResponse{ASN: uint16(rng.Uint32()), Generation: uint64(i)}
		switch n := rng.Intn(5); n {
		case 0:
		case 1:
			as.Clusters = []ClusterJSON{}
		default:
			for j := 1; j < n; j++ {
				as.Clusters = append(as.Clusters, *genCluster(rng, rng.Intn(4) == 0))
			}
		}
		got, err = appendASResponse(nil, &as)
		check("asResponse", as, got, err)
	}

	// Appending leaves what was already in the buffer alone.
	cr := communityResponse{Annotation: genAnnotation(rng, false, false)}
	got, err := appendCommunityResponse([]byte("prefix"), &cr)
	check("appended communityResponse", cr, bytes.TrimPrefix(got, []byte("prefix")), err)
}

// TestVerdictWriterRejectsNonFinite: a NaN or infinite ratio is an
// error from all three renderers, as it is from encoding/json, and
// nothing claims success for it.
func TestVerdictWriterRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cl := ClusterJSON{ASN: 1, Category: "action", Ratio: bad}
		a := Annotation{Community: bgpintent.ClassicKey(1, 2), Kind: "classic", Cluster: &cl}
		if _, err := oracleJSON(a); err == nil {
			t.Fatalf("oracle accepts ratio %v", bad)
		}
		if _, err := appendCommunityResponse(nil, &communityResponse{Annotation: a}); err == nil {
			t.Errorf("communityResponse accepts ratio %v", bad)
		}
		if _, err := appendAnnotateResponse(nil, &annotateResponse{Annotations: []Annotation{a}}); err == nil {
			t.Errorf("annotateResponse accepts ratio %v", bad)
		}
		tuples := []annotateTupleResponse{{Annotations: []Annotation{a}}}
		if _, err := appendAnnotateResponse(nil, &annotateResponse{Tuples: tuples}); err == nil {
			t.Errorf("annotateResponse tuple accepts ratio %v", bad)
		}
		if _, err := appendASResponse(nil, &asResponse{Clusters: []ClusterJSON{cl}}); err == nil {
			t.Errorf("asResponse accepts ratio %v", bad)
		}
	}
}

// mappedServer serves resA from a flat snapshot file opened the way
// intentd opens one; patch may edit the file's bytes first.
func mappedServer(t testing.TB, patch func(file []byte) []byte) (*Server, *bgpintent.Result) {
	t.Helper()
	w := getWorld(t)
	path := writeSnapFile(t, t.TempDir(), "snap.bin", w, w.resA)
	if patch != nil {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, patch(file), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := bgpintent.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Close() })
	return newTestServer(t, staticBuilder(w, res, "mapped")), res
}

// TestNonFiniteRatioAnswers500: a snapshot file whose cluster record
// carries a NaN ratio opens (the O(1) open does not read cluster
// records) and must not turn into a 200 with an empty body: all three
// verdict endpoints notice before the status line goes out.
func TestNonFiniteRatioAnswers500(t *testing.T) {
	w := getWorld(t)
	l := w.resA.LookupKey(w.probe.Key())
	if !l.HasCluster || l.Cluster.Ratio == 0 {
		t.Fatalf("probe %v has no mixed cluster to poison: %+v", w.probe, l.Cluster)
	}
	le := func(f float64) []byte {
		var b [8]byte
		for i, bits := 0, math.Float64bits(f); i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		return b[:]
	}
	s, res := mappedServer(t, func(file []byte) []byte {
		if !bytes.Contains(file, le(l.Cluster.Ratio)) {
			t.Fatalf("ratio %v not found in the snapshot file", l.Cluster.Ratio)
		}
		return bytes.ReplaceAll(file, le(l.Cluster.Ratio), le(math.NaN()))
	})
	if got := res.LookupKey(w.probe.Key()); !got.HasCluster || !math.IsNaN(got.Cluster.Ratio) {
		t.Fatalf("patched snapshot still answers %+v", got.Cluster)
	}
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/v1/community/" + w.probe.String(), ""},
		{"GET", fmt.Sprintf("/v1/as/%d", w.probe.ASN), ""},
		{"POST", "/v1/annotate", fmt.Sprintf(`{"communities": [%q]}`, w.probe)},
		{"POST", "/v1/annotate", fmt.Sprintf(`{"tuples": [{"communities": %q}]}`, w.probe)},
	} {
		var resp errorResponse
		if code := do(t, s, tc.method, tc.path, tc.body, &resp); code != 500 || !strings.Contains(resp.Error, "NaN") {
			t.Errorf("%s %s %s: status %d, error %q; want 500 naming NaN", tc.method, tc.path, tc.body, code, resp.Error)
		}
	}
	// The failure is not cached, and other keys still answer.
	if code := do(t, s, "GET", "/v1/community/"+w.unobserved.String(), "", nil); code != 200 {
		t.Errorf("unobserved community on the poisoned snapshot: status %d", code)
	}
}

// TestAnnotateBodyLimit: a body over maxAnnotateBody is refused with
// 413 and the limit, where it used to be cut short and misreported as
// a syntax error; a body at the limit still parses, and bytes after the
// first JSON value are still ignored.
func TestAnnotateBodyLimit(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))
	item := fmt.Sprintf("%q,", w.probe)
	over := `{"communities": [` + strings.Repeat(item, maxAnnotateBody/len(item)+1) + `"1:1"]}`
	var resp errorResponse
	if code := do(t, s, "POST", "/v1/annotate", over, &resp); code != 413 || !strings.Contains(resp.Error, fmt.Sprint(maxAnnotateBody)) {
		t.Errorf("over-limit body: status %d, error %q; want 413 naming %d", code, resp.Error, maxAnnotateBody)
	}
	body := fmt.Sprintf(`{"communities": [%q]}`, w.probe)
	padded := body + strings.Repeat(" ", maxAnnotateBody-len(body))
	if code := do(t, s, "POST", "/v1/annotate", padded, nil); code != 200 {
		t.Errorf("body of exactly %d bytes: status %d", maxAnnotateBody, code)
	}
	if code := do(t, s, "POST", "/v1/annotate", body+"trailing garbage", nil); code != 200 {
		t.Errorf("trailing bytes after the first value: status %d", code)
	}
}

// readFromRecorder is a ResponseWriter with the connection's ReadFrom
// and Flush, to see what reaches them through the instrument wrapper.
type readFromRecorder struct {
	*httptest.ResponseRecorder
	readFrom int
}

func (r *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.readFrom++
	return io.Copy(r.ResponseRecorder, src)
}

// TestInstrumentKeepsReadFromAndFlush: GET /v1/snapshot hands the file
// to the connection's ReadFrom (sendfile on a real connection), and
// http.ResponseController finds Flush through Unwrap.
func TestInstrumentKeepsReadFromAndFlush(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))
	path := writeSnapFile(t, t.TempDir(), "snap.bin", w, w.resA)
	s.SetSnapshotFile(path)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/snapshot", nil))
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("snapshot download: status %d, %d bytes, want %d", rec.Code, rec.Body.Len(), len(want))
	}
	if rec.readFrom == 0 {
		t.Error("ServeContent did not reach the underlying ReadFrom")
	}
	// A writer without ReadFrom still gets the bytes.
	plain := httptest.NewRecorder()
	s.ServeHTTP(struct{ http.ResponseWriter }{plain}, httptest.NewRequest("GET", "/v1/snapshot", nil))
	if !bytes.Equal(plain.Body.Bytes(), want) {
		t.Errorf("snapshot download without ReadFrom: %d bytes, want %d", plain.Body.Len(), len(want))
	}

	flushed := httptest.NewRecorder()
	s.instrument("health", func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("Flush through the wrapper: %v", err)
		}
	})(flushed, httptest.NewRequest("GET", "/", nil))
	if !flushed.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
}

// discardResponse is a ResponseWriter that keeps the status only.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }

// annotateFixture is a 16-community tuple with a path over a mapped
// snapshot: observed classic and large keys plus two unobserved ones,
// the mix bgpbench's serve-annotate workload sends.
func annotateFixture(t *testing.T) (*Server, []byte) {
	s, res := mappedServer(t, nil)
	classic, large := res.Labeled(), res.LabeledLarge()
	var comms []string
	for i := 0; len(comms) < 12; i++ {
		comms = append(comms, classic[(i*37)%len(classic)].Community.String())
	}
	for i := 0; len(comms) < 14 && len(large) > 0; i++ {
		comms = append(comms, large[(i*7)%len(large)].Key.String())
	}
	for v := 1; len(comms) < 16; v++ {
		comms = append(comms, fmt.Sprintf("4242:%d", v))
	}
	body, err := json.Marshal(annotateRequest{Tuples: []AnnotateTuple{{
		Path: "701 2914 3356 64500", Communities: strings.Join(comms, " "),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return s, body
}

// TestConcurrentAnnotateScratch posts different bodies from several
// goroutines at once: every reply must be the bytes the same body gets
// when it is alone, so a pooled scratch is never shared between two
// requests or read after its release. Run under -race.
func TestConcurrentAnnotateScratch(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))
	labeled := w.resA.Labeled()
	post := func(body string) (int, []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/annotate", strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	const clients = 8
	bodies, want := make([]string, clients), make([][]byte, clients)
	for c := range bodies {
		var comms []string
		for i := 0; i <= 3*c; i++ {
			comms = append(comms, labeled[(c*131+i*17)%len(labeled)].Community.String())
		}
		bodies[c] = fmt.Sprintf(`{"communities": [%q], "tuples": [{"path": "%d 65001", "communities": %q}]}`,
			comms[0], labeled[c].Community.ASN, strings.Join(comms, " "))
		code, reply := post(bodies[c])
		if code != 200 {
			t.Fatalf("body %d: status %d: %s", c, code, reply)
		}
		want[c] = reply
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if code, reply := post(bodies[c]); code != 200 || !bytes.Equal(reply, want[c]) {
					t.Errorf("client %d request %d: status %d, reply differs from the sequential one", c, i, code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnnotateHandlerAllocs guards the per-request garbage of the
// annotate hot path: 149 allocations before the verdict response
// writer, 38 with it and 26 since a verdict's cluster
// crosses the facade by value (the request decode, the reply headers).
// The bound leaves room for toolchain drift, not for a reflection
// encoder or per-verdict pointers.
func TestAnnotateHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	s, body := annotateFixture(t)
	req := httptest.NewRequest("POST", "/v1/annotate", nil)
	rd := bytes.NewReader(body)
	req.Body = io.NopCloser(rd)
	w := &discardResponse{header: http.Header{}}
	avg := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		w.status = 0
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if avg > 32 {
		t.Errorf("annotate handler allocates %.1f per 16-community request, want <= 32", avg)
	}
}

// TestRepeatedGETCarriesContentLength: over a real connection every
// answer to the same GET carries its Content-Length and none is
// chunked — the first as much as the third, and for a body past the
// 2 KiB below which net/http would work the length out by itself.
func TestRepeatedGETCarriesContentLength(t *testing.T) {
	w := getWorld(t)
	// Gap 1 splits every AS's values into many small clusters, which the
	// paper's gap on this corpus does not (8 clusters, 2 006 B at most).
	res, err := w.corpus.ClassifyContext(context.Background(), bgpintent.Params{MinGap: 1, RatioThreshold: 160})
	if err != nil {
		t.Fatal(err)
	}
	perAS := make(map[uint32]int)
	var asn uint32
	for _, cl := range res.Clusters() {
		if perAS[cl.ASN]++; perAS[cl.ASN] > perAS[asn] {
			asn = cl.ASN
		}
	}
	srv := httptest.NewServer(newTestServer(t, staticBuilder(w, res, "gap-1")))
	defer srv.Close()
	for i := 1; i <= 3; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/as/%d", srv.URL, asn))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %d: status %d, read error %v", i, resp.StatusCode, err)
		}
		if len(body) <= 2048 {
			t.Fatalf("AS%d renders %d bytes (%d clusters): too small to show chunking", asn, len(body), perAS[asn])
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("GET %d of a %d-byte body: Content-Length %d, Transfer-Encoding %v",
				i, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// FuzzAnnotateRequest feeds arbitrary bodies to POST /v1/annotate: the
// handler never panics and never answers 5xx, every reply is JSON, and
// every 200 reply is exactly what encoding/json makes of it once
// decoded back into the wire structs.
func FuzzAnnotateRequest(f *testing.F) {
	w := getWorld(f)
	s := newTestServer(f, staticBuilder(w, w.resA, "static"))
	large := "64500:1:228"
	if ll := w.resA.LabeledLarge(); len(ll) > 0 {
		large = ll[0].Key.String()
	}
	for _, seed := range []string{
		fmt.Sprintf(`{"communities": [%q, %q, %q]}`, w.probe, w.unobserved, large),
		fmt.Sprintf(`{"tuples": [{"path": "65000 %d {1,2}", "communities": "%v,%v %s"}]}`, w.probe.ASN, w.probe, w.excluded, large),
		fmt.Sprintf(`{"tuples": [{"communities": %q}, {"path": "1\t2 3 4", "communities": ""}]}`, w.probe),
		fmt.Sprintf(`{"communities": [%q], "tuples": [{"path": "7", "communities": %q}]} trailing`, w.excluded, large),
		`{"COMMUNITIES": ["1:2"], "tuples": null, "other": {"a": [1, 2.5e3, "x"]}}`,
		`{"tuples": [{"path": "x y", "communities": "1:2"}]}`,
		`{"communities": ["nope"]}`, `{"communities": "1:2"}`, `{}`, ``, `null`, `[1]`, `not json`, `{"tuples": [{"path": "\ud800"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/annotate", bytes.NewReader(body)))
		reply := rec.Body.Bytes()
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, reply)
		}
		if n := rec.Header().Get("Content-Length"); n != fmt.Sprint(len(reply)) {
			t.Fatalf("Content-Length %q on a %d-byte reply", n, len(reply))
		}
		if rec.Code != http.StatusOK {
			var e errorResponse
			if err := json.Unmarshal(reply, &e); err != nil || e.Error == "" {
				t.Fatalf("status %d reply is not an error document (%v): %q", rec.Code, err, reply)
			}
			return
		}
		var resp annotateResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatalf("200 reply does not decode: %v\n%q", err, reply)
		}
		if want, err := oracleJSON(resp); err != nil || !bytes.Equal(reply, want) {
			t.Fatalf("200 reply is not what encoding/json renders (%v)\n got: %q\nwant: %q", err, reply, want)
		}
	})
}
