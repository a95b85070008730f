package bgpintent

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgpintent/internal/corpus"
)

func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := NewSyntheticCorpus(CorpusOptions{Small: true, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// classify runs the inference pipeline, failing the test on error.
func classify(t *testing.T, c *Corpus, p Params) *Result {
	t.Helper()
	res, err := c.ClassifyContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCategoryString(t *testing.T) {
	if Unknown.String() != "unknown" || Action.String() != "action" || Information.String() != "information" {
		t.Error("category strings wrong")
	}
}

func TestCommunityString(t *testing.T) {
	if got := Comm(1299, 2569).String(); got != "1299:2569" {
		t.Errorf("String = %q", got)
	}
}

func TestSyntheticClassify(t *testing.T) {
	c := smallCorpus(t)
	if c.Tuples() == 0 || c.Paths() == 0 {
		t.Fatal("empty corpus")
	}
	res := classify(t, c, DefaultParams())
	action, info := res.Counts()
	if action == 0 || info == 0 {
		t.Fatalf("counts = %d/%d", action, info)
	}
	if info <= action {
		t.Errorf("information (%d) should outnumber action (%d)", info, action)
	}

	labeled := res.Labeled()
	if len(labeled) != action+info {
		t.Errorf("Labeled len = %d, want %d", len(labeled), action+info)
	}
	for i := 1; i < len(labeled); i++ {
		a, b := labeled[i-1].Community, labeled[i].Community
		if a.ASN > b.ASN || (a.ASN == b.ASN && a.Value >= b.Value) {
			t.Fatal("Labeled not sorted")
		}
	}

	// Accuracy against ground truth.
	correct, total := 0, 0
	for _, lc := range labeled {
		truth, err := c.GroundTruth(lc.Community)
		if err != nil {
			t.Fatal(err)
		}
		if truth == Unknown {
			continue
		}
		total++
		if truth == lc.Category {
			correct++
		}
	}
	if total < 100 {
		t.Fatalf("only %d ground-truth communities", total)
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("accuracy = %.3f", acc)
	}
}

func TestResultTSV(t *testing.T) {
	c := smallCorpus(t)
	res := classify(t, c, DefaultParams())
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	action, info := res.Counts()
	largeAction, largeInfo := res.LargeCounts()
	if len(lines) != action+info+largeAction+largeInfo {
		t.Errorf("TSV lines = %d, want %d", len(lines), action+info+largeAction+largeInfo)
	}
	// A mixed corpus emits the 3-column kind-qualified format; a
	// classic-only corpus keeps the original 2-column layout.
	wantCols := 2
	if res.LargeObservedCount() > 0 {
		wantCols = 3
	}
	for _, l := range lines[:5] {
		parts := strings.Split(l, "\t")
		if len(parts) != wantCols || !strings.Contains(parts[0], ":") {
			t.Fatalf("bad TSV line %q", l)
		}
		if parts[1] != "action" && parts[1] != "information" {
			t.Fatalf("bad category %q", parts[1])
		}
		if wantCols == 3 && parts[2] != "classic" && parts[2] != "large" {
			t.Fatalf("bad kind %q", parts[2])
		}
	}
}

func TestExcludedReasons(t *testing.T) {
	c := smallCorpus(t)
	res := classify(t, c, DefaultParams())
	foundPrivate, foundNeverOnPath := false, false
	for _, comm := range c.Communities() {
		if reason, ok := res.Excluded(comm); ok {
			switch reason {
			case ExcludedPrivateASN:
				foundPrivate = true
			case ExcludedNeverOnPath:
				foundNeverOnPath = true
			}
			if got := res.Category(comm); got != Unknown {
				t.Errorf("excluded %v classified as %v", comm, got)
			}
		}
	}
	if !foundPrivate || !foundNeverOnPath {
		t.Errorf("exclusion reasons: private=%v never-on-path=%v; want both", foundPrivate, foundNeverOnPath)
	}
}

func TestMRTCorpusMatchesSynthetic(t *testing.T) {
	// Write the synthetic corpus to MRT and reload it through the public
	// loader: tuple counts and classification must match.
	cfg := corpus.TinyConfig()
	syn, err := corpus.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var ribs []string
	for day := 0; day < cfg.Days; day++ {
		res := syn.Sim.RunDay(day)
		for col := 0; col < syn.Sim.Collectors(); col++ {
			p := filepath.Join(dir, "rc"+string(rune('0'+col))+"-day"+string(rune('0'+day))+".rib.mrt")
			f, err := os.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := syn.Sim.WriteRIB(f, uint32(1714521600+day*86400), col, res); err != nil {
				t.Fatal(err)
			}
			f.Close()
			ribs = append(ribs, p)
		}
	}
	orgPath := filepath.Join(dir, "as2org.txt")
	f, err := os.Create(orgPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := syn.Orgs.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs, OrgPath: orgPath}, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Tuples() != syn.Store.Len() {
		t.Errorf("loaded %d tuples, synthetic store has %d", loaded.Tuples(), syn.Store.Len())
	}
	if loaded.Paths() != syn.Store.PathCount() {
		t.Errorf("loaded %d paths, synthetic store has %d", loaded.Paths(), syn.Store.PathCount())
	}
	res := classify(t, loaded, DefaultParams())
	action, info := res.Counts()
	if action == 0 || info == 0 {
		t.Fatalf("MRT-loaded classification degenerate: %d/%d", action, info)
	}
	if loaded.LargeCommunities() == 0 {
		t.Error("large communities lost in the MRT round trip")
	}
	if loaded.LargeCommunities() != syn.Store.LargeCommunityCount() {
		t.Errorf("large communities: loaded %d, synthetic %d",
			loaded.LargeCommunities(), syn.Store.LargeCommunityCount())
	}
}

func TestLoadMRTErrors(t *testing.T) {
	if _, _, err := LoadMRT(context.Background(), Sources{RIBs: []string{"/nonexistent.mrt"}}, LoadOptions{}); err == nil {
		t.Error("missing file: want error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.mrt")
	if err := os.WriteFile(bad, []byte("this is not mrt data at all.."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadMRT(context.Background(), Sources{RIBs: []string{bad}}, LoadOptions{}); err == nil {
		t.Error("garbage file: want error")
	}
}

func TestSyntheticOnlyMethods(t *testing.T) {
	mrtCorpus := &Corpus{}
	if _, err := mrtCorpus.SimulateDay(0); err != ErrNotSynthetic {
		t.Errorf("SimulateDay err = %v", err)
	}
	if _, err := mrtCorpus.InferLocations(); err != ErrNotSynthetic {
		t.Errorf("InferLocations err = %v", err)
	}
	if _, err := mrtCorpus.GroundTruth(Comm(1, 1)); err != ErrNotSynthetic {
		t.Errorf("GroundTruth err = %v", err)
	}
	if _, err := mrtCorpus.DictionaryTSV(); err != ErrNotSynthetic {
		t.Errorf("DictionaryTSV err = %v", err)
	}
}

func TestLocationFilterFlow(t *testing.T) {
	c := smallCorpus(t)
	locs, err := c.InferLocations()
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) == 0 {
		t.Fatal("no location inferences")
	}
	res := classify(t, c, DefaultParams())
	kept, dropped := res.FilterActions(locs)
	if len(kept)+len(dropped) != len(locs) {
		t.Error("filter lost inferences")
	}
	if len(dropped) == 0 {
		t.Error("no action communities dropped; Table 1 flow inert")
	}
}

func TestSimulateDayDeterministic(t *testing.T) {
	c := smallCorpus(t)
	a, err := c.SimulateDay(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SimulateDay(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("no views")
	}
}

func TestDictionaryTSV(t *testing.T) {
	c := smallCorpus(t)
	tsv, err := c.DictionaryTSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tsv, "location") && !strings.Contains(tsv, "suppress") {
		t.Errorf("dictionary TSV looks empty: %q", tsv[:min(len(tsv), 100)])
	}
}

func TestLoadMRTUpdatesFiles(t *testing.T) {
	cfg := corpus.TinyConfig()
	syn, err := corpus.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res := syn.Sim.RunDay(0)
	var updates []string
	for col := 0; col < syn.Sim.Collectors(); col++ {
		p := filepath.Join(dir, "u"+string(rune('0'+col))+".mrt")
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := syn.Sim.WriteUpdates(f, 1714521600, col, res, 0.5); err != nil {
			t.Fatal(err)
		}
		f.Close()
		updates = append(updates, p)
	}
	loaded, _, err := LoadMRT(context.Background(), Sources{Updates: updates}, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Tuples() == 0 {
		t.Fatal("no tuples from updates files")
	}
	res2 := classify(t, loaded, DefaultParams())
	if a, i := res2.Counts(); a+i == 0 {
		t.Fatal("nothing classified from updates corpus")
	}
}

func TestDescribe(t *testing.T) {
	c := smallCorpus(t)
	res := classify(t, c, DefaultParams())
	for _, lc := range res.Labeled() {
		out := c.Describe(lc.Community, res)
		if !strings.Contains(out, lc.Community.String()) || !strings.Contains(out, "truth=") {
			t.Fatalf("Describe = %q", out)
		}
		break
	}
	// Excluded community renders its reason.
	for _, comm := range c.Communities() {
		if _, ok := res.Excluded(comm); ok {
			out := c.Describe(comm, res)
			if !strings.Contains(out, "excluded") {
				t.Fatalf("Describe(excluded) = %q", out)
			}
			break
		}
	}
}

func TestClassifyCustomParams(t *testing.T) {
	c := smallCorpus(t)
	// Degenerate parameters must still produce a coherent result.
	res := classify(t, c, Params{MinGap: 0, RatioThreshold: 1})
	if a, i := res.Counts(); a+i == 0 {
		t.Fatal("nothing classified with custom params")
	}
	// A zero RatioThreshold is the paper's 160 whatever MinGap says; a zero
	// MinGap is the paper's 140 only in the zero Params, and literal (no
	// clustering) beside a set threshold.
	tsv := func(p Params) string {
		var buf bytes.Buffer
		if err := classify(t, c, p).WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, tc := range []struct{ got, want Params }{
		{Params{}, DefaultParams()},
		{Params{MinGap: 140}, DefaultParams()},
		{Params{MinGap: 60}, Params{MinGap: 60, RatioThreshold: 160}},
		{Params{MinGap: 140, RatioThreshold: 160, Parallelism: 1}, DefaultParams()},
	} {
		if tsv(tc.got) != tsv(tc.want) {
			ga, gi := classify(t, c, tc.got).Counts()
			wa, wi := classify(t, c, tc.want).Counts()
			t.Errorf("%+v classifies %d action / %d information, %+v %d / %d", tc.got, ga, gi, tc.want, wa, wi)
		}
	}
	if ungapped := (Params{RatioThreshold: 160}); tsv(ungapped) == tsv(DefaultParams()) {
		t.Errorf("%+v clusters like the paper's gap of 140; a zero MinGap beside a set threshold disables clustering", ungapped)
	}
}

func TestGroundTruthSubKnownValues(t *testing.T) {
	c := smallCorpus(t)
	res := classify(t, c, DefaultParams())
	seen := map[string]bool{}
	for _, lc := range res.Labeled() {
		sub, err := c.GroundTruthSub(lc.Community)
		if err != nil {
			t.Fatal(err)
		}
		seen[sub] = true
	}
	for _, want := range []string{"location", "suppress", "relationship"} {
		if !seen[want] {
			t.Errorf("no classified community with ground-truth sub %q", want)
		}
	}
}

func TestLoadGzippedMRT(t *testing.T) {
	cfg := corpus.TinyConfig()
	cfg.Days = 0
	syn, err := corpus.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := syn.Sim.RunDay(0)
	dir := t.TempDir()
	plain := filepath.Join(dir, "rib.mrt")
	f, err := os.Create(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Sim.WriteRIB(f, 1, 0, res); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// gzip the same bytes.
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(dir, "rib.mrt.gz")
	gf, err := os.Create(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(gf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	gf.Close()

	a, _, err := LoadMRT(context.Background(), Sources{RIBs: []string{plain}}, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := LoadMRT(context.Background(), Sources{RIBs: []string{gzPath}}, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tuples() != b.Tuples() || a.Paths() != b.Paths() {
		t.Errorf("gzip load differs: %d/%d vs %d/%d", a.Tuples(), a.Paths(), b.Tuples(), b.Paths())
	}
	// A corrupt gzip file must fail cleanly.
	bad := filepath.Join(dir, "bad.mrt.gz")
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadMRT(context.Background(), Sources{RIBs: []string{bad}}, LoadOptions{}); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

func TestResultClusters(t *testing.T) {
	c := smallCorpus(t)
	res := classify(t, c, DefaultParams())
	clusters := res.Clusters()
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	total := 0
	for i, cl := range clusters {
		if cl.Lo > cl.Hi || cl.Size == 0 {
			t.Fatalf("bad cluster %+v", cl)
		}
		if cl.Category == Unknown {
			t.Fatalf("cluster without label: %+v", cl)
		}
		if i > 0 && clusters[i-1].ASN == cl.ASN && clusters[i-1].Hi >= cl.Lo {
			t.Fatalf("clusters overlap: %+v %+v", clusters[i-1], cl)
		}
		total += cl.Size
	}
	action, info := res.Counts()
	if total != action+info {
		t.Errorf("cluster members = %d, labeled = %d", total, action+info)
	}
}

func TestRefineInformation(t *testing.T) {
	c := smallCorpus(t)
	res := classify(t, c, DefaultParams())
	refined, err := c.RefineInformation(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined) == 0 {
		t.Fatal("no refined communities")
	}
	kinds := map[string]int{}
	for _, rc := range refined {
		if res.Category(rc.Community) != Information {
			t.Fatalf("refined non-information community %v", rc.Community)
		}
		kinds[rc.Kind]++
	}
	for _, want := range []string{"location", "other-info"} {
		if kinds[want] == 0 {
			t.Errorf("no communities refined as %q (got %v)", want, kinds)
		}
	}
	// MRT corpora cannot refine (no oracles).
	if _, err := (&Corpus{}).RefineInformation(res); err != ErrNotSynthetic {
		t.Errorf("err = %v", err)
	}
}
