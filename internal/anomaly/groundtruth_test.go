package anomaly

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/simulate"
	"bgpintent/internal/stream"
	"bgpintent/internal/topology"
)

// Ground-truth validation: play a fixed-seed simulated feed with
// scripted events through the real ingestion path, run the detectors
// at the committed thresholds, and score them. Every scripted event
// must be detected with the category the inference pipeline assigned
// to its subject, and nothing may fire outside an event's influence
// window — zero false positives. The CI anomaly smoke job runs exactly
// this test.

const (
	gtBucket = time.Hour
	gtDays   = 2
	gtSlack  = 2 * gtBucket // grace around event windows for closings
)

// gtThresholds are the committed detection thresholds for the tiny
// simulated corpus (~40 VPs). They scale the production defaults down
// to its per-bucket densities and are what CI scores against.
var gtThresholds = Thresholds{
	SpikeWarmup:     6,
	SpikeK:          6,
	SpikeRatio:      3,
	SpikeMin:        50,
	FlapTransitions: 5,
	ReliableMin:     100,
	ReliableFrac:    0.9,
	MissFrac:        0.6,
	MissMin:         10,
	BaselineDecay:   0.98,
}

func gtSim(t *testing.T) *simulate.Simulator {
	t.Helper()
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatalf("topology.Generate: %v", err)
	}
	return simulate.New(topo, simulate.TinyConfig())
}

func drainAll(t *testing.T, src stream.Source) []stream.Update {
	t.Helper()
	sess, err := src.Connect(context.Background(), 0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	defer sess.Close()
	var out []stream.Update
	for {
		u, err := sess.Recv(context.Background())
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		out = append(out, u)
	}
}

// classifyCorpus runs the batch inference pipeline over a clean drain
// of the feed — the semantics generation the detectors attribute with.
func classifyCorpus(updates []stream.Update) *core.Inferences {
	ts := core.NewTupleStore()
	for _, u := range updates {
		ts.AddView(u.VP, u.Path, u.Comms)
	}
	return core.Classify(ts, core.DefaultOptions())
}

// asTagStats aggregates, per 16-bit on-path AS, how many updates pass
// through it and how many of those carry an information community it
// owns — the same measurement the disappearance detector makes.
type tagStat struct {
	through int
	tagged  int
	overlap map[uint32]int // through-counts shared with other ASes
}

func gatherTagStats(updates []stream.Update, sem core.InferenceSource) map[uint32]*tagStat {
	stats := make(map[uint32]*tagStat)
	var asns []uint32
	for _, u := range updates {
		asns = asns[:0]
		for i := 1; i < len(u.Path); i++ {
			a := u.Path[i]
			dup := false
			for _, b := range asns {
				if a == b {
					dup = true
					break
				}
			}
			if !dup {
				asns = append(asns, a)
			}
		}
		for _, a := range asns {
			st := stats[a]
			if st == nil {
				st = &tagStat{overlap: make(map[uint32]int)}
				stats[a] = st
			}
			st.through++
			for _, b := range asns {
				if b != a {
					st.overlap[b]++
				}
			}
			if a > 0xffff {
				continue // α is 16-bit; a 4-byte AS cannot own a classic community
			}
			for _, c := range u.Comms {
				if uint32(c.ASN()) == a && sem.Category(c) == dict.CatInformation {
					st.tagged++
					break
				}
			}
		}
	}
	return stats
}

// pickSubjects chooses the event subjects from the baseline corpus and
// classification alone — nothing is hard-coded, so the test keeps
// working as the simulator's community dialect evolves.
func pickSubjects(t *testing.T, updates []stream.Update, sem core.InferenceSource) (spike, flap bgp.Community, strip uint32) {
	t.Helper()

	// Spike/flap subjects: the two least-frequent action-labeled
	// communities (quiet baselines give the cleanest onsets), by count
	// then community value for determinism.
	freq := make(map[bgp.Community]int)
	for _, u := range updates {
		for _, c := range u.Comms {
			freq[c]++
		}
	}
	var actions []bgp.Community
	sem.EachLabeled(func(c bgp.Community, cat dict.Category) bool {
		if cat == dict.CatAction {
			actions = append(actions, c)
		}
		return true
	})
	if len(actions) < 2 {
		t.Fatalf("corpus classified only %d action communities", len(actions))
	}
	sort.Slice(actions, func(i, j int) bool {
		if freq[actions[i]] != freq[actions[j]] {
			return freq[actions[i]] < freq[actions[j]]
		}
		return actions[i] < actions[j]
	})
	spike, flap = actions[0], actions[1]

	// Strip subject: the busiest reliable information tagger whose
	// traffic is not mostly shared with another reliable tagger (so the
	// stripped routes implicate it alone and the test can demand exact
	// attribution).
	stats := gatherTagStats(updates, sem)
	reliable := make(map[uint32]bool)
	for a, st := range stats {
		if st.through >= 50 && float64(st.tagged)/float64(st.through) >= 0.9 {
			reliable[a] = true
		}
	}
	best, bestThrough := uint32(0), 0
	for a := range reliable {
		st := stats[a]
		clean := true
		for b := range reliable {
			if b == a {
				continue
			}
			// Stripping a would hide > half of b's tagged routes: the
			// collateral could legitimately implicate b too. Skip a.
			if float64(st.overlap[b]) > 0.5*float64(stats[b].through) {
				clean = false
				break
			}
		}
		if clean && (st.through > bestThrough || (st.through == bestThrough && a < best)) {
			best, bestThrough = a, st.through
		}
	}
	if best == 0 {
		t.Fatalf("no isolated reliable tagging AS in corpus (%d reliable)", len(reliable))
	}
	return spike, flap, best
}

// gtEvent is one scripted event plus the findings it licenses.
type gtEvent struct {
	name     string
	start    time.Time
	end      time.Time
	comm     bgp.Community // zero when the subject is an AS
	asn      uint32
	required string // detector kind that must fire at least once
}

func (e gtEvent) covers(f Finding) bool {
	if f.Bucket.Before(e.start.Add(-gtSlack)) || f.Bucket.After(e.end.Add(gtSlack)) {
		return false
	}
	if e.comm != 0 {
		return f.HasCommunity && f.Community == e.comm
	}
	return !f.HasCommunity && f.ASN == e.asn
}

func TestGroundTruthScriptedEvents(t *testing.T) {
	epoch := stream.DefaultEpoch.Truncate(gtBucket)

	clean := drainAll(t, stream.NewSimSource(gtSim(t), stream.SimConfig{Days: gtDays, Epoch: epoch}))
	if len(clean) == 0 {
		t.Fatal("clean feed is empty")
	}
	t.Logf("clean corpus: %d updates over %d days", len(clean), gtDays)

	inf := classifyCorpus(clean)
	spikeC, flapC, stripAS := pickSubjects(t, clean, inf)
	t.Logf("subjects: spike=%v flap=%v strip=AS%d", spikeC, flapC, stripAS)

	// Day 0 is the learning baseline; all events land inside day 1.
	script := fmt.Sprintf("spike:%d:%d@25h+2h#400;strip:%d@30h+3h;flap:%d:%d@35h+8h#4x200",
		spikeC.ASN(), spikeC.Value(), stripAS, flapC.ASN(), flapC.Value())
	sc, err := simulate.ParseScript(script)
	if err != nil {
		t.Fatalf("ParseScript(%q): %v", script, err)
	}

	events := []gtEvent{
		{name: "spike", start: epoch.Add(25 * time.Hour), end: epoch.Add(27 * time.Hour),
			comm: spikeC, required: "spike-onset"},
		{name: "strip", start: epoch.Add(30 * time.Hour), end: epoch.Add(33 * time.Hour),
			asn: stripAS, required: "info-disappearance"},
		{name: "flap", start: epoch.Add(35 * time.Hour), end: epoch.Add(43 * time.Hour),
			comm: flapC, required: "churn"},
	}

	// Replay the perturbed feed through the engine exactly as the live
	// tap delivers it.
	eng := NewEngine(Options{
		BucketSpan: gtBucket,
		History:    24,
		Thresholds: gtThresholds,
		Logf:       t.Logf,
	})
	eng.SetSemantics(inf)
	scripted := drainAll(t, stream.NewSimSource(gtSim(t), stream.SimConfig{Days: gtDays, Epoch: epoch, Script: sc}))
	if len(scripted) <= len(clean) {
		t.Fatalf("script injected nothing: %d scripted vs %d clean updates", len(scripted), len(clean))
	}
	for _, u := range scripted {
		eng.Process(u)
	}
	eng.CloseUpTo(epoch.Add(gtDays*24*time.Hour + gtBucket))

	rep := eng.Query(Query{})
	t.Logf("findings: %d", len(rep.Findings))
	for _, f := range rep.Findings {
		t.Logf("  %s", f.Summary)
	}

	// Recall: every scripted event produced its required finding with
	// the category the inference assigned.
	for _, e := range events {
		hit := false
		for _, f := range rep.Findings {
			if f.Kind != e.required || !e.covers(f) {
				continue
			}
			hit = true
			want := dict.CatAction
			if e.name == "strip" {
				want = dict.CatInformation
			}
			if f.Category != want {
				t.Errorf("%s finding category %v, want %v: %+v", e.name, f.Category, want, f)
			}
			if f.Generation != 1 {
				t.Errorf("%s finding generation %d, want 1", e.name, f.Generation)
			}
		}
		if !hit {
			t.Errorf("scripted %s event was not detected (no %s finding for its subject in window)",
				e.name, e.required)
		}
	}

	// Precision: every finding must be licensed by some scripted event
	// — same subject, inside the window. Cross-detector findings on an
	// event's own subject (a flap also looks spiky; a strip recovers)
	// are correct detections, not noise.
	for _, f := range rep.Findings {
		licensed := false
		for _, e := range events {
			if e.covers(f) {
				licensed = true
				break
			}
		}
		if !licensed {
			t.Errorf("false positive: %+v", f)
		}
	}
}
