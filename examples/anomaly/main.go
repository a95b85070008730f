// Anomaly shows the monitoring use case from the paper's introduction:
// knowing which communities are action and which are informational
// turns a raw update stream into a signal an operator can alarm on —
// a blackhole community suddenly bursting, a transit AS's reliable
// information tags disappearing (a symptom of route leaks through
// community-stripping networks), traffic-engineering flapping.
//
// The heavy lifting lives in internal/anomaly (the CommunityWatch
// engine intentd -live serves at /v1/anomalies); this example is a
// thin driver: it scripts three ground-truth events into the
// simulated feed, replays the stream through the engine with the
// inferred semantics, and scores what the detectors found. Unlike
// the early version of this example, the engine handles the full
// 32-bit ASN space — 4-byte ASes on paths are counted rather than
// skipped, and can never be misattributed via 16-bit truncation.
//
//	go run ./examples/anomaly
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"time"

	"bgpintent/internal/anomaly"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/simulate"
	"bgpintent/internal/stream"
	"bgpintent/internal/topology"
)

func main() {
	log.SetFlags(0)

	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		log.Fatal(err)
	}
	newFeed := func(sc *simulate.Script) stream.Source {
		return stream.NewSimSource(simulate.New(topo, simulate.TinyConfig()), stream.SimConfig{
			Days:   2,
			Epoch:  stream.DefaultEpoch.Truncate(time.Hour),
			Script: sc,
		})
	}

	fmt.Println("draining a clean baseline feed and classifying it...")
	clean := drain(newFeed(nil))
	ts := core.NewTupleStore()
	for _, u := range clean {
		ts.AddView(u.VP, u.Path, u.Comms)
	}
	sem := core.Classify(ts, core.DefaultOptions())
	action, info := sem.Counts()
	fmt.Printf("baseline: %d updates, %d action / %d information communities\n",
		len(clean), action, info)

	// Pick event subjects from the inference itself: two quiet action
	// communities and the busiest reliable information tagger.
	spikeC, flapC := quietActions(clean, sem)
	stripAS := reliableTagger(clean, sem)
	script := fmt.Sprintf("spike:%d:%d@25h+2h#400;strip:%d@30h+3h;flap:%d:%d@35h+8h#4x200",
		spikeC.ASN(), spikeC.Value(), stripAS, flapC.ASN(), flapC.Value())
	fmt.Printf("scripting ground truth: %s\n\n", script)

	sc, err := simulate.ParseScript(script)
	if err != nil {
		log.Fatal(err)
	}
	eng := anomaly.NewEngine(anomaly.Options{
		BucketSpan: time.Hour,
		History:    24,
		Thresholds: anomaly.Thresholds{
			ReliableMin: 100, MissMin: 10, // scaled to the tiny corpus
		},
	})
	eng.SetSemantics(sem)
	for _, u := range drain(newFeed(sc)) {
		eng.Process(u)
	}
	eng.CloseUpTo(stream.DefaultEpoch.Add(49 * time.Hour))

	rep := eng.Query(anomaly.Query{})
	fmt.Printf("findings (%d):\n", len(rep.Findings))
	for _, f := range rep.Findings {
		fmt.Printf("  %-7s %s\n", f.Detector, f.Summary)
	}

	detected := func(kind string, match func(anomaly.Finding) bool) string {
		for _, f := range rep.Findings {
			if f.Kind == kind && match(f) {
				return "detected"
			}
		}
		return "MISSED"
	}
	fmt.Println("\nscorecard:")
	fmt.Printf("  spike on %s: %s\n", spikeC, detected("spike-onset",
		func(f anomaly.Finding) bool { return f.Community == spikeC }))
	fmt.Printf("  strip through AS%d: %s\n", stripAS, detected("info-disappearance",
		func(f anomaly.Finding) bool { return f.ASN == stripAS }))
	fmt.Printf("  flap on %s: %s\n", flapC, detected("churn",
		func(f anomaly.Finding) bool { return f.Community == flapC }))

	fmt.Println("\nwithout the action/information split, every community would look alike:")
	fmt.Println("bursts of routine tags would drown the blackhole signal, and stripped")
	fmt.Println("information communities would not be missed at all.")
}

func drain(src stream.Source) []stream.Update {
	sess, err := src.Connect(context.Background(), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	var out []stream.Update
	for {
		u, err := sess.Recv(context.Background())
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, u)
	}
}

// quietActions returns the two least-frequent action communities —
// quiet baselines make the cleanest spike and flap subjects.
func quietActions(updates []stream.Update, sem core.InferenceSource) (bgp.Community, bgp.Community) {
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
		log.Fatal("corpus classified fewer than two action communities")
	}
	sort.Slice(actions, func(i, j int) bool {
		if freq[actions[i]] != freq[actions[j]] {
			return freq[actions[i]] < freq[actions[j]]
		}
		return actions[i] < actions[j]
	})
	return actions[0], actions[1]
}

// reliableTagger returns the on-path AS with the most routes through it
// among those whose routes nearly always carry one of its own
// information communities. The full 32-bit ASN space is scanned; a
// 4-byte AS simply can never qualify, because a classic community's α
// field cannot name it.
func reliableTagger(updates []stream.Update, sem core.InferenceSource) uint32 {
	through := make(map[uint32]int)
	tagged := make(map[uint32]int)
	for _, u := range updates {
		for i := 1; i < len(u.Path); i++ {
			asn := u.Path[i]
			dup := false
			for j := 1; j < i; j++ {
				if u.Path[j] == asn {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			through[asn]++
			if asn > 0xffff {
				continue // counted, but unable to own a classic community
			}
			for _, c := range u.Comms {
				if uint32(c.ASN()) == asn && sem.Category(c) == dict.CatInformation {
					tagged[asn]++
					break
				}
			}
		}
	}
	best, bestN := uint32(0), 0
	for asn, n := range through {
		if n >= 50 && float64(tagged[asn])/float64(n) >= 0.9 &&
			(n > bestN || (n == bestN && asn < best)) {
			best, bestN = asn, n
		}
	}
	if best == 0 {
		log.Fatal("no reliable tagging AS in the baseline")
	}
	return best
}
