package eval

import (
	"bytes"
	"fmt"

	"bgpintent/internal/core"
	"bgpintent/internal/corpus"
	"bgpintent/internal/ingest"
	"bgpintent/internal/ingest/faults"
	"bgpintent/internal/mrt"
)

// FaultTolerance measures how gracefully the pipeline degrades on dirty
// input: one day of the synthetic corpus is serialized to MRT, corrupted
// at increasing per-record fault rates with ingest/faults (bit flips,
// truncation, oversized lengths, garbage bytes, duplicates), and
// re-loaded through the lenient ingestion layer. The report tracks the
// fraction of clean tuples salvaged and the classification accuracy at
// each corruption rate.
func FaultTolerance(cfg corpus.Config, rates []float64) (*Report, error) {
	r := newReport("faults", "Salvage and accuracy vs injected MRT corruption rate",
		"(robustness harness; no paper counterpart — real RouteViews/RIS archives carry truncated and corrupt records)")
	if len(rates) == 0 {
		rates = []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.10}
	}
	cfg.Days = 0 // the day is simulated and serialized below
	c, err := corpus.Build(cfg)
	if err != nil {
		return nil, err
	}
	day := c.Sim.RunDay(0)

	// Serialize one RIB snapshot per collector, the files a collector
	// archive would ship.
	clean := make([][]byte, c.Sim.Collectors())
	for col := range clean {
		var buf bytes.Buffer
		if err := c.Sim.WriteRIB(&buf, 1714521600, col, day); err != nil {
			return nil, err
		}
		clean[col] = buf.Bytes()
	}

	load := func(blobs [][]byte) (*core.TupleStore, *ingest.Stats, error) {
		store := core.NewTupleStore()
		st := &ingest.Stats{}
		// The budget is disabled: the whole point is to measure
		// degradation beyond any reasonable budget.
		opts := ingest.Options{MaxErrorRate: -1}
		for i, blob := range blobs {
			name := fmt.Sprintf("rc%02d.rib.mrt", i)
			err := ingest.ScanRIBsFrom(bytes.NewReader(blob), name, opts, st, func(v *mrt.RIBView) error {
				store.AddView(v.Peer.ASN, v.Entry.Attrs.ASPath.Flatten(), v.Entry.Attrs.Communities)
				return nil
			})
			if err != nil {
				return nil, st, err
			}
		}
		return store, st, nil
	}

	cleanStore, _, err := load(clean)
	if err != nil {
		return nil, err
	}
	cleanTuples := cleanStore.Len()
	r.addf("clean corpus: %d tuples over %d collectors", cleanTuples, len(clean))

	for i, rate := range rates {
		dirty := make([][]byte, len(clean))
		var injected faults.Result
		for col, blob := range clean {
			var buf bytes.Buffer
			res, err := faults.Corrupt(&buf, bytes.NewReader(blob), faults.Config{
				Seed: cfg.Seed ^ int64(i)<<20 ^ int64(col)<<8,
				Rate: rate,
			})
			if err != nil {
				return nil, err
			}
			injected.Records += res.Records
			injected.Faults += res.Faults
			dirty[col] = buf.Bytes()
		}
		store, st, err := load(dirty)
		if err != nil {
			return nil, err
		}
		inf := core.Classify(store, c.Options())
		conf := AgainstDictionary(inf, c.Dict)
		salvage := 1.0
		if cleanTuples > 0 {
			salvage = float64(store.Len()) / float64(cleanTuples)
		}
		t := &st.Total
		r.addf("rate=%.3f injected=%-4d salvaged-tuples=%5.1f%% accuracy=%.3f classified=%-5d skipped=%-4d resyncs=%-4d truncated=%d",
			rate, injected.Faults, 100*salvage, conf.Accuracy(), inf.Observed()-inf.ExcludedCount(), t.Skipped, t.Resyncs, t.Truncated)
		switch rate {
		case 0:
			r.Metrics["accuracy_clean"] = conf.Accuracy()
		case 0.01:
			r.Metrics["accuracy_at_1pct"] = conf.Accuracy()
			r.Metrics["salvage_at_1pct"] = salvage
		}
		if i == len(rates)-1 {
			r.Metrics["accuracy_at_max"] = conf.Accuracy()
			r.Metrics["salvage_at_max"] = salvage
			r.Metrics["max_rate"] = rate
		}
	}
	return r, nil
}
