package eval

import (
	"math"
	"math/rand"
	"strconv"

	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/corpus"
	"bgpintent/internal/dict"
	"bgpintent/internal/finegrained"
	"bgpintent/internal/locinfer"
	"bgpintent/internal/simulate"
)

// Headline reproduces the §6 headline numbers: communities observed,
// classified (action/information split), excluded, and accuracy against
// the ground-truth dictionary.
func Headline(c *corpus.Corpus) *Report {
	r := newReport("headline", "Corpus totals and overall accuracy",
		"78,480 of 88,982 communities classified: 24,376 action + 54,104 information; 96.5% accuracy on 6,259 dictionary communities")
	inf := core.Classify(c.Store, c.Options())
	action, info := inf.Counts()
	conf := AgainstDictionary(inf, c.Dict)

	observed, _ := c.Store.DistinctCounts()
	r.addf("tuples=%d unique-paths=%d observed-communities=%d (regular) + %d large",
		c.Store.Len(), c.Store.PathCount(), observed, c.Store.LargeCommunityCount())
	r.addf("classified=%d (action=%d information=%d) excluded=%d", action+info, action, info, inf.ExcludedCount())
	r.addf("dictionary: ases=%d entries=%d covered-communities=%d", c.Dict.ASNs(), c.Dict.Len(), conf.Total())
	r.addf("accuracy=%.3f (info->info=%d info->action=%d action->action=%d action->info=%d)",
		conf.Accuracy(), conf.InfoAsInfo, conf.InfoAsAction, conf.ActionAsAction, conf.ActionAsInfo)
	r.Metrics["accuracy"] = conf.Accuracy()
	r.Metrics["action"] = float64(action)
	r.Metrics["information"] = float64(info)
	r.Metrics["excluded"] = float64(inf.ExcludedCount())
	r.Metrics["observed"] = float64(observed)
	r.Metrics["covered"] = float64(conf.Total())
	return r
}

// Fig4 reproduces Figure 4: for ground-truth ASes with both categories,
// the contiguous dictionary ranges and the BGP-observed values beside
// them (observed values uncovered by the dictionary are "unknown").
func Fig4(c *corpus.Corpus) *Report {
	r := newReport("fig4", "Dictionary ranges vs BGP-observed communities per AS",
		"operators devote contiguous β ranges to one purpose; many observed values are undocumented")
	os := core.Observe(c.Store, c.Options())
	observedBy := make(map[uint32][]uint16) // values ascending: the records' key order
	for _, st := range os.Stats {
		asn := uint32(st.Comm.ASN())
		observedBy[asn] = append(observedBy[asn], st.Comm.Value())
	}

	shown := 0
	for _, asn := range c.DictASNs {
		entries := c.Dict.Entries(asn)
		hasAction, hasInfo := false, false
		for _, e := range entries {
			switch e.Category() {
			case dict.CatAction:
				hasAction = true
			case dict.CatInformation:
				hasInfo = true
			}
		}
		if !hasAction || !hasInfo {
			continue
		}
		plan := c.Topo.ASes[asn].Plan
		betas := observedBy[asn]
		var obsAction, obsInfo, obsUnknown int
		for _, b := range betas {
			switch c.Dict.Category(asn, b) {
			case dict.CatAction:
				obsAction++
			case dict.CatInformation:
				obsInfo++
			default:
				obsUnknown++
			}
		}
		blocks := ""
		for _, blk := range plan.Blocks {
			tag := "A"
			if blk.Category() == dict.CatInformation {
				tag = "I"
			}
			blocks += renderBlock(tag, blk.Lo, blk.Hi)
		}
		r.addf("AS%-6d dict-blocks:%s", asn, blocks)
		r.addf("          observed: action=%d info=%d unknown=%d (β %s)",
			obsAction, obsInfo, obsUnknown, renderSpan(betas))
		shown++
		if shown >= 30 { // the paper shows 30 ASes
			break
		}
	}
	r.Metrics["ases"] = float64(shown)
	return r
}

// Fig6 reproduces Figure 6: the CDF of on-path:off-path ratios of
// mixed baseline (regex) clusters per category, and the accuracy of a
// ratio threshold, optimal near 160:1.
func Fig6(c *corpus.Corpus) *Report {
	r := newReport("fig6", "CDF of on-path:off-path ratios of baseline clusters",
		"111 info and 72 action mixed clusters separate at ~160:1, yielding ~98% accuracy")
	os := core.Observe(c.Store, c.Options())
	clusters := BaselineClusters(os, c.Dict)

	var pureOn, pureOff, mixedInfo, mixedAction int
	var commPureOn, commPureOff, commMixed int
	infoCDF, actionCDF := &CDF{}, &CDF{}
	for _, cl := range clusters {
		switch {
		case cl.PureOnPath:
			pureOn++
			commPureOn += len(cl.Members)
		case cl.PureOffPath:
			pureOff++
			commPureOff += len(cl.Members)
		default:
			commMixed += len(cl.Members)
			if cl.Category() == dict.CatInformation {
				mixedInfo++
				infoCDF.Add(cl.Ratio)
			} else {
				mixedAction++
				actionCDF.Add(cl.Ratio)
			}
		}
	}
	r.addf("clusters=%d: pure-on-path=%d (comms %d), pure-off-path=%d (comms %d), mixed=%d (comms %d; info=%d action=%d)",
		len(clusters), pureOn, commPureOn, pureOff, commPureOff, mixedInfo+mixedAction, commMixed, mixedInfo, mixedAction)
	for _, q := range []float64{0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95} {
		r.addf("ratio q%02.0f: action=%-12.2f info=%.2f", q*100, actionCDF.Quantile(q), infoCDF.Quantile(q))
	}
	thresholds := logGrid(0.01, 100000, 41)
	scan := ScanRatioThreshold(clusters, thresholds)
	best := bestPoint(scan)
	at160 := accuracyAt(scan, 160)
	r.addf("threshold scan: best=%.1f:1 accuracy=%.3f; at 160:1 accuracy=%.3f", best.Threshold, best.Accuracy, at160)
	r.addf("info clusters with ratio >= 160: %.1f%%; action clusters: %.1f%%",
		100*(1-infoCDF.FractionBelow(160)), 100*(1-actionCDF.FractionBelow(160)))
	r.Metrics["best_threshold"] = best.Threshold
	r.Metrics["best_accuracy"] = best.Accuracy
	r.Metrics["accuracy_at_160"] = at160
	r.Metrics["mixed_info"] = float64(mixedInfo)
	r.Metrics["mixed_action"] = float64(mixedAction)
	return r
}

// Fig7 reproduces Figure 7: the customer:peer ratio CDFs of baseline
// clusters, whose best threshold (~5:1) is a much weaker separator
// (~80% accuracy).
func Fig7(c *corpus.Corpus) *Report {
	r := newReport("fig7", "CDF of customer:peer ratios of baseline clusters",
		"best threshold ~5:1 reaches only ~80% accuracy: not a useful feature")
	os := core.Observe(c.Store, c.Options())
	clusters := BaselineClusters(os, c.Dict)
	rels := asrel.Infer(c.Store.AllPaths())
	stats := core.CustomerPeer(c.Store, c.Options(), rels)
	cps := CustPeerClusters(clusters, stats)

	infoCDF, actionCDF := &CDF{}, &CDF{}
	for _, cp := range cps {
		if cp.Cluster.Category() == dict.CatInformation {
			infoCDF.Add(cp.Ratio)
		} else {
			actionCDF.Add(cp.Ratio)
		}
	}
	r.addf("clusters with evidence=%d (info=%d action=%d); inferred rel pairs=%d",
		len(cps), infoCDF.Len(), actionCDF.Len(), rels.Len())
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90} {
		r.addf("cust:peer q%02.0f: action=%-12.2f info=%.2f", q*100, actionCDF.Quantile(q), infoCDF.Quantile(q))
	}
	thresholds := logGrid(0.1, 1000, 31)
	scan := ScanCustPeerThreshold(cps, thresholds)
	best := bestPoint(scan)
	r.addf("threshold scan: best=%.1f:1 accuracy=%.3f (info if ratio below threshold)", best.Threshold, best.Accuracy)
	r.Metrics["best_threshold"] = best.Threshold
	r.Metrics["best_accuracy"] = best.Accuracy
	return r
}

// Fig9 reproduces Figure 9: inference accuracy across minimum-gap
// parameters, with gap 0 meaning no clustering.
func Fig9(c *corpus.Corpus, gaps []int) *Report {
	r := newReport("fig9", "Accuracy vs minimum gap between clusters",
		"no clustering 73.7%; gaps 100-250 yield >96%; the paper uses 140 (96.5%)")
	if len(gaps) == 0 {
		gaps = []int{0, 10, 20, 40, 70, 100, 140, 180, 250, 350, 500, 700, 1000, 1400, 2000}
	}
	opts := c.Options()
	os := core.Observe(c.Store, opts)
	var bestGap int
	bestAcc := -1.0
	for _, gap := range gaps {
		o := opts
		o.MinGap = gap
		inf := core.ClassifyObserved(os, o)
		conf := AgainstDictionary(inf, c.Dict)
		acc := conf.Accuracy()
		r.addf("gap=%-5d accuracy=%.3f (n=%d)", gap, acc, conf.Total())
		if acc > bestAcc {
			bestAcc, bestGap = acc, gap
		}
		if gap == 0 {
			r.Metrics["accuracy_no_clustering"] = acc
		}
		if gap == 140 {
			r.Metrics["accuracy_at_140"] = acc
		}
	}
	r.addf("best gap=%d accuracy=%.3f", bestGap, bestAcc)
	r.Metrics["best_gap"] = float64(bestGap)
	r.Metrics["best_accuracy"] = bestAcc
	return r
}

// Fig10 reproduces Figure 10: accuracy and coverage as randomly chosen
// vantage points accumulate, over the given trial count.
func Fig10(c *corpus.Corpus, counts []int, trials int, seed int64) *Report {
	r := newReport("fig10", "Accuracy/coverage vs number of vantage points",
		"median accuracy stabilizes above 93% by ~20 VPs, covering ~76.5% of communities")
	opts := c.Options()
	all := c.Store.VPSet()
	if len(counts) == 0 {
		counts = []int{1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 40, 60, 90, 130, len(all)}
	}

	// Full-data reference for coverage.
	fullInf := core.ClassifyObserved(core.Observe(c.Store, opts), opts)
	fullClassified := fullInf.Observed() - fullInf.ExcludedCount()
	r.addf("total VPs=%d, classified with all=%d", len(all), fullClassified)

	// Trials are independent given their sampled subsets, so each VP
	// count pre-draws every subset from the shared rng (keeping the
	// random sequence identical to the sequential run) and then fans the
	// trials out over one worker pool; per-trial results land in
	// trial-indexed slots and are reduced in trial order.
	rng := rand.New(rand.NewSource(seed))
	topts := opts
	topts.Workers = 1 // trials are the unit of parallelism; don't nest pools
	for _, n := range counts {
		if n > len(all) {
			n = len(all)
		}
		accs := &CDF{}
		covs := &CDF{}
		subsets := make([][]uint32, trials)
		for trial := range subsets {
			subsets[trial] = sampleVPs(rng, all, n)
		}
		type trialResult struct {
			acc    float64
			hasAcc bool
			cov    float64
		}
		results := make([]trialResult, trials)
		core.ParallelFor(opts.Workers, trials, func(trial int) {
			o := topts
			o.VPFilter = make(map[uint32]bool, n)
			for _, vp := range subsets[trial] {
				o.VPFilter[vp] = true
			}
			inf := core.ClassifyObserved(core.Observe(c.Store, o), o)
			conf := AgainstDictionary(inf, c.Dict)
			res := trialResult{cov: float64(inf.Observed()-inf.ExcludedCount()) / float64(max(fullClassified, 1))}
			if conf.Total() > 0 {
				res.acc = conf.Accuracy()
				res.hasAcc = true
			}
			results[trial] = res
		})
		for _, res := range results {
			if res.hasAcc {
				accs.Add(res.acc)
			}
			covs.Add(res.cov)
		}
		r.addf("vps=%-4d accuracy p10=%.3f p50=%.3f p90=%.3f coverage p50=%.3f",
			n, accs.Quantile(0.10), accs.Quantile(0.50), accs.Quantile(0.90), covs.Quantile(0.50))
		if n == 20 {
			r.Metrics["accuracy_p50_at_20"] = accs.Quantile(0.50)
			r.Metrics["coverage_p50_at_20"] = covs.Quantile(0.50)
		}
	}
	return r
}

// DaysSweep reproduces the §6 "benefits of additional days" analysis:
// accuracy as days of input accumulate.
func DaysSweep(cfg corpus.Config, maxDays int) (*Report, error) {
	r := newReport("days", "Accuracy vs days of input data",
		"accuracy stabilizes between 96.4% and 96.6% with two or more days")
	cfg.Days = 1
	c, err := corpus.Build(cfg)
	if err != nil {
		return nil, err
	}
	for day := 1; day <= maxDays; day++ {
		if day > 1 {
			c.LoadDay(day - 1)
		}
		inf := core.Classify(c.Store, c.Options())
		conf := AgainstDictionary(inf, c.Dict)
		r.addf("days=%d tuples=%-8d accuracy=%.3f classified=%d", day, c.Store.Len(), conf.Accuracy(), inf.Observed()-inf.ExcludedCount())
		if day == 1 {
			r.Metrics["accuracy_day1"] = conf.Accuracy()
		}
		r.Metrics["accuracy_final"] = conf.Accuracy()
	}
	return r, nil
}

// MonthsSweep reproduces the §6 longitudinal analysis: one day of data
// from each of the given number of consecutive months (topology epochs).
// Accuracy stays in a narrow band while the inferred-community count
// grows, mostly through new information communities.
func MonthsSweep(cfg corpus.Config, months int) (*Report, error) {
	r := newReport("months", "Accuracy over monthly snapshots",
		"accuracy 92.6%-95.4% over a year; inferred communities grow ~5%, mostly information")
	cfg.Days = 1
	var firstCount, lastCount int
	var firstInfo, lastInfo int
	minAcc, maxAcc := 1.0, 0.0
	for m := 0; m < months; m++ {
		cfg.Epoch = m
		c, err := corpus.Build(cfg)
		if err != nil {
			return nil, err
		}
		inf := core.Classify(c.Store, c.Options())
		conf := AgainstDictionary(inf, c.Dict)
		action, info := inf.Counts()
		acc := conf.Accuracy()
		r.addf("month=%-2d accuracy=%.3f classified=%d (action=%d info=%d)", m+1, acc, action+info, action, info)
		if m == 0 {
			firstCount, firstInfo = action+info, info
		}
		lastCount, lastInfo = action+info, info
		minAcc = math.Min(minAcc, acc)
		maxAcc = math.Max(maxAcc, acc)
	}
	growth := float64(lastCount-firstCount) / float64(max(firstCount, 1))
	r.addf("accuracy band [%.3f, %.3f]; classified growth %+.1f%% (information %+d, action %+d)",
		minAcc, maxAcc, 100*growth, lastInfo-firstInfo, (lastCount-lastInfo)-(firstCount-firstInfo))
	r.Metrics["min_accuracy"] = minAcc
	r.Metrics["max_accuracy"] = maxAcc
	r.Metrics["growth"] = growth
	r.Metrics["info_growth"] = float64(lastInfo - firstInfo)
	return r, nil
}

// Table1 reproduces Table 1: the location-community inference's
// precision before and after filtering with the intent classification.
func Table1(c *corpus.Corpus) *Report {
	r := newReport("tab1", "Location inference before/after intent filtering",
		"precision 68.2% -> 94.8%; traffic-engineering false positives drop 206 -> 12")
	locs := locinfer.Infer(c.Store, c.Topo, locinfer.DefaultConfig())
	intent := core.Classify(c.Store, c.Options())
	kept, dropped := locinfer.FilterWithIntent(locs, intent)

	type row struct{ geo, te, route, internal, other int }
	categorize := func(ls []locinfer.Inference) row {
		var out row
		for _, l := range ls {
			a := c.Topo.ASes[uint32(l.Comm.ASN())]
			if a == nil || a.Plan == nil {
				out.other++
				continue
			}
			d, ok := a.Plan.Lookup(l.Comm.Value())
			switch {
			case !ok:
				out.other++
			case d.Sub == dict.SubLocation:
				out.geo++
			case d.Category() == dict.CatAction:
				out.te++
			case d.Sub == dict.SubRelationship || d.Sub == dict.SubROV:
				out.route++
			case d.Sub == dict.SubOtherInfo:
				out.internal++
			default:
				out.internal++
			}
		}
		return out
	}
	before := categorize(locs)
	after := categorize(kept)
	precision := func(x row) float64 {
		total := x.geo + x.te + x.route + x.internal + x.other
		if total == 0 {
			return 0
		}
		return float64(x.geo) / float64(total)
	}
	r.addf("%-28s %8s %8s", "class/type", "before", "after")
	r.addf("%-28s %8d %8d", "Info/Geolocation", before.geo, after.geo)
	r.addf("%-28s %8d %8d", "Action/Traffic Engineering", before.te, after.te)
	r.addf("%-28s %8d %8d", "Info/Route Type", before.route, after.route)
	r.addf("%-28s %8d %8d", "Info/Internal-Other", before.internal+before.other, after.internal+after.other)
	r.addf("%-28s %8d %8d", "Total", len(locs), len(kept))
	r.addf("precision %.3f -> %.3f (dropped %d)", precision(before), precision(after), len(dropped))
	r.addf("(internal/other split before: other-info=%d uncategorized=%d)", before.internal, before.other)
	r.Metrics["precision_before"] = precision(before)
	r.Metrics["precision_after"] = precision(after)
	r.Metrics["te_before"] = float64(before.te)
	r.Metrics["te_after"] = float64(after.te)
	return r
}

// Ablations quantifies the design choices: cluster-mean vs pooled
// ratios, sibling awareness, and the exclusion rules, scored against the
// generator's full ground truth.
func Ablations(c *corpus.Corpus) *Report {
	r := newReport("ablation", "Design-choice ablations",
		"(no single paper number; §5.2 motivates each rule)")
	base := c.Options()
	variants := []struct {
		name, key string
		mod       func(core.Options) core.Options
	}{
		{"baseline (paper)", "accuracy_baseline", func(o core.Options) core.Options { return o }},
		{"pooled cluster ratio", "accuracy_pooled_ratio", func(o core.Options) core.Options { o.PooledRatio = true; return o }},
		{"no sibling awareness", "accuracy_no_siblings", func(o core.Options) core.Options { o.Orgs = nil; return o }},
		{"no exclusions", "accuracy_no_exclusions", func(o core.Options) core.Options { o.DisableExclusions = true; return o }},
	}
	for _, v := range variants {
		opts := v.mod(base)
		inf := core.Classify(c.Store, opts)
		conf := againstTruth(inf, c)
		r.addf("%-22s accuracy=%.3f scored=%d classified=%d excluded=%d",
			v.name, conf.Accuracy(), conf.Total(), inf.Observed()-inf.ExcludedCount(), inf.ExcludedCount())
		r.Metrics[v.key] = conf.Accuracy()
	}
	return r
}

// againstTruth scores against the generator's complete ground truth
// (every plan, including IXP route servers), not just the dictionary
// subset.
func againstTruth(inf *core.Inferences, c *corpus.Corpus) Confusion {
	var conf Confusion
	inf.EachLabeled(func(comm bgp.Community, got dict.Category) bool {
		if truth := c.TruthCategory(uint32(comm.ASN()), comm.Value()); truth != dict.CatUnknown {
			conf.Add(truth, got)
		}
		return true
	})
	return conf
}

// sampleVPs picks n distinct vantage points.
func sampleVPs(rng *rand.Rand, all []uint32, n int) []uint32 {
	if n >= len(all) {
		return all
	}
	idx := rng.Perm(len(all))[:n]
	out := make([]uint32, n)
	for i, j := range idx {
		out[i] = all[j]
	}
	return out
}

// logGrid returns n log-spaced thresholds in [lo, hi].
func logGrid(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(hi/lo, f)
	}
	return out
}

func bestPoint(scan []ThresholdPoint) ThresholdPoint {
	best := scan[0]
	for _, p := range scan[1:] {
		if p.Accuracy > best.Accuracy {
			best = p
		}
	}
	return best
}

func accuracyAt(scan []ThresholdPoint, threshold float64) float64 {
	bestDist := math.Inf(1)
	acc := 0.0
	for _, p := range scan {
		d := math.Abs(math.Log(p.Threshold) - math.Log(threshold))
		if d < bestDist {
			bestDist = d
			acc = p.Accuracy
		}
	}
	return acc
}

func renderBlock(tag string, lo, hi uint16) string {
	if lo == hi {
		return " " + tag + "[" + itoa(int(lo)) + "]"
	}
	return " " + tag + "[" + itoa(int(lo)) + "-" + itoa(int(hi)) + "]"
}

func renderSpan(betas []uint16) string {
	if len(betas) == 0 {
		return "none"
	}
	return itoa(int(betas[0])) + ".." + itoa(int(betas[len(betas)-1]))
}

func itoa(v int) string { return strconv.Itoa(v) }

// SeedSweep checks robustness of the headline result across independent
// corpora: the calibration must not be an artifact of one seed.
func SeedSweep(cfg corpus.Config, seeds []int64) (*Report, error) {
	r := newReport("seeds", "Headline accuracy across corpus seeds",
		"(robustness check; no paper counterpart — the paper has one Internet)")
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	minAcc, maxAcc := 1.0, 0.0
	for _, seed := range seeds {
		cfg.Seed = seed
		c, err := corpus.Build(cfg)
		if err != nil {
			return nil, err
		}
		inf := core.Classify(c.Store, c.Options())
		conf := AgainstDictionary(inf, c.Dict)
		action, info := inf.Counts()
		acc := conf.Accuracy()
		r.addf("seed=%-3d accuracy=%.3f scored=%d action=%d info=%d", seed, acc, conf.Total(), action, info)
		minAcc = math.Min(minAcc, acc)
		maxAcc = math.Max(maxAcc, acc)
	}
	r.addf("accuracy band [%.3f, %.3f] across %d seeds", minAcc, maxAcc, len(seeds))
	r.Metrics["min_accuracy"] = minAcc
	r.Metrics["max_accuracy"] = maxAcc
	return r, nil
}

// FineGrained runs the §7 future-work extension: refining information
// communities into location / relationship / ROV / other, scored against
// the generator's subcategory ground truth. The paper publishes no
// numbers for this step — it is the direction the coarse classification
// enables.
func FineGrained(c *corpus.Corpus) *Report {
	r := newReport("fine", "Fine-grained information sub-categories (§7 extension)",
		"(future work in the paper; no published numbers)")
	intent := core.Classify(c.Store, c.Options())
	rels := asrel.Infer(c.Store.AllPaths())
	res := finegrained.Classify(c.Store, intent, c.Topo, finegrained.ROVFunc(simulate.ROVState), rels, finegrained.DefaultConfig())

	kinds := []finegrained.Kind{finegrained.KindLocation, finegrained.KindRelationship, finegrained.KindROV, finegrained.KindOther}
	kindOf := func(sub dict.SubCategory) (finegrained.Kind, bool) {
		switch sub {
		case dict.SubLocation:
			return finegrained.KindLocation, true
		case dict.SubRelationship:
			return finegrained.KindRelationship, true
		case dict.SubROV:
			return finegrained.KindROV, true
		case dict.SubOtherInfo:
			return finegrained.KindOther, true
		}
		return finegrained.KindOther, false
	}
	// confusion[truth][inferred]
	confusion := make(map[finegrained.Kind]map[finegrained.Kind]int)
	for _, k := range kinds {
		confusion[k] = make(map[finegrained.Kind]int)
	}
	correct, total := 0, 0
	for comm, got := range res.Kinds {
		a := c.Topo.ASes[uint32(comm.ASN())]
		if a == nil || a.Plan == nil || a.Plan.ASN != uint32(comm.ASN()) {
			continue
		}
		d, ok := a.Plan.Lookup(comm.Value())
		if !ok {
			continue
		}
		want, ok := kindOf(d.Sub)
		if !ok {
			continue
		}
		confusion[want][got]++
		total++
		if got == want {
			correct++
		}
	}
	r.addf("%-14s %10s %13s %6s %11s", "truth \\ inferred", "location", "relationship", "rov", "other-info")
	for _, truth := range kinds {
		r.addf("%-14s %10d %13d %6d %11d", truth,
			confusion[truth][finegrained.KindLocation],
			confusion[truth][finegrained.KindRelationship],
			confusion[truth][finegrained.KindROV],
			confusion[truth][finegrained.KindOther])
	}
	acc := 0.0
	if total > 0 {
		acc = float64(correct) / float64(total)
	}
	r.addf("fine-grained accuracy=%.3f over %d information communities (chance over 4 kinds ~0.25)", acc, total)
	r.Metrics["accuracy"] = acc
	r.Metrics["scored"] = float64(total)
	return r
}
