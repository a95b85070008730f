package core

import (
	"context"
	"slices"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
	"bgpintent/internal/obs"
)

// Options configure the classifier. The defaults are the paper's
// operating point (§5.2, Fig. 9): a minimum gap of 140 between clusters
// and an on-path:off-path ratio threshold of 160:1.
type Options struct {
	// MinGap is the maximum distance between adjacent β values inside one
	// cluster; 0 disables clustering (each community considered alone).
	MinGap int

	// RatioThreshold is the on-path:off-path ratio at or above which a
	// mixed cluster is labeled information.
	RatioThreshold float64

	// Orgs enables sibling-aware on-path matching (as2org): a path is
	// on-path for α when α or an AS of α's organization is on it. It is
	// the only sibling input — the evidence walk resolves each ASN's
	// organization through it; nil disables sibling awareness.
	Orgs OrgMapper

	// VPFilter restricts the dataset to tuples observed by these vantage
	// points; nil means all.
	VPFilter map[uint32]bool

	// DisableExclusions classifies private-ASN and never-on-path
	// communities anyway (ablation).
	DisableExclusions bool

	// PooledRatio computes a cluster's ratio as sum(on)/sum(off) instead
	// of the paper's mean of per-community ratios (ablation).
	PooledRatio bool

	// Workers bounds the classifier's parallelism: 0 means one worker
	// per CPU (GOMAXPROCS), 1 forces sequential execution. Results are
	// identical for every worker count.
	Workers int

	// Tracer receives per-stage spans (observe, cluster, ratio,
	// classify) and carries the pprof stage labels; nil disables
	// telemetry but keeps the labels.
	Tracer *obs.Tracer
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{MinGap: 140, RatioThreshold: 160}
}

// ExcludeReason says why a community was left unclassified (§5.2).
type ExcludeReason int8

const (
	// ExcludeNone: the community was not excluded.
	ExcludeNone ExcludeReason = iota
	// ExcludePrivateASN: α is in a private-use or reserved ASN range, so
	// no public AS can be identified.
	ExcludePrivateASN
	// ExcludeNeverOnPath: neither α nor any sibling appears in any AS
	// path (IXP route servers and other transparent taggers).
	ExcludeNeverOnPath
	// ExcludeUnobserved is never written to a lookup record: Verdict
	// reports it for communities absent from the corpus.
	ExcludeUnobserved
)

// String names the reason for reports.
func (r ExcludeReason) String() string {
	switch r {
	case ExcludePrivateASN:
		return "private-asn"
	case ExcludeNeverOnPath:
		return "never-on-path"
	case ExcludeUnobserved:
		return "unobserved"
	default:
		return "none"
	}
}

// Key is the community-key contract: what the cluster → label → index →
// snapshot → verdict path needs from a community, and all it needs. The
// §5 method is one rule over one kind of key — group by signalling AS,
// split at value gaps, label by on-path:off-path ratio — so every step
// is written once, generic over K; bgp.Community (RFC 1997) and
// bgp.LargeCommunity (RFC 8092) both satisfy it.
type Key[K any] interface {
	comparable
	// Admin is α, the AS that assigns the community its meaning: the one
	// looked for on AS paths, and the subject of both exclusions.
	Admin() uint32
	// Fn selects, together with α, the clustering group: the gap rule
	// only ever runs over the values of one (α, fn). Classic communities
	// have no selector and report 0.
	Fn() uint32
	// Local is the 32-bit value clusters are ranges of.
	Local() uint32
	// IsPrivateASN reports an α that identifies no network (§5.2).
	IsPrivateASN() bool
	// Compare orders keys by (Admin, Fn, Local): the order of the
	// snapshot's lookup records.
	Compare(K) int
}

// Stats holds a community's unique-path observation counts.
type Stats[K Key[K]] struct {
	Comm    K
	OnPath  int // unique AS paths containing α (or a sibling)
	OffPath int // unique AS paths not containing it
}

// Ratio is the on-path:off-path ratio; with no off-path observations the
// denominator is clamped to one so the ratio stays finite (the paper
// handles never-off-path clusters by rule before ratios are consulted).
func (s Stats[K]) Ratio() float64 {
	return float64(s.OnPath) / float64(max(s.OffPath, 1))
}

// ObservationSet is the per-community measurement the classifier (and
// the evaluation's baseline-cluster analyses) build on: one record per
// observed community, strictly in Compare order, which ClassifyObserved
// cuts into (α, fn) groups and clusters without sorting again.
type ObservationSet struct {
	Stats []Stats[bgp.Community]

	// Larges is the large-community counterpart; nil when the corpus
	// carries no large communities on any tuple.
	Larges []Stats[bgp.LargeCommunity]

	seenASNs []uint32 // every ASN on an observed path, sorted
	seenOrgs []string // their organizations under orgs, sorted
	orgs     OrgMapper
}

// AlphaOnPath reports whether α (or an org sibling) appears in any AS
// path of the observed dataset.
func (os *ObservationSet) AlphaOnPath(alpha uint32) bool {
	if _, ok := slices.BinarySearch(os.seenASNs, alpha); ok || os.orgs == nil {
		return ok
	}
	org, ok := os.orgs.Org(alpha)
	_, on := slices.BinarySearch(os.seenOrgs, org)
	return ok && on
}

// minParallelTuples is the tuple count below which Observe stays
// sequential; tiny inputs are not worth goroutine startup.
const minParallelTuples = 4096

// cancelCheckStride is how many loop iterations the classifier's inner
// loops run between cancellation probes: frequent enough that an abort
// is noticed within microseconds, rare enough to cost nothing.
const cancelCheckStride = 4096

// Observe computes per-community on/off-path statistics over unique AS
// paths, honoring the VP filter and sibling awareness in opts. With
// opts.Workers != 1 the path-grouped walk is partitioned across a
// worker pool; results are identical for every worker count.
func Observe(ts *TupleStore, opts Options) *ObservationSet {
	os, _ := ObserveContext(context.Background(), ts, opts)
	return os
}

// ObserveContext is Observe with cancellation and stage telemetry: the
// whole computation runs under a StageObserve span/pprof label, and a
// canceled ctx aborts between work chunks (bounded latency, no
// goroutine leaks — every worker is joined before return). On
// cancellation the returned set is nil and the error is ctx.Err().
func ObserveContext(ctx context.Context, ts *TupleStore, opts Options) (*ObservationSet, error) {
	workers := ResolveWorkers(opts.Workers)
	if ts.Len() < minParallelTuples {
		workers = 1
	}
	var os *ObservationSet
	err := opts.Tracer.Stage(ctx, obs.StageObserve, "", func(s *obs.Span) {
		s.Tuples = int64(ts.Len())
		if os != nil {
			s.Records = int64(len(os.Stats) + len(os.Larges))
		}
	}, func(ctx context.Context) error {
		var err error
		os, err = observeWith(ctx, ts, opts, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	return os, nil
}

// Classify runs the full §5.2 pipeline: observe, exclude, cluster per
// AS, label clusters by on-path:off-path ratio, and apply the labels to
// communities.
func Classify(ts *TupleStore, opts Options) *Inferences {
	inf, _ := ClassifyContext(context.Background(), ts, opts)
	return inf
}

// ClassifyContext is Classify with cancellation and stage telemetry:
// the observe/cluster/ratio/classify stages each run under their span
// and pprof label, and a canceled ctx aborts promptly with ctx.Err()
// (nil Inferences), with every worker goroutine joined before return.
func ClassifyContext(ctx context.Context, ts *TupleStore, opts Options) (*Inferences, error) {
	os, err := ObserveContext(ctx, ts, opts)
	if err != nil {
		return nil, err
	}
	return ClassifyObservedContext(ctx, os, opts)
}

// ClassifyDelta is ClassifyContext: prev and dirty are ignored. A full
// pass measured the same as the dirty-α merge this name once ran, and
// unlike it classifies with org siblings and large communities.
func ClassifyDelta(ctx context.Context, ts *TupleStore, opts Options, prev *Inferences, dirty map[uint16]bool) (*Inferences, error) {
	return ClassifyContext(ctx, ts, opts)
}

// ClassifyObserved runs the pipeline on precomputed observations, so
// parameter sweeps (e.g. the Fig. 9 gap sweep) do not recount paths.
// The opts must use the same VPFilter and Orgs the observations were
// built with.
func ClassifyObserved(os *ObservationSet, opts Options) *Inferences {
	inf, _ := ClassifyObservedContext(context.Background(), os, opts)
	return inf
}

// ClassifyObservedContext is ClassifyObserved with cancellation and
// per-stage telemetry. The three stages match the paper's structure:
// cluster (group each (α, fn)'s values by the gap rule, applying
// exclusions), ratio (purity/ratio evidence labels each cluster),
// classify (apply labels to members, writing the snapshot sections the
// inferences are). Each stage runs both kinds of key through the same
// code, on the calling goroutine: together they are about a millisecond
// of a classification.
func ClassifyObservedContext(ctx context.Context, os *ObservationSet, opts Options) (*Inferences, error) {
	inf := &Inferences{kindView: kindView[bgp.Community]{lay: &classicLayout}, large: kindView[bgp.LargeCommunity]{lay: &largeLayout}}
	kinds := []kindStages{
		&kindPass[bgp.Community]{out: &inf.kindView, sorted: os.Stats, os: os, opts: opts},
		&kindPass[bgp.LargeCommunity]{out: &inf.large, sorted: os.Larges, os: os, opts: opts},
	}
	for _, st := range []struct {
		stage obs.Stage
		run   func(kindStages, context.Context) (records int)
	}{
		{obs.StageCluster, kindStages.cluster},
		{obs.StageRatio, kindStages.ratio},
		{obs.StageClassify, kindStages.classify},
	} {
		var records int
		err := opts.Tracer.Stage(ctx, st.stage, "", func(s *obs.Span) {
			s.Records = int64(records)
		}, func(ctx context.Context) error {
			for _, k := range kinds {
				records += st.run(k, ctx)
			}
			return ctx.Err()
		})
		if err != nil {
			return nil, err
		}
	}
	putOptions(inf.stats, opts)
	return inf, nil
}

// kindStages is one kind of key's way through the three stages. Each
// returns its record count for the stage span (communities grouped,
// clusters labeled, communities classified) and gives up early when ctx
// is canceled, which the stage then reports.
type kindStages interface {
	cluster(ctx context.Context) int
	ratio(ctx context.Context) int
	classify(ctx context.Context) int
}

// kindPass is the kindStages of one key type: the view being written,
// the evidence it is written from — every observed community in key
// order — and the runs one stage cuts it into for the next.
type kindPass[K Key[K]] struct {
	out    *kindView[K]
	sorted []Stats[K]
	os     *ObservationSet
	opts   Options

	runs []run
}

// run is a stretch of a kindPass's sorted communities, ending before
// sorted[end]: one cluster, or one (α, fn) group left unclassified.
type run struct {
	end    int
	reason ExcludeReason // ExcludeNone for a cluster
	ClusterSummary
}

// cluster cuts the observed communities, whose key order groups them by
// (α, fn) with each group's values ascending, into clusters by the gap
// rule — every group, or into one excluded run.
func (p *kindPass[K]) cluster(ctx context.Context) int {
	done := ctx.Done()
	var values []uint32
	for start, n := 0, 0; start < len(p.sorted); n++ {
		if n%cancelCheckStride == 0 && chClosed(done) {
			break
		}
		first := p.sorted[start].Comm
		alpha, fn := first.Admin(), first.Fn()
		end := start + 1
		for end < len(p.sorted) && p.sorted[end].Comm.Admin() == alpha && p.sorted[end].Comm.Fn() == fn {
			end++
		}
		if !p.opts.DisableExclusions {
			var reason ExcludeReason
			switch {
			case first.IsPrivateASN():
				reason = ExcludePrivateASN
			case !p.os.AlphaOnPath(alpha):
				reason = ExcludeNeverOnPath
			}
			if reason != ExcludeNone {
				p.runs = append(p.runs, run{end: end, reason: reason})
				start = end
				continue
			}
		}

		values = values[:0]
		for _, m := range p.sorted[start:end] {
			values = append(values, m.Comm.Local())
		}
		for _, idx := range clusterIndexes(values, p.opts.MinGap) {
			p.runs = append(p.runs, run{end: start + idx[1],
				ClusterSummary: ClusterSummary{Alpha: alpha, Fn: fn, Lo: values[idx[0]], Hi: values[idx[1]-1]}})
		}
		start = end
	}
	return len(p.sorted)
}

// ratio labels every cluster from its members' evidence. A canceled run
// leaves clusters unlabeled; the stage reports ctx.Err().
func (p *kindPass[K]) ratio(ctx context.Context) (clusters int) {
	done := ctx.Done()
	start := 0
	for i := range p.runs {
		r := &p.runs[i]
		if r.reason == ExcludeNone {
			if clusters%cancelCheckStride == 0 && chClosed(done) {
				break
			}
			labelCluster(&r.ClusterSummary, p.sorted[start:r.end], p.opts)
			clusters++
		}
		start = r.end
	}
	return clusters
}

// classify applies the cluster labels to the member communities: one
// walk of the runs writes the kind's four sections — cluster records in
// (α, fn, lo) order, their members, and one lookup record per observed
// community, classified or excluded, already in key order — into one
// buffer the view then reads.
func (p *kindPass[K]) classify(ctx context.Context) (classified int) {
	l, done := p.out.lay, ctx.Done()
	nClusters, start := 0, 0
	for _, r := range p.runs {
		if r.reason == ExcludeNone {
			nClusters++
			classified += r.end - start
		}
		start = r.end
	}
	buf := make([]byte, l.statsLen+nClusters*l.clusterLen+(classified+len(p.sorted))*l.recLen)
	cut := func(n int) []byte {
		b := buf[:n:n]
		buf = buf[n:]
		return b
	}
	stats, clusters := cut(l.statsLen), cut(nClusters*l.clusterLen)
	members, lookup := cut(classified*l.recLen), cut(len(p.sorted)*l.recLen)

	var action, information, ci, mi int
	start = 0
	for n := range p.runs {
		if n%cancelCheckStride == 0 && chClosed(done) {
			break
		}
		r := &p.runs[n]
		cluster := -int32(r.reason)
		if r.reason == ExcludeNone {
			cluster = int32(ci)
			l.putCluster(clusters[ci*l.clusterLen:][:l.clusterLen], &r.ClusterSummary, mi)
			for i := start; i < r.end; i++ {
				l.putStats(members[mi*l.recLen:][:l.recLen], &p.sorted[i])
				mi++
			}
			switch r.Label {
			case dict.CatAction:
				action += r.Size
			case dict.CatInformation:
				information += r.Size
			}
			ci++
		}
		for i := start; i < r.end; i++ {
			rec := lookup[i*l.recLen:][:l.recLen]
			l.putStats(rec, &p.sorted[i])
			le.PutUint32(rec[l.countsAt-4:], uint32(cluster))
		}
		start = r.end
	}
	le.PutUint64(stats[l.countersAt:], uint64(action))
	le.PutUint64(stats[l.countersAt+8:], uint64(information))
	le.PutUint64(stats[l.countersAt+16:], uint64(len(p.sorted)))
	p.out.stats, p.out.clusters, p.out.members, p.out.lookup = stats, clusters, members, lookup
	return classified
}

// clusterIndexes splits a sorted value list into [start, end) cluster
// index pairs using the minimum-gap rule. The gap semantics are the
// same at every width, so a classic corpus mirrored into α:fn:β
// clusters the same way.
func clusterIndexes[T uint16 | uint32](vals []T, minGap int) [][2]int {
	var out [][2]int
	start := 0
	for i := 1; i <= len(vals); i++ {
		if i == len(vals) || int(vals[i])-int(vals[i-1]) > minGap {
			out = append(out, [2]int{start, i})
			start = i
		}
	}
	return out
}

// labelCluster applies the §5.2 decision rule to a cluster of members:
// never off-path or ratio at/above threshold -> information; always
// off-path or ratio below -> action. The mixed-cluster ratio is the mean
// of the member ratios (or the pooled ratio under the ablation option).
// The one walk over the members also leaves the summary's Size and
// summed evidence behind, so no query adds them up again.
func labelCluster[K Key[K]](cl *ClusterSummary, members []Stats[K], opts Options) {
	var on, off int
	ratioSum := 0.0
	for _, m := range members {
		on += m.OnPath
		off += m.OffPath
		ratioSum += m.Ratio()
	}
	cl.Size, cl.OnPath, cl.OffPath = len(members), int64(on), int64(off)
	cl.PureOnPath, cl.PureOffPath = off == 0, on == 0
	if opts.PooledRatio {
		cl.Ratio = float64(on) / float64(max(off, 1))
	} else {
		cl.Ratio = ratioSum / float64(len(members))
	}
	switch {
	case cl.PureOnPath:
		cl.Label = dict.CatInformation
	case cl.PureOffPath:
		cl.Label = dict.CatAction
	case cl.Ratio >= opts.RatioThreshold:
		cl.Label = dict.CatInformation
	default:
		cl.Label = dict.CatAction
	}
}

func anyVP(vps []uint32, filter map[uint32]bool) bool {
	for _, vp := range vps {
		if filter[vp] {
			return true
		}
	}
	return false
}

func containsASN(asns []uint32, asn uint32) bool {
	for _, a := range asns {
		if a == asn {
			return true
		}
	}
	return false
}

func containsOrg(orgs []string, org string) bool {
	for _, o := range orgs {
		if o == org {
			return true
		}
	}
	return false
}
