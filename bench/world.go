package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bgpintent"
	"bgpintent/internal/asrel"
	"bgpintent/internal/corpus"
	"bgpintent/internal/ingest"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

// scale sizes the synthetic Internet behind every workload.
type scale struct {
	topo topology.Config
	sim  simulate.Config
}

const (
	// maxViews caps day 0 to its first maxViews views (prefix-major), so
	// the input size barely moves with the seed.
	maxViews = 150_000
	// dupPasses is how many times batch-dup re-announces day 0 as
	// BGP4MP updates on top of the RIB files.
	dupPasses = 4
	hotKeys   = 1024 // distinct GET keys in serve-hot
	bodies    = 2048 // distinct POST bodies in serve-annotate
	// warmup is the serving load driven before the measured window.
	warmup = time.Second
)

// fullScale is the benchmark's scale: the default ~1,300-AS topology
// seen from 100 vantage points, about 150k views and 140k unique tuples
// per simulated day. The default 180 vantage points would double every
// batch iteration and leave too few of them in a ten-second run.
func fullScale() scale {
	sc := scale{topo: topology.DefaultConfig(), sim: simulate.DefaultConfig()}
	sc.sim.VantagePoints = 100
	return sc
}

// tinyScale is the unit-test scale (corpus.TinyConfig's Internet).
func tinyScale() scale {
	return scale{topo: topology.TinyConfig(), sim: simulate.TinyConfig()}
}

// world is the synthetic Internet behind a run: topology, simulator,
// as2org map and (when a workload reads MRT) day 0's vantage-point views.
type world struct {
	sim  *simulate.Simulator
	orgs *asrel.OrgMap
	day  *simulate.DayResult
}

// buildWorld generates the topology and the simulator; withDay also
// propagates day 0, the expensive part. The AS graph and its community
// plans are the scale's own (one Internet); the seed draws what is
// observed of it: the vantage points, which origins tag which routes,
// the day's link failures, and so every view, path and tuple. Drawing a
// new graph per seed as well moved ns-per-tuple by +-8% between seeds,
// more than the host's own run-to-run noise, without exercising any
// code path differently.
func buildWorld(seed int64, sc scale, withDay bool) (*world, error) {
	tcfg, scfg := sc.topo, sc.sim
	scfg.Seed = seed
	topo, err := topology.Generate(tcfg)
	if err != nil {
		return nil, fmt.Errorf("generating topology: %w", err)
	}
	w := &world{sim: simulate.New(topo, scfg), orgs: corpus.OrgMapOf(topo, 0.9)}
	if withDay {
		w.day = w.sim.RunDay(0)
		if len(w.day.Views) > maxViews {
			w.day.Views = w.day.Views[:maxViews]
		}
	}
	return w, nil
}

// inputs are the files one batch pipeline run reads.
type inputs struct {
	ribs    []string
	updates []string
	orgPath string
}

func (in inputs) files() []ingest.InputFile {
	files := make([]ingest.InputFile, 0, len(in.ribs)+len(in.updates))
	for _, p := range in.ribs {
		files = append(files, ingest.InputFile{Path: p})
	}
	for _, p := range in.updates {
		files = append(files, ingest.InputFile{Path: p, Updates: true})
	}
	return files
}

func (in inputs) sources() bgpintent.Sources {
	return bgpintent.Sources{RIBs: in.ribs, Updates: in.updates, OrgPath: in.orgPath}
}

// mrtEpoch is the timestamp of the day-0 RIB dumps.
const mrtEpoch = 1714521600

// writeFile creates path and hands fill a buffered writer over it.
func writeFile(path string, fill func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// copyFile duplicates src at dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copying %s to %s: %w", src, dst, err)
	}
	return out.Close()
}

// writeInputs writes day 0 as one TABLE_DUMP_V2 RIB file per collector
// plus the as2org file, and passes rounds of BGP4MP update files that
// re-announce every route of the day: the duplicate-heavy stream real
// update archives are. The later rounds are byte copies of the first
// (the loader keys nothing on a record's timestamp), which keeps the
// set-up from encoding the same day four times.
func (w *world) writeInputs(dir string, passes int) (inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return inputs{}, err
	}
	in := inputs{orgPath: filepath.Join(dir, "as2org.txt")}
	err := writeFile(in.orgPath, func(wr io.Writer) error {
		_, err := w.orgs.WriteTo(wr)
		return err
	})
	if err != nil {
		return inputs{}, err
	}
	for col := 0; col < w.sim.Collectors(); col++ {
		col := col
		path := filepath.Join(dir, fmt.Sprintf("rc%02d.day0.rib.mrt", col))
		err := writeFile(path, func(wr io.Writer) error {
			return w.sim.WriteRIB(wr, mrtEpoch, col, w.day)
		})
		if err != nil {
			return inputs{}, err
		}
		in.ribs = append(in.ribs, path)
		for pass := 0; pass < passes; pass++ {
			path := filepath.Join(dir, fmt.Sprintf("rc%02d.day0.pass%d.updates.mrt", col, pass))
			if pass == 0 {
				err = writeFile(path, func(wr io.Writer) error {
					return w.sim.WriteUpdates(wr, mrtEpoch+3600, col, w.day, 1.0)
				})
			} else {
				err = copyFile(path, in.updates[len(in.updates)-pass])
			}
			if err != nil {
				return inputs{}, err
			}
			in.updates = append(in.updates, path)
		}
	}
	return in, nil
}

// pipelineRun is one pass of the batch pipeline as a user runs it: MRT
// paths in, flat snapshot and TSV bytes on disk.
type pipelineRun struct {
	load, classify, write, tsv time.Duration
	stats                      bgpintent.LoadStats
	tuples                     int
	corpus                     *bgpintent.Corpus
	result                     *bgpintent.Result
	snapPath, tsvPath          string
}

func (p *pipelineRun) wall() time.Duration { return p.load + p.classify + p.write + p.tsv }

// snapshotCreated pins the provenance timestamp so snapshot bytes are
// comparable across iterations.
var snapshotCreated = time.Unix(mrtEpoch, 0).UTC()

// runPipeline loads in, classifies with the paper's parameters and
// writes outDir/snapshot.bin and outDir/inferences.tsv through the
// facade, timing the calls apart. observer, when set, is attached to
// the load and the classification. Spans hang under parent.
func runPipeline(ctx context.Context, in inputs, outDir string, parallelism int, observer bgpintent.Observer, rec *recorder, iter, parent int) (*pipelineRun, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	p := &pipelineRun{
		snapPath: filepath.Join(outDir, "snapshot.bin"),
		tsvPath:  filepath.Join(outDir, "inferences.tsv"),
	}
	var err error
	p.load, err = rec.timed("bgpintent.LoadMRT", iter, parent, func() error {
		var err error
		p.corpus, p.stats, err = bgpintent.LoadMRT(ctx, in.sources(), bgpintent.LoadOptions{Parallelism: parallelism, Observer: observer})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("LoadMRT: %w", err)
	}
	p.tuples = p.corpus.Tuples()
	params := bgpintent.DefaultParams()
	params.Parallelism = parallelism
	params.Observer = observer
	p.classify, err = rec.timed("bgpintent.ClassifyContext", iter, parent, func() error {
		var err error
		p.result, err = p.corpus.ClassifyContext(ctx, params)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ClassifyContext: %w", err)
	}
	p.write, err = rec.timed("bgpintent.WriteSnapshotFlat", iter, parent, func() error {
		info := p.corpus.SnapshotInfo("bgpbench")
		info.Created = snapshotCreated
		return writeFile(p.snapPath, func(w io.Writer) error { return p.result.WriteSnapshotFlat(w, info) })
	})
	if err != nil {
		return nil, err
	}
	p.tsv, err = rec.timed("bgpintent.WriteTSV", iter, parent, func() error {
		return writeFile(p.tsvPath, p.result.WriteTSV)
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// fileSHA256 hashes a file's bytes.
func fileSHA256(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// outputHashes are the SHA-256 of one pipeline run's two output files.
type outputHashes struct{ snap, tsv [sha256.Size]byte }

func (p *pipelineRun) hashes() (outputHashes, error) {
	var h outputHashes
	var err error
	if h.snap, err = fileSHA256(p.snapPath); err != nil {
		return h, err
	}
	h.tsv, err = fileSHA256(p.tsvPath)
	return h, err
}
