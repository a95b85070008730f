// Command gencorpus generates a synthetic BGP corpus: MRT RIB and
// updates files per collector and day, the as2org sibling file, the
// ground-truth community dictionary, and the CAIDA-format AS
// relationship ground truth. The output substitutes for a week of
// RouteViews/RIPE RIS data (see DESIGN.md §2).
//
// Usage:
//
//	gencorpus -out corpus/ [-scale tiny|default] [-seed N] [-days N] [-large-matrix|-no-large]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"bgpintent/internal/asrel"
	"bgpintent/internal/corpus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gencorpus: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gencorpus", flag.ContinueOnError)
	var (
		out     = fs.String("out", "corpus", "output directory")
		scale   = fs.String("scale", "default", "corpus scale: tiny, default or large")
		seed    = fs.Int64("seed", 1, "generation seed")
		days    = fs.Int("days", 7, "days of data to emit")
		matrix  = fs.Bool("large-matrix", false, "mirror every origin-attached community as a large community (arouteserver-style std/lrg matrix ground truth)")
		noLarge = fs.Bool("no-large", false, "emit a classic-only corpus: no large-community mirroring at all")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *matrix && *noLarge {
		return fmt.Errorf("-large-matrix and -no-large are mutually exclusive")
	}

	cfg := corpus.DefaultConfig()
	switch *scale {
	case "tiny":
		cfg = corpus.TinyConfig()
	case "large":
		cfg.Scale = corpus.ScaleLarge
	case "default":
	default:
		return fmt.Errorf("unknown -scale %q", *scale)
	}
	cfg.Seed = *seed
	cfg.LargeMatrix = *matrix
	cfg.NoLargeComms = *noLarge
	cfg.Days = 0 // days are simulated below, one file set at a time

	c, err := corpus.Build(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	stats := c.Topo.Stats()
	fmt.Fprintf(stdout, "topology: %d ASes (%d/%d/%d/%d per tier), %d p2c, %d p2p, %d IXPs\n",
		stats.ASes, stats.Tier1, stats.Tier2, stats.Tier3, stats.Stubs,
		stats.P2CLinks, stats.P2PLinks, stats.IXPs)
	fmt.Fprintf(stdout, "plans: %d ASes define %d communities (%d action, %d info)\n",
		stats.PlansDefined, stats.TotalCommunityDefs, stats.ActionDefs, stats.InfoDefs)
	fmt.Fprintf(stdout, "vantage points: %d across %d collectors\n", len(c.Sim.VPs()), c.Sim.Collectors())

	const t0 = 1714521600 // 2024-05-01 00:00 UTC, like the paper's week
	for day := 0; day < *days; day++ {
		res := c.Sim.RunDay(day)
		ts := uint32(t0 + day*86400)
		for col := 0; col < c.Sim.Collectors(); col++ {
			ribPath := filepath.Join(*out, fmt.Sprintf("rc%02d.day%d.rib.mrt", col, day))
			if err := writeFile(ribPath, func(f *os.File) error {
				return c.Sim.WriteRIB(f, ts, col, res)
			}); err != nil {
				return err
			}
			updPath := filepath.Join(*out, fmt.Sprintf("rc%02d.day%d.updates.mrt", col, day))
			if err := writeFile(updPath, func(f *os.File) error {
				return c.Sim.WriteUpdates(f, ts+3600, col, res, 0.2)
			}); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "day %d: %d views\n", day, len(res.Views))
	}

	if err := writeFile(filepath.Join(*out, "as2org.txt"), func(f *os.File) error {
		_, err := c.Orgs.WriteTo(f)
		return err
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(*out, "dictionary.txt"), func(f *os.File) error {
		_, err := c.Dict.WriteTo(f)
		return err
	}); err != nil {
		return err
	}
	// Ground-truth relationships in CAIDA format, for validating the
	// bundled Gao inference.
	g := asrel.NewGraph()
	for asn, a := range c.Topo.ASes {
		for _, cust := range a.Customers {
			g.SetP2C(asn, cust)
		}
		for _, peer := range a.Peers {
			g.SetP2P(asn, peer)
		}
	}
	if err := writeFile(filepath.Join(*out, "asrel.txt"), func(f *os.File) error {
		_, err := g.WriteTo(f)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote corpus to %s\n", *out)
	return nil
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
