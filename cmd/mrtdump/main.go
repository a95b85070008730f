// Command mrtdump inspects MRT files (TABLE_DUMP_V2 and BGP4MP), in the
// spirit of bgpdump. Without -v it prints per-type record counts; with
// -v it prints one line per route.
//
// Records decode through the decoders LoadMRT uses, so a file's counts
// are the ones LoadMRT's LoadStats sums for it. Decoding is lenient by
// default: undecodable records and RIB entries naming no known peer are
// skipped, corrupt framing is resynchronized over, and each file's
// summary lists its skips by reason. The exit code is nonzero when any
// record could not be decoded. -strict restores fail-fast behavior with
// offset-bearing errors; -stats prints full decode and framing
// statistics per file.
//
// Usage:
//
//	mrtdump [-v] [-strict] [-stats] file.mrt...
//	zcat rib.mrt.gz | mrtdump -v -
//
// "-" reads MRT from stdin; gzip and bzip2 streams are recognized by
// their magic bytes, so compressed archives pipe straight in.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"bgpintent/internal/ingest"
	"bgpintent/internal/mrt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mrtdump: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

type options struct {
	verbose bool
	strict  bool
	stats   bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mrtdump", flag.ContinueOnError)
	var opts options
	fs.BoolVar(&opts.verbose, "v", false, "print each route")
	fs.BoolVar(&opts.strict, "strict", false, "fail on the first malformed record")
	fs.BoolVar(&opts.stats, "stats", false, "print decode and framing statistics per file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: mrtdump [-v] [-strict] [-stats] file.mrt|-...")
	}
	totalBad := 0
	for _, path := range fs.Args() {
		st, err := dump(stdout, path, opts)
		if err != nil {
			return err
		}
		totalBad += st.Skipped + st.Resyncs + st.Truncated
	}
	if totalBad > 0 {
		return fmt.Errorf("%d undecodable records skipped", totalBad)
	}
	return nil
}

// stdin is swapped by tests.
var stdin io.Reader = os.Stdin

// dump prints one file ("-" means stdin, with gzip/bzip2 sniffed from
// the magic bytes) and returns its decode statistics: for a file of one
// kind, what LoadMRT counts for it.
func dump(stdout io.Writer, path string, opts options) (mrt.Stats, error) {
	var f io.Reader
	if path == "-" {
		r, err := ingest.OpenReader(stdin)
		if err != nil {
			return mrt.Stats{}, fmt.Errorf("stdin: %w", err)
		}
		f, path = r, "stdin"
	} else {
		rc, err := ingest.Open(path)
		if err != nil {
			return mrt.Stats{}, err
		}
		defer rc.Close()
		f = rc
	}

	var stats mrt.Stats
	so := mrt.ScanOptions{Lenient: !opts.strict, Stats: &stats}
	r := so.Reader(f)
	ribs := &mrt.RIBDecoder{Lenient: !opts.strict}
	updates := &mrt.UpdateDecoder{Lenient: !opts.strict}
	printRIB := func(v *mrt.RIBView) {
		if opts.verbose {
			fmt.Fprintln(stdout, ribLine(v))
		}
	}
	printUpdate := func(v *mrt.UpdateView) {
		if opts.verbose {
			fmt.Fprintln(stdout, updateLine(v))
		}
	}
	counts := make(map[string]int)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, fmt.Errorf("%s: %w", path, err)
		}
		counts[mrt.RecordName(rec.Type, rec.Subtype)]++
		if rec.Type == mrt.TypeBGP4MP || rec.Type == mrt.TypeBGP4MPET {
			err = decode(r, rec, &stats, updates, printUpdate)
		} else {
			table := ribs.Table
			err = decode(r, rec, &stats, ribs, printRIB)
			if t := ribs.Table; t != table && opts.verbose {
				fmt.Fprintf(stdout, "PEER_INDEX_TABLE collector=%v view=%q peers=%d\n",
					t.CollectorBGPID, t.ViewName, len(t.Peers))
			}
		}
		if err != nil {
			return stats, fmt.Errorf("%s: %w", path, err)
		}
	}

	fmt.Fprintf(stdout, "%s:\n", path)
	for _, k := range sortedKeys(counts) {
		fmt.Fprintf(stdout, "  %-40s %d\n", k, counts[k])
	}
	if len(stats.SkipReasons) > 0 {
		fmt.Fprintf(stdout, "  skipped undecodable records:\n")
		for _, k := range sortedKeys(stats.SkipReasons) {
			fmt.Fprintf(stdout, "    %-38s %d\n", k, stats.SkipReasons[k])
		}
	}
	if opts.stats {
		fmt.Fprintf(stdout, "  decode: %d decoded, %d skipped, %d unknown-type\n",
			stats.Decoded, stats.Skipped, stats.UnknownCount())
		fmt.Fprintf(stdout, "  framing: %d records, %d bytes read, %d resyncs, %d bytes skipped, %d truncated tails\n",
			stats.Records, stats.BytesRead, stats.Resyncs, stats.BytesSkipped, stats.Truncated)
	}
	return stats, nil
}

// decode runs one record through dec, the decoder LoadMRT uses for its
// kind, and passes each view to fn. A record a lenient
// decoder skips is handed back to r: undecodable bodies may hide
// misframed records.
func decode[V any](r *mrt.Reader, rec *mrt.Record, stats *mrt.Stats, dec mrt.Decoder[V], fn func(*V)) error {
	skip, err := dec.Decode(rec, stats)
	if skip != "" {
		r.Reject(rec)
		return nil
	}
	for err == nil {
		var v *V
		if v, err = dec.Next(stats); v != nil {
			fn(v)
		}
	}
	if err == io.EOF {
		return nil
	}
	return err
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ribLine and updateLine render a view as -v prints it.
func ribLine(v *mrt.RIBView) string {
	return fmt.Sprintf("RIB %v peer=AS%d path=[%s] comms=[%s]",
		v.Prefix, v.Peer.ASN, v.Entry.Attrs.ASPath, v.Entry.Attrs.Communities)
}

func updateLine(v *mrt.UpdateView) string {
	upd := v.Update
	out := fmt.Sprintf("UPDATE t=%d peer=AS%d ", v.Timestamp, v.PeerAS)
	if len(upd.Withdrawn) > 0 {
		out += fmt.Sprintf("withdraw=%v ", upd.Withdrawn)
	}
	if len(upd.NLRI) > 0 || upd.Attrs.MPReach {
		out += fmt.Sprintf("announce=%v ", upd.NLRI)
		if upd.Attrs.MPReach {
			out += "mp_reach "
		}
		out += fmt.Sprintf("path=[%s] comms=[%s]", upd.Attrs.ASPath, upd.Attrs.Communities)
	}
	return out
}
