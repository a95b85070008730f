// Command mrtdump inspects MRT files (TABLE_DUMP_V2 and BGP4MP), in the
// spirit of bgpdump. Without -v it prints per-type record counts; with
// -v it prints one line per route.
//
// Decoding is lenient by default: undecodable records are skipped and
// corrupt framing is resynchronized over, and after all files a
// per-type skip summary is printed. The exit code is nonzero when any
// record could not be decoded. -strict restores fail-fast behavior with
// offset-bearing errors; -stats prints full framing statistics per
// file.
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

	"bgpintent/internal/bgp"
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
	fs.BoolVar(&opts.stats, "stats", false, "print framing statistics per file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: mrtdump [-v] [-strict] [-stats] file.mrt|-...")
	}
	totalBad := 0
	for _, path := range fs.Args() {
		bad, err := dump(stdout, path, opts)
		if err != nil {
			return err
		}
		totalBad += bad
	}
	if totalBad > 0 {
		return fmt.Errorf("%d undecodable records skipped", totalBad)
	}
	return nil
}

// stdin is swapped by tests.
var stdin io.Reader = os.Stdin

// dump prints one file ("-" means stdin, with gzip/bzip2 sniffed from
// the magic bytes) and returns how many records failed to decode.
func dump(stdout io.Writer, path string, opts options) (int, error) {
	var f io.Reader
	if path == "-" {
		r, err := ingest.OpenReader(stdin)
		if err != nil {
			return 0, fmt.Errorf("stdin: %w", err)
		}
		f, path = r, "stdin"
	} else {
		rc, err := ingest.Open(path)
		if err != nil {
			return 0, err
		}
		defer rc.Close()
		f = rc
	}

	var stats mrt.Stats
	var r *mrt.Reader
	if opts.strict {
		r = mrt.NewReader(f)
	} else {
		r = mrt.NewLenientReader(f, &stats)
	}
	counts := make(map[string]int)
	skips := make(map[string]int)
	var peers *mrt.PeerIndexTable
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		key, derr := dumpRecord(stdout, rec, &peers, opts.verbose)
		counts[key]++
		if derr != nil {
			if opts.strict {
				return 0, fmt.Errorf("%s: record at offset %d: %w", path, rec.Offset, derr)
			}
			skips[key]++
			r.Reject(rec) // undecodable bodies may hide misframed records
		}
	}

	fmt.Fprintf(stdout, "%s:\n", path)
	for _, k := range sortedKeys(counts) {
		fmt.Fprintf(stdout, "  %-40s %d\n", k, counts[k])
	}
	bad := 0
	if len(skips) > 0 {
		fmt.Fprintf(stdout, "  skipped undecodable records:\n")
		for _, k := range sortedKeys(skips) {
			fmt.Fprintf(stdout, "    %-38s %d\n", k, skips[k])
			bad += skips[k]
		}
	}
	if opts.stats {
		fmt.Fprintf(stdout, "  framing: %d records, %d bytes read, %d resyncs, %d bytes skipped, %d truncated tails\n",
			stats.Records, stats.BytesRead, stats.Resyncs, stats.BytesSkipped, stats.Truncated)
	}
	return bad + stats.Resyncs + stats.Truncated, nil
}

// dumpRecord decodes (and under -v prints) one record, returning its
// per-type counter key and any decode error.
func dumpRecord(stdout io.Writer, rec *mrt.Record, peers **mrt.PeerIndexTable, verbose bool) (string, error) {
	switch {
	case rec.Type == mrt.TypeTableDumpV2 && rec.Subtype == mrt.SubtypePeerIndexTable:
		key := "TABLE_DUMP_V2/PEER_INDEX_TABLE"
		t, err := mrt.ParsePeerIndexTable(rec.Body)
		if err != nil {
			return key, err
		}
		*peers = t
		if verbose {
			fmt.Fprintf(stdout, "PEER_INDEX_TABLE collector=%v view=%q peers=%d\n",
				t.CollectorBGPID, t.ViewName, len(t.Peers))
		}
		return key, nil
	case rec.Type == mrt.TypeTableDumpV2 &&
		(rec.Subtype == mrt.SubtypeRIBIPv4Unicast || rec.Subtype == mrt.SubtypeRIBIPv6Unicast):
		key := "TABLE_DUMP_V2/RIB"
		rib, err := mrt.ParseRIB(rec.Subtype, rec.Body)
		if err != nil {
			return key, err
		}
		if verbose {
			for _, e := range rib.Entries {
				peerASN := uint32(0)
				if *peers != nil && int(e.PeerIndex) < len((*peers).Peers) {
					peerASN = (*peers).Peers[e.PeerIndex].ASN
				}
				fmt.Fprintf(stdout, "RIB %v peer=AS%d path=[%s] comms=[%s]\n",
					rib.Prefix, peerASN, e.Attrs.ASPath, e.Attrs.Communities)
			}
		}
		return key, nil
	case rec.Type == mrt.TypeBGP4MP || rec.Type == mrt.TypeBGP4MPET:
		key := "BGP4MP"
		if rec.Subtype != mrt.SubtypeBGP4MPMessageAS4 {
			return key, nil
		}
		m, err := mrt.ParseBGP4MP(rec.Body)
		if err != nil {
			return key, err
		}
		if verbose {
			fmt.Fprintf(stdout, "UPDATE t=%d peer=AS%d %s\n", rec.Timestamp, m.PeerAS, summarizeBGP(m.Message))
		}
		return key, nil
	default:
		return fmt.Sprintf("type=%d/subtype=%d", rec.Type, rec.Subtype), nil
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func summarizeBGP(wire []byte) string {
	upd, err := bgp.DecodeUpdate(wire)
	if err != nil {
		return fmt.Sprintf("(%v)", err)
	}
	out := ""
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
