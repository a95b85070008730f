// Command snapverify deep-checks an intentd snapshot: header and
// section table, every section checksum, lookup sort order and index
// ranges — the O(file) pass intentd's O(1) mmap open skips. Exit status
// is non-zero, with the reason, for anything intentd should not serve.
//
// Usage:
//
//	snapverify -verify corpus.snap
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"bgpintent"
	"bgpintent/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snapverify: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("snapverify", flag.ContinueOnError)
	verify := fs.String("verify", "", "snapshot file to check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verify == "" {
		return fmt.Errorf("need -verify FILE; see -h")
	}
	data, err := os.ReadFile(*verify)
	if err != nil {
		return err
	}
	if err := core.VerifySnapshot(data); err != nil {
		return fmt.Errorf("%s: %w", *verify, err)
	}
	info, err := bgpintent.ReadSnapshotInfo(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%s: %w", *verify, err)
	}
	fmt.Printf("%s: ok (source %q, %d communities)\n", *verify, info.Source, info.Communities)
	return nil
}
