// Snapshot (de)serialization: a compact on-disk form of the classifier
// output, so a serving process can cold-start from an intentinfer run in
// milliseconds instead of re-ingesting MRT. There is one format — the
// flat, mmap-able layout documented at the top of snapv2.go — and this
// file holds what every way into it shares: the magic and version check,
// the provenance block, and the streamed (io.Reader) readers.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// snapshotMagic identifies the file format; the byte that follows it in
// a file is the version (see checkSnapshotMagic).
var snapshotMagic = [9]byte{'B', 'G', 'P', 'I', 'N', 'T', 'S', 'N', 'P'}

// maxSnapshotSection bounds a section length read from a header before
// allocation, so a corrupt or hostile file cannot demand gigabytes.
const maxSnapshotSection = 1 << 31

// SnapshotMeta carries corpus-level provenance alongside the
// inferences, so a server restored from a snapshot can still report
// where its data came from and how much of it there was.
type SnapshotMeta struct {
	// CreatedUnix is the snapshot creation time, in Unix seconds.
	CreatedUnix int64
	// Source is free-form provenance, e.g. the intentinfer input globs.
	Source string

	// Corpus counters at classification time.
	Tuples           int
	Paths            int
	VantagePoints    int
	Communities      int
	LargeCommunities int
}

// checkSnapshotMagic validates the first 10 bytes of a snapshot: the
// magic and a version byte this reader serves. Every way in — streamed,
// mmap-ed, verifier — fails here with the same error, so a file from
// the retired version-1 (gob) writer is named as such wherever it
// turns up.
func checkSnapshotMagic(hdr []byte) error {
	if !bytes.Equal(hdr[:9], snapshotMagic[:]) {
		return fmt.Errorf("snapshot: bad magic %q", hdr[:9])
	}
	if v := hdr[9]; v != snapshotVersionClassic && v != snapshotVersionLarge {
		return fmt.Errorf("snapshot: unsupported format version %d (this build reads versions %d and %d; regenerate the file with `intentinfer -format snapshot`)",
			v, snapshotVersionClassic, snapshotVersionLarge)
	}
	return nil
}

// readAll reads one whole snapshot from r into memory and parses it.
// The magic is checked before the header's size field is believed. The
// streamed path serves tools and tests — replicas use OpenSnapshotMmap.
func readAll(r io.Reader) (*snapV2, error) {
	data := make([]byte, v2HeaderLen)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("snapshot: short header: %w", err)
	}
	if err := checkSnapshotMagic(data); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint64(data[16:])
	if size < v2HeaderLen || size > maxSnapshotSection {
		return nil, fmt.Errorf("snapshot: implausible file size %d", size)
	}
	rest, err := readExact(r, size-v2HeaderLen)
	if err != nil {
		return nil, fmt.Errorf("snapshot: short body: %w", err)
	}
	return parseSnapshotV2(append(data, rest...))
}

// readExact reads exactly n bytes, growing the buffer only as bytes
// actually arrive, so a forged length header costs a short read — not
// a multi-gigabyte up-front allocation.
func readExact(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	if n < 1<<20 {
		buf.Grow(int(n))
	}
	copied, err := io.Copy(&buf, io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if uint64(copied) != n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf.Bytes(), nil
}

// ReadSnapshotMeta returns only the provenance block; the (much larger)
// record sections are read but never decoded.
func ReadSnapshotMeta(r io.Reader) (SnapshotMeta, error) {
	s, err := readAll(r)
	if err != nil {
		return SnapshotMeta{}, err
	}
	return s.meta, nil
}

// ReadSnapshot reads and verifies a snapshot stream, returning the
// inferences over the bytes it read.
func ReadSnapshot(r io.Reader) (*Inferences, SnapshotMeta, error) {
	s, err := readAll(r)
	if err != nil {
		return nil, SnapshotMeta{}, err
	}
	// The streamed read already holds every byte, so deep-verify the
	// section checksums. (OpenSnapshotMmap intentionally skips this to
	// stay O(1).)
	if err := s.Verify(); err != nil {
		return nil, SnapshotMeta{}, err
	}
	return &s.Inferences, s.meta, nil
}
