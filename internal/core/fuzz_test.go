package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bgpintent/internal/bgp"
)

// fuzzSeeds builds the corpus the fuzzer mutates from: a valid
// classic-only snapshot, a valid mixed one (large sections, version
// byte 3), one with a corrupted section table, one with a truncated
// arena — the failure classes the replica path must survive when an
// origin serves torn or damaged bytes — and the header of a file from
// the retired version-1 writer.
func fuzzSeeds(f *testing.F) {
	_, inf := buildTestInferences(f)
	meta := SnapshotMeta{CreatedUnix: 1714521600, Source: "fuzz"}
	v2 := writeFlat(f, inf, meta)
	f.Add(v2)
	f.Add(writeFlat(f, buildMixedInferences(f), meta))

	// Corrupt section table: flip an entry's offset field.
	corrupt := append([]byte(nil), v2...)
	if len(corrupt) > v2HeaderLen+16 {
		corrupt[v2HeaderLen+8] ^= 0xff
	}
	f.Add(corrupt)

	// Truncated arena: file size claims more than is present.
	truncated := append([]byte(nil), v2...)
	truncated = truncated[:len(truncated)-v2LookupRecLen]
	f.Add(truncated)

	// Inflated section count with a plausible header.
	inflated := append([]byte(nil), v2...)
	binary.LittleEndian.PutUint32(inflated[24:], v2MaxSections)
	f.Add(inflated)

	f.Add([]byte("BGPINTSNP"))
	f.Add([]byte{})
	f.Add([]byte("BGPINTSNP\x01\x2a\x00\x00\x00"))
}

// FuzzReadSnapshot asserts the snapshot readers never panic on
// arbitrary input: they either return an error or a usable result. The
// accessors of an accepted payload are exercised too, since the mmap
// path defers payload validation to access time.
func FuzzReadSnapshot(f *testing.F) {
	fuzzSeeds(f)
	probes := []bgp.Community{
		bgp.NewCommunity(100, 10), bgp.NewCommunity(100, 9000),
		bgp.NewCommunity(64512, 77), bgp.NewCommunity(500, 1),
		bgp.NewCommunity(4242, 4242),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Streaming reader.
		if inf, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			for _, c := range probes {
				_ = inf.Verdict(c)
			}
		}
		_, _ = ReadSnapshotMeta(bytes.NewReader(data))
		_ = VerifySnapshot(data)

		// Zero-copy parser + every accessor a server would hit. Accepted
		// corrupt payloads may answer wrong, but must not panic.
		s, err := parseSnapshotV2(data)
		if err != nil {
			return
		}
		m := &Mapped{s: s}
		for _, c := range probes {
			_ = m.Verdict(c)
			_ = m.VerdictLarge(bgp.LargeCommunity{GlobalAdmin: uint32(c.ASN()), LocalData1: 1, LocalData2: uint32(c.Value())})
		}
		n := s.clusterCount()
		for i := -1; i <= n; i++ {
			_, _ = s.clusterSummaryAt(i)
			start, count := s.clusterMemberRange(i)
			for j := 0; j < count; j++ {
				_ = s.memberAt(start + j)
			}
		}
		for i := 0; i < s.lookupCount(); i++ {
			_, _, _, _ = s.lookupAt(i)
		}
		_ = s.options()
		_ = s.materialize()
	})
}
