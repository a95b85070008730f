package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
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
	truncated = truncated[:len(truncated)-classicLayout.recLen]
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
		for _, c := range probes {
			_ = s.Verdict(c)
			_ = s.Large().Verdict(bgp.LargeCommunity{GlobalAdmin: uint32(c.ASN()), LocalData1: 1, LocalData2: uint32(c.Value())})
		}
		exerciseKindView(&s.kindView)
		exerciseKindView(&s.large)
		_ = s.Options()
		_ = WriteSnapshotFlat(io.Discard, s.Inferences.clone(), s.meta)
	})
}

// exerciseKindView walks every record accessor of one kind's sections,
// one index past each end included.
func exerciseKindView[K Key[K]](v *kindView[K]) {
	n := v.clusterCount()
	for i := -1; i <= n; i++ {
		_ = v.ClusterSummaryAt(i)
		_ = v.clusterLabel(i)
		for start, count := v.clusterMemberRange(i); count > 0; count-- {
			_ = v.memberAt(start + count - 1)
		}
	}
	for i := 0; i < v.lookupCount(); i++ {
		rec, _ := v.lookupRec(i)
		_ = v.lay.stats(rec)
	}
	_, _ = v.Counts()
	_, _ = v.Observed(), v.ExcludedCount()
	_, _ = AlphaClusters(v, 100)
	v.EachLabeled(func(K, dict.Category) bool { return true })
}
