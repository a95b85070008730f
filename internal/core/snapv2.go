// The snapshot format: a flat, pointer-free, 8-byte-aligned layout
// designed to be mmap-ed and queried in place. The query indexes are
// written out verbatim as fixed-width little-endian record arrays
// behind a section table:
//
//	[9]byte  magic "BGPINTSNP"
//	byte     version: 3 iff the four large sections are present, else 2
//	[6]byte  zero padding
//	uint64   total file size (self-check against truncation)
//	uint32   section count
//	uint32   IEEE CRC-32 of the section table bytes
//	count ×  32-byte section entries:
//	           uint32 kind, uint32 pad,
//	           uint64 offset, uint64 length,
//	           uint32 IEEE CRC-32 of the section bytes, uint32 pad
//	...      sections, each starting on an 8-byte boundary
//
// Five sections are always present (offsets from file start, every
// record little-endian):
//
//	meta (1)     gob(SnapshotMeta) — provenance, readable alone
//	stats (2)    64 bytes: classifier options + precomputed counters,
//	             so Counts/ExcludedCount are O(1) on a mapped snapshot
//	clusters (3) n × 48-byte records sorted by (alpha, lo):
//	             u16 alpha, u16 lo, u16 hi, u8 label, u8 flags,
//	             u32 memberStart, u32 memberCount, f64 ratio,
//	             i64 onPathSum, i64 offPathSum, u64 reserved
//	members (4)  n × 24-byte CommunityStats records grouped by cluster:
//	             u32 comm, u32 pad, i64 onPath, i64 offPath
//	lookup (5)   n × 24-byte records sorted by community:
//	             u32 comm, i32 cluster (≥0: cluster index;
//	             <0: negated ExcludeReason), i64 onPath, i64 offPath
//
// Four more carry the RFC 8092 large-community inferences (the wider
// keys do not fit the classic record shapes). The writer emits them
// only when large inferences exist; a reader requires all four or none:
//
//	lstats (6)    32 bytes: i64 action, i64 information, i64 observed,
//	              u64 reserved
//	lclusters (7) n × 56-byte records sorted by (alpha, fn, lo):
//	              u32 alpha, u32 fn, u32 lo, u32 hi, u8 label, u8 flags,
//	              u16 pad, u32 memberStart, u32 memberCount, u32 pad,
//	              f64 ratio, i64 onPathSum, i64 offPathSum
//	lmembers (8)  n × 32-byte LargeStats records grouped by cluster:
//	              u32 ga, u32 ld1, u32 ld2, u32 pad, i64 onPath,
//	              i64 offPath
//	llookup (9)   n × 32-byte records sorted by (ga, ld1, ld2):
//	              u32 ga, u32 ld1, u32 ld2, i32 cluster (encoded as in
//	              lookup), i64 onPath, i64 offPath
//
// The version byte restates whether the large sections are there, so a
// reader that predates them fails loudly instead of silently ignoring
// them; the two must agree or the file is rejected. Classic-only
// inference sets therefore keep the exact bytes a larges-unaware writer
// produced. (Identifiers prefixed v2/v3 below name record shapes after
// the version byte that introduced them.)
//
// Opening a snapshot is O(sections): validate the header and table,
// decode the tiny meta/stats sections, and point slices at the record
// arrays. Lookups binary-search the lookup section directly against
// the mapped pages — no deserialization, no per-corpus heap, and cold
// start independent of corpus size. Section CRCs are verified by
// VerifySnapshot (streamed reads, replica fetches, tools, fuzzing),
// not on open, to keep open O(1).
package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// The version byte: snapshotVersionLarge iff the four large sections
// are present.
const (
	snapshotVersionClassic = 2
	snapshotVersionLarge   = 3
)

// Section kinds.
const (
	secMeta     = 1
	secStats    = 2
	secClusters = 3
	secMembers  = 4
	secLookup   = 5
	// Large sections: all four present, or none.
	secLargeStats    = 6
	secLargeClusters = 7
	secLargeMembers  = 8
	secLargeLookup   = 9
)

// Fixed sizes.
const (
	v2HeaderLen     = 32
	v2SectionLen    = 32 // one section-table entry
	v2StatsLen      = 64
	v2ClusterRecLen = 48
	v2MemberRecLen  = 24
	v2LookupRecLen  = 24

	v3LargeStatsLen      = 32
	v3LargeClusterRecLen = 56
	v3LargeMemberRecLen  = 32
	v3LargeLookupRecLen  = 32

	// v2MaxSections bounds the section count a header may claim, so a
	// corrupt table cannot demand absurd allocations.
	v2MaxSections = 64
)

// stats-section flag bits.
const (
	v2FlagDisableExclusions = 1 << 0
	v2FlagPooledRatio       = 1 << 1
)

// cluster-record flag bits.
const (
	v2ClusterPureOnPath  = 1 << 0
	v2ClusterPureOffPath = 1 << 1
)

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// v2LookupEntry is the writer-side shape of one lookup record.
type v2LookupEntry struct {
	comm    uint32
	cluster int32
	on, off int64
}

// WriteSnapshotFlat serializes the inferences and meta into w. The
// output is deterministic: identical inferences produce identical bytes
// regardless of map iteration order. The large sections (and version
// byte 3) are written iff large-community inferences are present, so
// classic-only sets keep the bytes a larges-unaware writer produced.
func WriteSnapshotFlat(w io.Writer, inf *Inferences, meta SnapshotMeta) error {
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(&meta); err != nil {
		return fmt.Errorf("snapshot: encode meta: %w", err)
	}

	// Clusters in canonical (alpha, lo, hi) order; the classifier
	// already emits them sorted, but the format guarantees it so mapped
	// readers can binary-search per-α cluster ranges.
	order := make([]int, len(inf.Clusters))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ca, cb := &inf.Clusters[a], &inf.Clusters[b]
		if c := cmp.Compare(ca.Alpha, cb.Alpha); c != 0 {
			return c
		}
		if c := cmp.Compare(ca.Lo, cb.Lo); c != 0 {
			return c
		}
		return cmp.Compare(ca.Hi, cb.Hi)
	})

	clusterBuf := make([]byte, 0, len(order)*v2ClusterRecLen)
	var memberBuf []byte
	lookups := make([]v2LookupEntry, 0, len(inf.Labels)+len(inf.Excluded))
	var rec [v2ClusterRecLen]byte
	for newIdx, oi := range order {
		cl := &inf.Clusters[oi]
		memberStart := len(memberBuf) / v2MemberRecLen
		var onSum, offSum int64
		for i := range cl.Members {
			m := &cl.Members[i]
			var mr [v2MemberRecLen]byte
			binary.LittleEndian.PutUint32(mr[0:], uint32(m.Comm))
			binary.LittleEndian.PutUint64(mr[8:], uint64(int64(m.OnPath)))
			binary.LittleEndian.PutUint64(mr[16:], uint64(int64(m.OffPath)))
			memberBuf = append(memberBuf, mr[:]...)
			onSum += int64(m.OnPath)
			offSum += int64(m.OffPath)
			lookups = append(lookups, v2LookupEntry{
				comm: uint32(m.Comm), cluster: int32(newIdx),
				on: int64(m.OnPath), off: int64(m.OffPath),
			})
		}
		rec = [v2ClusterRecLen]byte{}
		binary.LittleEndian.PutUint16(rec[0:], cl.Alpha)
		binary.LittleEndian.PutUint16(rec[2:], cl.Lo)
		binary.LittleEndian.PutUint16(rec[4:], cl.Hi)
		rec[6] = byte(cl.Label)
		var flags byte
		if cl.PureOnPath {
			flags |= v2ClusterPureOnPath
		}
		if cl.PureOffPath {
			flags |= v2ClusterPureOffPath
		}
		rec[7] = flags
		binary.LittleEndian.PutUint32(rec[8:], uint32(memberStart))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(cl.Members)))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(cl.Ratio))
		binary.LittleEndian.PutUint64(rec[24:], uint64(onSum))
		binary.LittleEndian.PutUint64(rec[32:], uint64(offSum))
		clusterBuf = append(clusterBuf, rec[:]...)
	}

	for c, reason := range inf.Excluded {
		l := inf.Lookup(c)
		lookups = append(lookups, v2LookupEntry{
			comm: uint32(c), cluster: -int32(reason),
			on: int64(l.Stats.OnPath), off: int64(l.Stats.OffPath),
		})
	}
	slices.SortFunc(lookups, func(a, b v2LookupEntry) int {
		return cmp.Compare(a.comm, b.comm)
	})
	lookupBuf := make([]byte, 0, len(lookups)*v2LookupRecLen)
	for _, e := range lookups {
		var lr [v2LookupRecLen]byte
		binary.LittleEndian.PutUint32(lr[0:], e.comm)
		binary.LittleEndian.PutUint32(lr[4:], uint32(e.cluster))
		binary.LittleEndian.PutUint64(lr[8:], uint64(e.on))
		binary.LittleEndian.PutUint64(lr[16:], uint64(e.off))
		lookupBuf = append(lookupBuf, lr[:]...)
	}

	action, information := inf.Counts()
	var statsBuf [v2StatsLen]byte
	binary.LittleEndian.PutUint64(statsBuf[0:], uint64(int64(inf.Opts.MinGap)))
	binary.LittleEndian.PutUint64(statsBuf[8:], math.Float64bits(inf.Opts.RatioThreshold))
	var oflags uint64
	if inf.Opts.DisableExclusions {
		oflags |= v2FlagDisableExclusions
	}
	if inf.Opts.PooledRatio {
		oflags |= v2FlagPooledRatio
	}
	binary.LittleEndian.PutUint64(statsBuf[16:], oflags)
	binary.LittleEndian.PutUint64(statsBuf[24:], uint64(int64(action)))
	binary.LittleEndian.PutUint64(statsBuf[32:], uint64(int64(information)))
	binary.LittleEndian.PutUint64(statsBuf[40:], uint64(int64(len(lookups))))

	// Assemble the section table; every section starts 8-byte aligned.
	type section struct {
		kind uint32
		body []byte
	}
	sections := []section{
		{secMeta, metaBuf.Bytes()},
		{secStats, statsBuf[:]},
		{secClusters, clusterBuf},
		{secMembers, memberBuf},
		{secLookup, lookupBuf},
	}
	version := byte(snapshotVersionClassic)
	if hasLargeInferences(inf) {
		version = snapshotVersionLarge
		ls, lc, lm, ll := encodeLargeSections(inf)
		sections = append(sections,
			section{secLargeStats, ls},
			section{secLargeClusters, lc},
			section{secLargeMembers, lm},
			section{secLargeLookup, ll},
		)
	}
	tableLen := len(sections) * v2SectionLen
	off := v2HeaderLen + tableLen
	table := make([]byte, 0, tableLen)
	totalSize := off
	offsets := make([]int, len(sections))
	for i, s := range sections {
		totalSize = align8(totalSize)
		offsets[i] = totalSize
		totalSize += len(s.body)
		var ent [v2SectionLen]byte
		binary.LittleEndian.PutUint32(ent[0:], s.kind)
		binary.LittleEndian.PutUint64(ent[8:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(ent[16:], uint64(len(s.body)))
		binary.LittleEndian.PutUint32(ent[24:], crc32.ChecksumIEEE(s.body))
		table = append(table, ent[:]...)
	}

	var hdr [v2HeaderLen]byte
	copy(hdr[:9], snapshotMagic[:])
	hdr[9] = version
	binary.LittleEndian.PutUint64(hdr[16:], uint64(totalSize))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(sections)))
	binary.LittleEndian.PutUint32(hdr[28:], crc32.ChecksumIEEE(table))

	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(table); err != nil {
		return err
	}
	written := v2HeaderLen + tableLen
	var pad [8]byte
	for i, s := range sections {
		if n := offsets[i] - written; n > 0 {
			if _, err := w.Write(pad[:n]); err != nil {
				return err
			}
			written += n
		}
		if _, err := w.Write(s.body); err != nil {
			return err
		}
		written += len(s.body)
	}
	return nil
}

// v3LargeLookupEntry is the writer-side shape of one large lookup
// record.
type v3LargeLookupEntry struct {
	comm    bgp.LargeCommunity
	cluster int32
	on, off int64
}

// encodeLargeSections renders the four large sections. Output is
// deterministic for identical inferences.
func encodeLargeSections(inf *Inferences) (statsSec, clusterSec, memberSec, lookupSec []byte) {
	order := make([]int, len(inf.LargeClusters))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ca, cb := &inf.LargeClusters[a], &inf.LargeClusters[b]
		if c := cmp.Compare(ca.Alpha, cb.Alpha); c != 0 {
			return c
		}
		if c := cmp.Compare(ca.Fn, cb.Fn); c != 0 {
			return c
		}
		if c := cmp.Compare(ca.Lo, cb.Lo); c != 0 {
			return c
		}
		return cmp.Compare(ca.Hi, cb.Hi)
	})

	clusterSec = make([]byte, 0, len(order)*v3LargeClusterRecLen)
	lookups := make([]v3LargeLookupEntry, 0, len(inf.LargeLabels)+len(inf.LargeExcluded))
	for newIdx, oi := range order {
		cl := &inf.LargeClusters[oi]
		memberStart := len(memberSec) / v3LargeMemberRecLen
		var onSum, offSum int64
		for i := range cl.Members {
			m := &cl.Members[i]
			var mr [v3LargeMemberRecLen]byte
			binary.LittleEndian.PutUint32(mr[0:], m.Comm.GlobalAdmin)
			binary.LittleEndian.PutUint32(mr[4:], m.Comm.LocalData1)
			binary.LittleEndian.PutUint32(mr[8:], m.Comm.LocalData2)
			binary.LittleEndian.PutUint64(mr[16:], uint64(int64(m.OnPath)))
			binary.LittleEndian.PutUint64(mr[24:], uint64(int64(m.OffPath)))
			memberSec = append(memberSec, mr[:]...)
			onSum += int64(m.OnPath)
			offSum += int64(m.OffPath)
			lookups = append(lookups, v3LargeLookupEntry{
				comm: m.Comm, cluster: int32(newIdx),
				on: int64(m.OnPath), off: int64(m.OffPath),
			})
		}
		var rec [v3LargeClusterRecLen]byte
		binary.LittleEndian.PutUint32(rec[0:], cl.Alpha)
		binary.LittleEndian.PutUint32(rec[4:], cl.Fn)
		binary.LittleEndian.PutUint32(rec[8:], cl.Lo)
		binary.LittleEndian.PutUint32(rec[12:], cl.Hi)
		rec[16] = byte(cl.Label)
		var flags byte
		if cl.PureOnPath {
			flags |= v2ClusterPureOnPath
		}
		if cl.PureOffPath {
			flags |= v2ClusterPureOffPath
		}
		rec[17] = flags
		binary.LittleEndian.PutUint32(rec[20:], uint32(memberStart))
		binary.LittleEndian.PutUint32(rec[24:], uint32(len(cl.Members)))
		binary.LittleEndian.PutUint64(rec[32:], math.Float64bits(cl.Ratio))
		binary.LittleEndian.PutUint64(rec[40:], uint64(onSum))
		binary.LittleEndian.PutUint64(rec[48:], uint64(offSum))
		clusterSec = append(clusterSec, rec[:]...)
	}

	for lc, reason := range inf.LargeExcluded {
		l := inf.LookupLarge(lc)
		lookups = append(lookups, v3LargeLookupEntry{
			comm: lc, cluster: -int32(reason),
			on: int64(l.Stats.OnPath), off: int64(l.Stats.OffPath),
		})
	}
	slices.SortFunc(lookups, func(a, b v3LargeLookupEntry) int {
		return a.comm.Compare(b.comm)
	})
	lookupSec = make([]byte, 0, len(lookups)*v3LargeLookupRecLen)
	for _, e := range lookups {
		var lr [v3LargeLookupRecLen]byte
		binary.LittleEndian.PutUint32(lr[0:], e.comm.GlobalAdmin)
		binary.LittleEndian.PutUint32(lr[4:], e.comm.LocalData1)
		binary.LittleEndian.PutUint32(lr[8:], e.comm.LocalData2)
		binary.LittleEndian.PutUint32(lr[12:], uint32(e.cluster))
		binary.LittleEndian.PutUint64(lr[16:], uint64(e.on))
		binary.LittleEndian.PutUint64(lr[24:], uint64(e.off))
		lookupSec = append(lookupSec, lr[:]...)
	}

	action, information := inf.LargeCounts()
	statsSec = make([]byte, v3LargeStatsLen)
	binary.LittleEndian.PutUint64(statsSec[0:], uint64(int64(action)))
	binary.LittleEndian.PutUint64(statsSec[8:], uint64(int64(information)))
	binary.LittleEndian.PutUint64(statsSec[16:], uint64(int64(len(lookups))))
	return statsSec, clusterSec, memberSec, lookupSec
}

// snapV2 is a parsed view over a snapshot's bytes — either an mmap-ed
// region or a heap buffer. It holds only slice views into data
// plus the decoded tiny sections; nothing per-record is materialized.
type snapV2 struct {
	data []byte
	meta SnapshotMeta

	// decoded stats section
	minGap            int
	ratioThreshold    float64
	disableExclusions bool
	pooledRatio       bool
	action            int
	information       int
	observed          int

	clusters []byte // whole clusters section; len % v2ClusterRecLen == 0
	members  []byte // whole members section; len % v2MemberRecLen == 0
	lookup   []byte // whole lookup section; len % v2LookupRecLen == 0

	// Large sections; nil when the file has none, in which case the
	// large accessors report an empty large inference set.
	largeAction      int
	largeInformation int
	largeObserved    int
	largeClusters    []byte
	largeMembers     []byte
	largeLookup      []byte
}

// parseSnapshotV2 validates the header and section table and builds
// the section views. The work is O(section count) plus decoding the
// small meta gob — independent of corpus size. Section payload CRCs
// are NOT verified here (see VerifySnapshot); record accessors are
// bounds-checked so a corrupt body yields wrong answers, not panics.
func parseSnapshotV2(data []byte) (*snapV2, error) {
	if len(data) < v2HeaderLen {
		return nil, fmt.Errorf("snapshot: short header (%d bytes)", len(data))
	}
	if err := checkSnapshotMagic(data); err != nil {
		return nil, err
	}
	if size := binary.LittleEndian.Uint64(data[16:]); size != uint64(len(data)) {
		return nil, fmt.Errorf("snapshot: file size %d does not match header %d (truncated?)",
			len(data), size)
	}
	nsec := int(binary.LittleEndian.Uint32(data[24:]))
	if nsec <= 0 || nsec > v2MaxSections {
		return nil, fmt.Errorf("snapshot: implausible section count %d", nsec)
	}
	tableEnd := v2HeaderLen + nsec*v2SectionLen
	if tableEnd > len(data) {
		return nil, fmt.Errorf("snapshot: section table extends past file end")
	}
	table := data[v2HeaderLen:tableEnd]
	if got, want := crc32.ChecksumIEEE(table), binary.LittleEndian.Uint32(data[28:]); got != want {
		return nil, fmt.Errorf("snapshot: section table checksum mismatch (corrupt file): got %08x want %08x", got, want)
	}

	s := &snapV2{data: data}
	var metaRaw, statsRaw, largeStatsRaw []byte
	seen := make(map[uint32]bool, nsec)
	for i := 0; i < nsec; i++ {
		ent := table[i*v2SectionLen:]
		kind := binary.LittleEndian.Uint32(ent[0:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("snapshot: section %d (kind %d) misaligned at offset %d", i, kind, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("snapshot: section %d (kind %d) [%d,+%d) extends past file end", i, kind, off, length)
		}
		if seen[kind] {
			return nil, fmt.Errorf("snapshot: duplicate section kind %d", kind)
		}
		seen[kind] = true
		body := data[off : off+length]
		switch kind {
		case secMeta:
			metaRaw = body
		case secStats:
			statsRaw = body
		case secClusters:
			if length%v2ClusterRecLen != 0 {
				return nil, fmt.Errorf("snapshot: clusters section length %d not a multiple of %d", length, v2ClusterRecLen)
			}
			s.clusters = body
		case secMembers:
			if length%v2MemberRecLen != 0 {
				return nil, fmt.Errorf("snapshot: members section length %d not a multiple of %d", length, v2MemberRecLen)
			}
			s.members = body
		case secLookup:
			if length%v2LookupRecLen != 0 {
				return nil, fmt.Errorf("snapshot: lookup section length %d not a multiple of %d", length, v2LookupRecLen)
			}
			s.lookup = body
		case secLargeStats:
			largeStatsRaw = body
		case secLargeClusters:
			if length%v3LargeClusterRecLen != 0 {
				return nil, fmt.Errorf("snapshot: large clusters section length %d not a multiple of %d", length, v3LargeClusterRecLen)
			}
			s.largeClusters = body
		case secLargeMembers:
			if length%v3LargeMemberRecLen != 0 {
				return nil, fmt.Errorf("snapshot: large members section length %d not a multiple of %d", length, v3LargeMemberRecLen)
			}
			s.largeMembers = body
		case secLargeLookup:
			if length%v3LargeLookupRecLen != 0 {
				return nil, fmt.Errorf("snapshot: large lookup section length %d not a multiple of %d", length, v3LargeLookupRecLen)
			}
			s.largeLookup = body
		default:
			// Unknown sections are skipped: future writers may append
			// kinds old readers do not understand.
		}
	}
	if metaRaw == nil || statsRaw == nil || s.clusters == nil || s.members == nil || s.lookup == nil {
		return nil, fmt.Errorf("snapshot: missing required section (meta/stats/clusters/members/lookup)")
	}
	nLarge := 0
	for kind := uint32(secLargeStats); kind <= secLargeLookup; kind++ {
		if seen[kind] {
			nLarge++
		}
	}
	if nLarge != 0 && nLarge != 4 {
		return nil, fmt.Errorf("snapshot: %d of the 4 large sections present (lstats/lclusters/lmembers/llookup go together)", nLarge)
	}
	if version := data[9]; (version == snapshotVersionLarge) != (nLarge == 4) {
		return nil, fmt.Errorf("snapshot: version byte %d with %d large sections (version is %d iff they are present)",
			version, nLarge, snapshotVersionLarge)
	}
	if nLarge == 4 {
		if len(largeStatsRaw) != v3LargeStatsLen {
			return nil, fmt.Errorf("snapshot: large stats section is %d bytes, want %d", len(largeStatsRaw), v3LargeStatsLen)
		}
		s.largeAction = int(int64(binary.LittleEndian.Uint64(largeStatsRaw[0:])))
		s.largeInformation = int(int64(binary.LittleEndian.Uint64(largeStatsRaw[8:])))
		s.largeObserved = int(int64(binary.LittleEndian.Uint64(largeStatsRaw[16:])))
		if s.largeObserved != s.largeLookupCount() {
			return nil, fmt.Errorf("snapshot: stats claim %d observed large communities, large lookup section holds %d",
				s.largeObserved, s.largeLookupCount())
		}
		if s.largeAction < 0 || s.largeInformation < 0 || s.largeAction+s.largeInformation > s.largeObserved {
			return nil, fmt.Errorf("snapshot: implausible large counters (action %d, information %d, observed %d)",
				s.largeAction, s.largeInformation, s.largeObserved)
		}
	}
	if len(statsRaw) != v2StatsLen {
		return nil, fmt.Errorf("snapshot: stats section is %d bytes, want %d", len(statsRaw), v2StatsLen)
	}
	if err := gob.NewDecoder(bytes.NewReader(metaRaw)).Decode(&s.meta); err != nil {
		return nil, fmt.Errorf("snapshot: decode meta: %w", err)
	}

	s.minGap = int(int64(binary.LittleEndian.Uint64(statsRaw[0:])))
	s.ratioThreshold = math.Float64frombits(binary.LittleEndian.Uint64(statsRaw[8:]))
	oflags := binary.LittleEndian.Uint64(statsRaw[16:])
	s.disableExclusions = oflags&v2FlagDisableExclusions != 0
	s.pooledRatio = oflags&v2FlagPooledRatio != 0
	s.action = int(int64(binary.LittleEndian.Uint64(statsRaw[24:])))
	s.information = int(int64(binary.LittleEndian.Uint64(statsRaw[32:])))
	s.observed = int(int64(binary.LittleEndian.Uint64(statsRaw[40:])))
	if s.observed != s.lookupCount() {
		return nil, fmt.Errorf("snapshot: stats claim %d observed communities, lookup section holds %d",
			s.observed, s.lookupCount())
	}
	if s.action < 0 || s.information < 0 || s.action+s.information > s.observed {
		return nil, fmt.Errorf("snapshot: implausible counters (action %d, information %d, observed %d)",
			s.action, s.information, s.observed)
	}
	return s, nil
}

func (s *snapV2) clusterCount() int { return len(s.clusters) / v2ClusterRecLen }
func (s *snapV2) lookupCount() int  { return len(s.lookup) / v2LookupRecLen }
func (s *snapV2) memberCount() int  { return len(s.members) / v2MemberRecLen }

func (s *snapV2) largeClusterCount() int { return len(s.largeClusters) / v3LargeClusterRecLen }
func (s *snapV2) largeLookupCount() int  { return len(s.largeLookup) / v3LargeLookupRecLen }
func (s *snapV2) largeMemberCount() int  { return len(s.largeMembers) / v3LargeMemberRecLen }

// lookupAt decodes the i-th lookup record straight from the backing
// pages. i must be in [0, lookupCount()).
func (s *snapV2) lookupAt(i int) (comm uint32, cluster int32, on, off int64) {
	b := s.lookup[i*v2LookupRecLen : i*v2LookupRecLen+v2LookupRecLen]
	comm = binary.LittleEndian.Uint32(b[0:])
	cluster = int32(binary.LittleEndian.Uint32(b[4:]))
	on = int64(binary.LittleEndian.Uint64(b[8:]))
	off = int64(binary.LittleEndian.Uint64(b[16:]))
	return
}

// findLookup binary-searches the comm-sorted lookup section.
func (s *snapV2) findLookup(comm uint32) (int, bool) {
	lo, hi := 0, s.lookupCount()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := binary.LittleEndian.Uint32(s.lookup[mid*v2LookupRecLen:])
		switch {
		case c < comm:
			lo = mid + 1
		case c > comm:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// clusterSummaryAt decodes the i-th cluster record into its flat
// summary. ok is false when i is out of range (possible with a corrupt
// lookup section pointing past the cluster array).
func (s *snapV2) clusterSummaryAt(i int) (cs ClusterSummary, ok bool) {
	if i < 0 || i >= s.clusterCount() {
		return cs, false
	}
	b := s.clusters[i*v2ClusterRecLen : i*v2ClusterRecLen+v2ClusterRecLen]
	cs.Alpha = binary.LittleEndian.Uint16(b[0:])
	cs.Lo = binary.LittleEndian.Uint16(b[2:])
	cs.Hi = binary.LittleEndian.Uint16(b[4:])
	cs.Label = dict.Category(int8(b[6]))
	cs.PureOnPath = b[7]&v2ClusterPureOnPath != 0
	cs.PureOffPath = b[7]&v2ClusterPureOffPath != 0
	cs.Size = int(binary.LittleEndian.Uint32(b[12:]))
	cs.Ratio = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	cs.OnPath = int64(binary.LittleEndian.Uint64(b[24:]))
	cs.OffPath = int64(binary.LittleEndian.Uint64(b[32:]))
	return cs, true
}

// clusterLabel reads just the i-th cluster's label byte.
func (s *snapV2) clusterLabel(i int) dict.Category {
	if i < 0 || i >= s.clusterCount() {
		return dict.CatUnknown
	}
	return dict.Category(int8(s.clusters[i*v2ClusterRecLen+6]))
}

// searchAlpha returns the index of the first cluster record with
// Alpha >= alpha, using the (alpha, lo) sort order.
func (s *snapV2) searchAlpha(alpha uint16, n int) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		a := binary.LittleEndian.Uint16(s.clusters[mid*v2ClusterRecLen:])
		if a < alpha {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clusterMemberRange returns the i-th cluster's member index range,
// clamped to the members section so corrupt records cannot walk out of
// bounds.
func (s *snapV2) clusterMemberRange(i int) (start, count int) {
	if i < 0 || i >= s.clusterCount() {
		return 0, 0
	}
	b := s.clusters[i*v2ClusterRecLen:]
	start = int(binary.LittleEndian.Uint32(b[8:]))
	count = int(binary.LittleEndian.Uint32(b[12:]))
	total := s.memberCount()
	if start > total {
		return 0, 0
	}
	if count > total-start {
		count = total - start
	}
	return start, count
}

// memberAt decodes one member record. i must be in [0, memberCount()).
func (s *snapV2) memberAt(i int) CommunityStats {
	b := s.members[i*v2MemberRecLen : i*v2MemberRecLen+v2MemberRecLen]
	return CommunityStats{
		Comm:    bgp.Community(binary.LittleEndian.Uint32(b[0:])),
		OnPath:  int(int64(binary.LittleEndian.Uint64(b[8:]))),
		OffPath: int(int64(binary.LittleEndian.Uint64(b[16:]))),
	}
}

// largeLookupAt decodes the i-th large lookup record.
func (s *snapV2) largeLookupAt(i int) (comm bgp.LargeCommunity, cluster int32, on, off int64) {
	b := s.largeLookup[i*v3LargeLookupRecLen : i*v3LargeLookupRecLen+v3LargeLookupRecLen]
	comm = bgp.LargeCommunity{
		GlobalAdmin: binary.LittleEndian.Uint32(b[0:]),
		LocalData1:  binary.LittleEndian.Uint32(b[4:]),
		LocalData2:  binary.LittleEndian.Uint32(b[8:]),
	}
	cluster = int32(binary.LittleEndian.Uint32(b[12:]))
	on = int64(binary.LittleEndian.Uint64(b[16:]))
	off = int64(binary.LittleEndian.Uint64(b[24:]))
	return
}

// findLargeLookup binary-searches the (ga, ld1, ld2)-sorted large
// lookup section.
func (s *snapV2) findLargeLookup(lc bgp.LargeCommunity) (int, bool) {
	lo, hi := 0, s.largeLookupCount()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		b := s.largeLookup[mid*v3LargeLookupRecLen:]
		rec := bgp.LargeCommunity{
			GlobalAdmin: binary.LittleEndian.Uint32(b[0:]),
			LocalData1:  binary.LittleEndian.Uint32(b[4:]),
			LocalData2:  binary.LittleEndian.Uint32(b[8:]),
		}
		switch c := rec.Compare(lc); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// largeClusterSummaryAt decodes the i-th large cluster record; ok is
// false when i is out of range.
func (s *snapV2) largeClusterSummaryAt(i int) (cs LargeClusterSummary, ok bool) {
	if i < 0 || i >= s.largeClusterCount() {
		return cs, false
	}
	b := s.largeClusters[i*v3LargeClusterRecLen : i*v3LargeClusterRecLen+v3LargeClusterRecLen]
	cs.Alpha = binary.LittleEndian.Uint32(b[0:])
	cs.Fn = binary.LittleEndian.Uint32(b[4:])
	cs.Lo = binary.LittleEndian.Uint32(b[8:])
	cs.Hi = binary.LittleEndian.Uint32(b[12:])
	cs.Label = dict.Category(int8(b[16]))
	cs.PureOnPath = b[17]&v2ClusterPureOnPath != 0
	cs.PureOffPath = b[17]&v2ClusterPureOffPath != 0
	cs.Size = int(binary.LittleEndian.Uint32(b[24:]))
	cs.Ratio = math.Float64frombits(binary.LittleEndian.Uint64(b[32:]))
	cs.OnPath = int64(binary.LittleEndian.Uint64(b[40:]))
	cs.OffPath = int64(binary.LittleEndian.Uint64(b[48:]))
	return cs, true
}

// largeClusterLabel reads just the i-th large cluster's label byte.
func (s *snapV2) largeClusterLabel(i int) dict.Category {
	if i < 0 || i >= s.largeClusterCount() {
		return dict.CatUnknown
	}
	return dict.Category(int8(s.largeClusters[i*v3LargeClusterRecLen+16]))
}

// largeClusterMemberRange returns the i-th large cluster's member
// index range, clamped to the members section.
func (s *snapV2) largeClusterMemberRange(i int) (start, count int) {
	if i < 0 || i >= s.largeClusterCount() {
		return 0, 0
	}
	b := s.largeClusters[i*v3LargeClusterRecLen:]
	start = int(binary.LittleEndian.Uint32(b[20:]))
	count = int(binary.LittleEndian.Uint32(b[24:]))
	total := s.largeMemberCount()
	if start > total {
		return 0, 0
	}
	if count > total-start {
		count = total - start
	}
	return start, count
}

// largeMemberAt decodes one large member record.
func (s *snapV2) largeMemberAt(i int) LargeStats {
	b := s.largeMembers[i*v3LargeMemberRecLen : i*v3LargeMemberRecLen+v3LargeMemberRecLen]
	return LargeStats{
		Comm: bgp.LargeCommunity{
			GlobalAdmin: binary.LittleEndian.Uint32(b[0:]),
			LocalData1:  binary.LittleEndian.Uint32(b[4:]),
			LocalData2:  binary.LittleEndian.Uint32(b[8:]),
		},
		OnPath:  int(int64(binary.LittleEndian.Uint64(b[16:]))),
		OffPath: int(int64(binary.LittleEndian.Uint64(b[24:]))),
	}
}

// options reconstructs the serializable classifier options.
func (s *snapV2) options() Options {
	return Options{
		MinGap:            s.minGap,
		RatioThreshold:    s.ratioThreshold,
		DisableExclusions: s.disableExclusions,
		PooledRatio:       s.pooledRatio,
	}
}

// materialize rebuilds the heap *Inferences the snapshot was written
// from: for a file WriteSnapshotFlat wrote, writing the result again
// reproduces its bytes.
func (s *snapV2) materialize() *Inferences {
	inf := &Inferences{
		Labels:   make(map[bgp.Community]dict.Category),
		Excluded: make(map[bgp.Community]ExcludeReason),
		Opts:     s.options(),
	}
	nc := s.clusterCount()
	inf.Clusters = make([]Cluster, 0, nc)
	for i := 0; i < nc; i++ {
		cs, _ := s.clusterSummaryAt(i)
		start, count := s.clusterMemberRange(i)
		cl := Cluster{
			Alpha: cs.Alpha, Lo: cs.Lo, Hi: cs.Hi, Label: cs.Label,
			PureOnPath: cs.PureOnPath, PureOffPath: cs.PureOffPath,
			Ratio:   cs.Ratio,
			Members: make([]CommunityStats, count),
		}
		for j := 0; j < count; j++ {
			cl.Members[j] = s.memberAt(start + j)
		}
		inf.Clusters = append(inf.Clusters, cl)
		for _, m := range cl.Members {
			inf.Labels[m.Comm] = cl.Label
		}
	}
	excludedStats := make(map[bgp.Community]CommunityStats)
	for i, n := 0, s.lookupCount(); i < n; i++ {
		comm, cluster, on, off := s.lookupAt(i)
		if cluster >= 0 {
			continue
		}
		c := bgp.Community(comm)
		reason := ExcludeReason(min(-int64(cluster), int64(ExcludeUnobserved)))
		inf.Excluded[c] = reason
		excludedStats[c] = CommunityStats{Comm: c, OnPath: int(on), OffPath: int(off)}
	}
	inf.buildIndex(excludedStats)

	if nlc := s.largeClusterCount(); nlc > 0 || s.largeLookupCount() > 0 {
		inf.LargeClusters = make([]LargeCluster, 0, nlc)
		if nlc > 0 {
			inf.LargeLabels = make(map[bgp.LargeCommunity]dict.Category)
		}
		for i := 0; i < nlc; i++ {
			cs, _ := s.largeClusterSummaryAt(i)
			start, count := s.largeClusterMemberRange(i)
			cl := LargeCluster{
				Alpha: cs.Alpha, Fn: cs.Fn, Lo: cs.Lo, Hi: cs.Hi, Label: cs.Label,
				PureOnPath: cs.PureOnPath, PureOffPath: cs.PureOffPath,
				Ratio:   cs.Ratio,
				Members: make([]LargeStats, count),
			}
			for j := 0; j < count; j++ {
				cl.Members[j] = s.largeMemberAt(start + j)
			}
			inf.LargeClusters = append(inf.LargeClusters, cl)
			for _, m := range cl.Members {
				inf.LargeLabels[m.Comm] = cl.Label
			}
		}
		largeExclStats := make(map[bgp.LargeCommunity]LargeStats)
		for i, n := 0, s.largeLookupCount(); i < n; i++ {
			lc, cluster, on, off := s.largeLookupAt(i)
			if cluster >= 0 {
				continue
			}
			if inf.LargeExcluded == nil {
				inf.LargeExcluded = make(map[bgp.LargeCommunity]ExcludeReason)
			}
			reason := ExcludeReason(min(-int64(cluster), int64(ExcludeUnobserved)))
			inf.LargeExcluded[lc] = reason
			largeExclStats[lc] = LargeStats{Comm: lc, OnPath: int(on), OffPath: int(off)}
		}
		inf.buildLargeIndex(largeExclStats)
	}
	return inf
}

// VerifySnapshot runs the full integrity pass a plain open skips for
// O(1) cold start: per-section CRCs, lookup-section sort order, and
// cluster member/index ranges. The streamed reader, a replica about to
// install a network-fetched file, and snapverify run it; a local
// OpenSnapshotMmap trusts the writer plus the table checksum.
func VerifySnapshot(data []byte) error {
	s, err := parseSnapshotV2(data)
	if err != nil {
		return err
	}
	return s.verify()
}

// verify is VerifySnapshot over an already parsed view.
func (s *snapV2) verify() error {
	data := s.data
	nsec := int(binary.LittleEndian.Uint32(data[24:]))
	table := data[v2HeaderLen : v2HeaderLen+nsec*v2SectionLen]
	for i := 0; i < nsec; i++ {
		ent := table[i*v2SectionLen:]
		kind := binary.LittleEndian.Uint32(ent[0:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		want := binary.LittleEndian.Uint32(ent[24:])
		if got := crc32.ChecksumIEEE(data[off : off+length]); got != want {
			return fmt.Errorf("snapshot: section kind %d checksum mismatch (corrupt file): got %08x want %08x", kind, got, want)
		}
	}
	var prev uint32
	for i, n := 0, s.lookupCount(); i < n; i++ {
		comm, cluster, _, _ := s.lookupAt(i)
		if i > 0 && comm <= prev {
			return fmt.Errorf("snapshot: lookup section not strictly sorted at record %d", i)
		}
		prev = comm
		if cluster >= 0 {
			if int(cluster) >= s.clusterCount() {
				return fmt.Errorf("snapshot: lookup record %d references cluster %d of %d", i, cluster, s.clusterCount())
			}
		} else if -cluster > int32(ExcludeNeverOnPath) {
			return fmt.Errorf("snapshot: lookup record %d has unknown exclusion reason %d", i, -cluster)
		}
	}
	for i, n := 0, s.clusterCount(); i < n; i++ {
		b := s.clusters[i*v2ClusterRecLen:]
		start := int(binary.LittleEndian.Uint32(b[8:]))
		count := int(binary.LittleEndian.Uint32(b[12:]))
		if start > s.memberCount() || count > s.memberCount()-start {
			return fmt.Errorf("snapshot: cluster %d members [%d,+%d) exceed member section (%d records)",
				i, start, count, s.memberCount())
		}
	}
	var prevLarge bgp.LargeCommunity
	for i, n := 0, s.largeLookupCount(); i < n; i++ {
		lc, cluster, _, _ := s.largeLookupAt(i)
		if i > 0 && lc.Compare(prevLarge) <= 0 {
			return fmt.Errorf("snapshot: large lookup section not strictly sorted at record %d", i)
		}
		prevLarge = lc
		if cluster >= 0 {
			if int(cluster) >= s.largeClusterCount() {
				return fmt.Errorf("snapshot: large lookup record %d references cluster %d of %d", i, cluster, s.largeClusterCount())
			}
		} else if -cluster > int32(ExcludeNeverOnPath) {
			return fmt.Errorf("snapshot: large lookup record %d has unknown exclusion reason %d", i, -cluster)
		}
	}
	for i, n := 0, s.largeClusterCount(); i < n; i++ {
		b := s.largeClusters[i*v3LargeClusterRecLen:]
		start := int(binary.LittleEndian.Uint32(b[20:]))
		count := int(binary.LittleEndian.Uint32(b[24:]))
		if start > s.largeMemberCount() || count > s.largeMemberCount()-start {
			return fmt.Errorf("snapshot: large cluster %d members [%d,+%d) exceed member section (%d records)",
				i, start, count, s.largeMemberCount())
		}
	}
	return nil
}
