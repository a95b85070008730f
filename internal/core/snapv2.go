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
// Besides the meta section (1: gob(SnapshotMeta) — provenance, readable
// alone) every section belongs to one kind of community key, and each
// kind has the same four, differing only in the widths kindLayout
// records (offsets from record start, every field little-endian):
//
//	                 classic (RFC 1997)        large (RFC 8092)
//	stats            kind 2, 64 bytes          kind 6, 32 bytes
//	  i64 action, i64 information, i64 observed at
//	                 24                        0
//	  (classic only: i64 minGap, f64 ratioThreshold, u64 option flags
//	  at 0 — the classifier options of the whole file)
//	clusters         kind 3, 48-byte records   kind 7, 56-byte records
//	  bounds at 0    u16 alpha, lo, hi         u32 alpha, fn, lo, hi
//	  u8 label, u8 flags at
//	                 6                         16
//	  u32 memberStart, u32 memberCount at
//	                 8                         20
//	  f64 ratio, i64 onPathSum, i64 offPathSum at
//	                 16                        32
//	members, lookup  kinds 4, 5, 24 bytes      kinds 8, 9, 32 bytes
//	  key at 0       u32 comm                  u32 ga, ld1, ld2
//	  i64 onPath, i64 offPath at
//	                 8                         16
//	  lookup only: i32 cluster in the four bytes before them (≥0:
//	  cluster index; <0: negated ExcludeReason)
//
// Clusters are sorted by (alpha, fn, lo), members grouped by cluster,
// lookup records sorted by key; bytes not named above are zero. So O(1)
// counters, per-α cluster ranges and per-key verdicts are all reads or
// binary searches of the mapped pages.
//
// The classic sections are always present. The writer emits the large
// ones only when large inferences exist; a reader requires all four or
// none. The version byte restates whether the large sections are there,
// so a reader that predates them fails loudly instead of silently
// ignoring them; the two must agree or the file is rejected.
// Classic-only inference sets therefore keep the exact bytes a
// larges-unaware writer produced. (Identifiers prefixed v2 below are
// named after the version byte that introduced the container.)
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
	v2HeaderLen  = 32
	v2SectionLen = 32 // one section-table entry

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

var le = binary.LittleEndian

// kindLayout is the record-layout descriptor of one kind of community
// key: the row of the table above. The classifier's section writer, the
// accessors and verify are written once against it. A further kind of
// key costs its Key methods, one kindLayout value and four section
// kinds.
type kindLayout[K Key[K]] struct {
	name string // prefixes "clusters section", "lookup record" … in errors

	secStats, secClusters, secMembers, secLookup uint32

	statsLen   int // stats section length
	countersAt int // i64 action, information, observed

	clusterLen int // cluster record length; bounds at 0
	labelAt    int // u8 label, u8 flags
	membersAt  int // u32 memberStart, u32 memberCount
	ratioAt    int // f64 ratio, i64 onPathSum, i64 offPathSum

	recLen   int // member and lookup record length; key at 0
	countsAt int // i64 onPath, i64 offPath; a lookup's i32 cluster is at countsAt-4

	// The key codec. A record's key is its first keyWords (at most
	// three) u32 words, most significant first, so comparing records word
	// by word is Key.Compare: binary searches never decode a key. (Three
	// results, not an array: they come back in registers on the verdict
	// hot path.)
	keyWords int
	words    func(k K) (w0, w1, w2 uint32)
	key      func(w0, w1, w2 uint32) K

	putBounds func(b []byte, alpha, fn, lo, hi uint32)
	bounds    func(b []byte) (alpha, fn, lo, hi uint32)
}

// keyWordsOf returns a key's words as an array.
func (l *kindLayout[K]) keyWordsOf(k K) (w [3]uint32) {
	w[0], w[1], w[2] = l.words(k)
	return w
}

var classicLayout = kindLayout[bgp.Community]{
	secStats: secStats, secClusters: secClusters, secMembers: secMembers, secLookup: secLookup,
	statsLen: 64, countersAt: 24,
	clusterLen: 48, labelAt: 6, membersAt: 8, ratioAt: 16,
	recLen: 24, countsAt: 8,
	keyWords: 1,
	words:    func(c bgp.Community) (w0, w1, w2 uint32) { return uint32(c), 0, 0 },
	key:      func(w0, _, _ uint32) bgp.Community { return bgp.Community(w0) },
	putBounds: func(b []byte, alpha, _, lo, hi uint32) {
		le.PutUint16(b[0:], uint16(alpha))
		le.PutUint16(b[2:], uint16(lo))
		le.PutUint16(b[4:], uint16(hi))
	},
	bounds: func(b []byte) (alpha, fn, lo, hi uint32) {
		return uint32(le.Uint16(b[0:])), 0, uint32(le.Uint16(b[2:])), uint32(le.Uint16(b[4:]))
	},
}

var largeLayout = kindLayout[bgp.LargeCommunity]{
	name:     "large ",
	secStats: secLargeStats, secClusters: secLargeClusters, secMembers: secLargeMembers, secLookup: secLargeLookup,
	statsLen: 32, countersAt: 0,
	clusterLen: 56, labelAt: 16, membersAt: 20, ratioAt: 32,
	recLen: 32, countsAt: 16,
	keyWords: 3,
	words: func(lc bgp.LargeCommunity) (w0, w1, w2 uint32) {
		return lc.GlobalAdmin, lc.LocalData1, lc.LocalData2
	},
	key: func(w0, w1, w2 uint32) bgp.LargeCommunity {
		return bgp.LargeCommunity{GlobalAdmin: w0, LocalData1: w1, LocalData2: w2}
	},
	putBounds: func(b []byte, alpha, fn, lo, hi uint32) {
		le.PutUint32(b[0:], alpha)
		le.PutUint32(b[4:], fn)
		le.PutUint32(b[8:], lo)
		le.PutUint32(b[12:], hi)
	},
	bounds: func(b []byte) (alpha, fn, lo, hi uint32) {
		return le.Uint32(b[0:]), le.Uint32(b[4:]), le.Uint32(b[8:]), le.Uint32(b[12:])
	},
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// section is one entry of the table being written.
type section struct {
	kind uint32
	body []byte
}

// putStats writes a member or lookup record's key and counts.
func (l *kindLayout[K]) putStats(rec []byte, st *Stats[K]) {
	w := l.keyWordsOf(st.Comm)
	for i := 0; i < l.keyWords; i++ {
		le.PutUint32(rec[4*i:], w[i])
	}
	le.PutUint64(rec[l.countsAt:], uint64(int64(st.OnPath)))
	le.PutUint64(rec[l.countsAt+8:], uint64(int64(st.OffPath)))
}

// putCluster writes a cluster record whose Size members start at member
// record memberStart.
func (l *kindLayout[K]) putCluster(rec []byte, cs *ClusterSummary, memberStart int) {
	l.putBounds(rec, cs.Alpha, cs.Fn, cs.Lo, cs.Hi)
	rec[l.labelAt] = byte(cs.Label)
	if cs.PureOnPath {
		rec[l.labelAt+1] |= v2ClusterPureOnPath
	}
	if cs.PureOffPath {
		rec[l.labelAt+1] |= v2ClusterPureOffPath
	}
	le.PutUint32(rec[l.membersAt:], uint32(memberStart))
	le.PutUint32(rec[l.membersAt+4:], uint32(cs.Size))
	le.PutUint64(rec[l.ratioAt:], math.Float64bits(cs.Ratio))
	le.PutUint64(rec[l.ratioAt+8:], uint64(cs.OnPath))
	le.PutUint64(rec[l.ratioAt+16:], uint64(cs.OffPath))
}

// sections lists the view's four sections for the writer.
func (v *kindView[K]) sections() []section {
	l := v.lay
	return []section{{l.secStats, v.stats}, {l.secClusters, v.clusters}, {l.secMembers, v.members}, {l.secLookup, v.lookup}}
}

// WriteSnapshotFlat serializes the inferences and meta into w: the meta
// block, then the sections the inferences already are. The output is
// deterministic: identical inferences produce identical bytes. The large
// sections (and version byte 3) are written iff large-community
// inferences are present, so classic-only sets keep the bytes a
// larges-unaware writer produced.
func WriteSnapshotFlat(w io.Writer, inf *Inferences, meta SnapshotMeta) error {
	var metaBuf bytes.Buffer
	if err := gob.NewEncoder(&metaBuf).Encode(&meta); err != nil {
		return fmt.Errorf("snapshot: encode meta: %w", err)
	}
	sections := append([]section{{secMeta, metaBuf.Bytes()}}, inf.sections()...)
	version := byte(snapshotVersionClassic)
	if inf.large.Observed() > 0 {
		version = snapshotVersionLarge
		sections = append(sections, inf.large.sections()...)
	}

	// Assemble the section table; every section starts 8-byte aligned.
	tableLen := len(sections) * v2SectionLen
	table := make([]byte, 0, tableLen)
	totalSize := v2HeaderLen + tableLen
	offsets := make([]int, len(sections))
	for i, s := range sections {
		totalSize = align8(totalSize)
		offsets[i] = totalSize
		totalSize += len(s.body)
		var ent [v2SectionLen]byte
		le.PutUint32(ent[0:], s.kind)
		le.PutUint64(ent[8:], uint64(offsets[i]))
		le.PutUint64(ent[16:], uint64(len(s.body)))
		le.PutUint32(ent[24:], crc32.ChecksumIEEE(s.body))
		table = append(table, ent[:]...)
	}

	var hdr [v2HeaderLen]byte
	copy(hdr[:9], snapshotMagic[:])
	hdr[9] = version
	le.PutUint64(hdr[16:], uint64(totalSize))
	le.PutUint32(hdr[24:], uint32(len(sections)))
	le.PutUint32(hdr[28:], crc32.ChecksumIEEE(table))

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

// kindView is one kind's four sections, and the KindSource over them:
// slices of the classifier's buffer or of a snapshot file's bytes, read
// in place; nothing per-record is decoded ahead of a query. A view with
// no sections (a file without the kind's) is an empty inference set.
type kindView[K Key[K]] struct {
	lay *kindLayout[K]

	stats    []byte // whole stats section; empty or lay.statsLen bytes
	clusters []byte // whole clusters section; len % lay.clusterLen == 0
	members  []byte // whole members section; len % lay.recLen == 0
	lookup   []byte // whole lookup section; len % lay.recLen == 0
}

// snapV2 is a parsed snapshot file — an mmap-ed region or a heap buffer:
// its bytes, its decoded provenance block, and the inferences its
// sections are. (Named after the version byte that introduced the
// container.)
type snapV2 struct {
	Inferences
	data []byte
	meta SnapshotMeta
}

// attach points the view at its kind's sections among bodies (by
// section kind) and checks the stats counters against them; present
// reports how many of the four are there. Nothing is attached unless
// all are.
func (v *kindView[K]) attach(l *kindLayout[K], bodies map[uint32][]byte) (present int, err error) {
	v.lay = l
	for _, kind := range []uint32{l.secStats, l.secClusters, l.secMembers, l.secLookup} {
		if _, ok := bodies[kind]; ok {
			present++
		}
	}
	if present != 4 {
		return present, nil
	}
	stats := bodies[l.secStats]
	if len(stats) != l.statsLen {
		return present, fmt.Errorf("snapshot: %sstats section is %d bytes, want %d", l.name, len(stats), l.statsLen)
	}
	for _, sec := range []struct {
		name   string
		view   *[]byte
		kind   uint32
		recLen int
	}{
		{"clusters", &v.clusters, l.secClusters, l.clusterLen},
		{"members", &v.members, l.secMembers, l.recLen},
		{"lookup", &v.lookup, l.secLookup, l.recLen},
	} {
		body := bodies[sec.kind]
		if len(body)%sec.recLen != 0 {
			return present, fmt.Errorf("snapshot: %s%s section length %d not a multiple of %d", l.name, sec.name, len(body), sec.recLen)
		}
		*sec.view = body
	}
	v.stats = stats
	action, information, observed := v.counter(0), v.counter(1), v.counter(2)
	if observed != int64(v.lookupCount()) {
		return present, fmt.Errorf("snapshot: stats claim %d observed %scommunities, lookup section holds %d",
			observed, l.name, v.lookupCount())
	}
	// Each counter is bounded by observed before they are added, so the
	// sum cannot wrap.
	if action < 0 || information < 0 || action > observed || information > observed || action+information > observed {
		return present, fmt.Errorf("snapshot: implausible %scounters (action %d, information %d, observed %d)",
			l.name, action, information, observed)
	}
	return present, nil
}

// counter decodes the stats section's i-th counter (action, information,
// observed); a view without sections counts nothing.
func (v *kindView[K]) counter(i int) int64 {
	if len(v.stats) == 0 {
		return 0
	}
	return int64(le.Uint64(v.stats[v.lay.countersAt+8*i:]))
}

// clone copies the view's sections out of their backing bytes.
func (v kindView[K]) clone() kindView[K] {
	for _, b := range []*[]byte{&v.stats, &v.clusters, &v.members, &v.lookup} {
		*b = bytes.Clone(*b)
	}
	return v
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
	if size := le.Uint64(data[16:]); size != uint64(len(data)) {
		return nil, fmt.Errorf("snapshot: file size %d does not match header %d (truncated?)",
			len(data), size)
	}
	nsec := int(le.Uint32(data[24:]))
	if nsec <= 0 || nsec > v2MaxSections {
		return nil, fmt.Errorf("snapshot: implausible section count %d", nsec)
	}
	tableEnd := v2HeaderLen + nsec*v2SectionLen
	if tableEnd > len(data) {
		return nil, fmt.Errorf("snapshot: section table extends past file end")
	}
	table := data[v2HeaderLen:tableEnd]
	if got, want := crc32.ChecksumIEEE(table), le.Uint32(data[28:]); got != want {
		return nil, fmt.Errorf("snapshot: section table checksum mismatch (corrupt file): got %08x want %08x", got, want)
	}

	// Sections of unknown kind are carried but never read: future writers
	// may append kinds old readers do not understand.
	bodies := make(map[uint32][]byte, nsec)
	for i := 0; i < nsec; i++ {
		ent := table[i*v2SectionLen:]
		kind := le.Uint32(ent[0:])
		off := le.Uint64(ent[8:])
		length := le.Uint64(ent[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("snapshot: section %d (kind %d) misaligned at offset %d", i, kind, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("snapshot: section %d (kind %d) [%d,+%d) extends past file end", i, kind, off, length)
		}
		if _, dup := bodies[kind]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section kind %d", kind)
		}
		bodies[kind] = data[off : off+length]
	}

	s := &snapV2{data: data}
	nClassic, err := s.kindView.attach(&classicLayout, bodies)
	if err != nil {
		return nil, err
	}
	metaRaw, haveMeta := bodies[secMeta]
	if !haveMeta || nClassic != 4 {
		return nil, fmt.Errorf("snapshot: missing required section (meta/stats/clusters/members/lookup)")
	}
	nLarge, err := s.large.attach(&largeLayout, bodies)
	if err != nil {
		return nil, err
	}
	if nLarge != 0 && nLarge != 4 {
		return nil, fmt.Errorf("snapshot: %d of the 4 large sections present (lstats/lclusters/lmembers/llookup go together)", nLarge)
	}
	if version := data[9]; (version == snapshotVersionLarge) != (nLarge == 4) {
		return nil, fmt.Errorf("snapshot: version byte %d with %d large sections (version is %d iff they are present)",
			version, nLarge, snapshotVersionLarge)
	}
	if err := gob.NewDecoder(bytes.NewReader(metaRaw)).Decode(&s.meta); err != nil {
		return nil, fmt.Errorf("snapshot: decode meta: %w", err)
	}
	return s, nil
}

func (v *kindView[K]) clusterCount() int { return len(v.clusters) / v.lay.clusterLen }
func (v *kindView[K]) lookupCount() int  { return len(v.lookup) / v.lay.recLen }
func (v *kindView[K]) memberCount() int  { return len(v.members) / v.lay.recLen }

// counts decodes the unique-path counts of a member or lookup record.
func (l *kindLayout[K]) counts(rec []byte) (on, off int) {
	return int(int64(le.Uint64(rec[l.countsAt:]))), int(int64(le.Uint64(rec[l.countsAt+8:])))
}

// stats decodes a member or lookup record: its key and counts.
func (l *kindLayout[K]) stats(rec []byte) (st Stats[K]) {
	var w [3]uint32
	for i := 0; i < l.keyWords; i++ {
		w[i] = le.Uint32(rec[4*i:])
	}
	st.Comm = l.key(w[0], w[1], w[2])
	st.OnPath, st.OffPath = l.counts(rec)
	return st
}

// lookupRec returns the i-th lookup record and its cluster field (≥0:
// cluster index; <0: negated ExcludeReason) straight from the backing
// pages. i must be in [0, lookupCount()).
func (v *kindView[K]) lookupRec(i int) (rec []byte, cluster int32) {
	rec = v.lookup[i*v.lay.recLen:][:v.lay.recLen]
	return rec, int32(le.Uint32(rec[v.lay.countsAt-4:]))
}

// findLookup binary-searches the key-sorted lookup section.
func (v *kindView[K]) findLookup(k K) (int, bool) {
	l := v.lay
	want, n, recLen := l.keyWordsOf(k), l.keyWords, l.recLen
	lo, hi := 0, v.lookupCount()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		rec := v.lookup[mid*recLen:]
		a, b := le.Uint32(rec), want[0]
		for i := 1; a == b && i < n; i++ {
			a, b = le.Uint32(rec[4*i:]), want[i]
		}
		switch {
		case a < b:
			lo = mid + 1
		case a > b:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// clusterRec returns the i-th cluster record, nil when i is out of range
// (possible with a corrupt lookup section pointing past the cluster
// array).
func (v *kindView[K]) clusterRec(i int) []byte {
	if i < 0 || i >= v.clusterCount() {
		return nil
	}
	return v.clusters[i*v.lay.clusterLen:][:v.lay.clusterLen]
}

// clusterSummary decodes the i-th cluster record into *cs, in place so
// that a verdict is filled without copying the summary around; it
// reports false, leaving *cs alone, when i is out of range.
func (v *kindView[K]) clusterSummary(i int, cs *ClusterSummary) bool {
	b, l := v.clusterRec(i), v.lay
	if b == nil {
		return false
	}
	cs.Alpha, cs.Fn, cs.Lo, cs.Hi = l.bounds(b)
	cs.Label = dict.Category(int8(b[l.labelAt]))
	cs.PureOnPath = b[l.labelAt+1]&v2ClusterPureOnPath != 0
	cs.PureOffPath = b[l.labelAt+1]&v2ClusterPureOffPath != 0
	cs.Size = int(le.Uint32(b[l.membersAt+4:]))
	cs.Ratio = math.Float64frombits(le.Uint64(b[l.ratioAt:]))
	cs.OnPath = int64(le.Uint64(b[l.ratioAt+8:]))
	cs.OffPath = int64(le.Uint64(b[l.ratioAt+16:]))
	return true
}

// clusterLabel reads just the i-th cluster's label byte.
func (v *kindView[K]) clusterLabel(i int) dict.Category {
	b := v.clusterRec(i)
	if b == nil {
		return dict.CatUnknown
	}
	return dict.Category(int8(b[v.lay.labelAt]))
}

// clusterMemberRange returns the i-th cluster's member index range,
// clamped to the members section so corrupt records cannot walk out of
// bounds.
func (v *kindView[K]) clusterMemberRange(i int) (start, count int) {
	b := v.clusterRec(i)
	if b == nil {
		return 0, 0
	}
	start = int(le.Uint32(b[v.lay.membersAt:]))
	count = int(le.Uint32(b[v.lay.membersAt+4:]))
	total := v.memberCount()
	if start > total {
		return 0, 0
	}
	return start, min(count, total-start)
}

// memberAt decodes one member record. i must be in [0, memberCount()).
func (v *kindView[K]) memberAt(i int) Stats[K] {
	return v.lay.stats(v.members[i*v.lay.recLen:][:v.lay.recLen])
}

// excludeReason decodes a lookup record's negative cluster field,
// clamping values no writer produces to ExcludeUnobserved.
func excludeReason(cluster int32) ExcludeReason {
	return ExcludeReason(min(-int64(cluster), int64(ExcludeUnobserved)))
}

// VerifySnapshot runs the full integrity pass a plain open skips for
// O(1) cold start: per-section CRCs, cluster- and lookup-section sort
// order, and cluster member/index ranges. The streamed reader, a replica
// about to install a network-fetched file, and snapverify run it; a
// local OpenSnapshotMmap trusts the writer plus the table checksum.
func VerifySnapshot(data []byte) error {
	s, err := parseSnapshotV2(data)
	if err != nil {
		return err
	}
	return s.Verify()
}

// Verify is VerifySnapshot over an already parsed view.
func (s *snapV2) Verify() error {
	data := s.data
	nsec := int(le.Uint32(data[24:]))
	table := data[v2HeaderLen : v2HeaderLen+nsec*v2SectionLen]
	for i := 0; i < nsec; i++ {
		ent := table[i*v2SectionLen:]
		kind := le.Uint32(ent[0:])
		off := le.Uint64(ent[8:])
		length := le.Uint64(ent[16:])
		want := le.Uint32(ent[24:])
		if got := crc32.ChecksumIEEE(data[off : off+length]); got != want {
			return fmt.Errorf("snapshot: section kind %d checksum mismatch (corrupt file): got %08x want %08x", kind, got, want)
		}
	}
	if err := s.kindView.verify(); err != nil {
		return err
	}
	return s.large.verify()
}

// verify checks the invariants the accessors' binary searches and index
// arithmetic rely on: lookup records strictly sorted by key and pointing
// at real clusters or known exclusion reasons, cluster records strictly
// sorted by (alpha, fn, lo) with member ranges inside the members
// section — and the counters every query reads, which must be the lookup
// section's tally: one member record per classified lookup record, and
// the action and information labels among them.
func (v *kindView[K]) verify() error {
	name := v.lay.name
	var prev K
	var classified int
	var labels [2]int64 // action, information
	for i, n := 0, v.lookupCount(); i < n; i++ {
		rec, cluster := v.lookupRec(i)
		k := v.lay.stats(rec).Comm
		if i > 0 && k.Compare(prev) <= 0 {
			return fmt.Errorf("snapshot: %slookup section not strictly sorted at record %d", name, i)
		}
		prev = k
		if cluster >= 0 {
			if int(cluster) >= v.clusterCount() {
				return fmt.Errorf("snapshot: %slookup record %d references cluster %d of %d", name, i, cluster, v.clusterCount())
			}
			classified++
			switch v.clusterLabel(int(cluster)) {
			case dict.CatAction:
				labels[0]++
			case dict.CatInformation:
				labels[1]++
			}
		} else if -int64(cluster) > int64(ExcludeNeverOnPath) { // int64: -MinInt32 wraps in int32
			return fmt.Errorf("snapshot: %slookup record %d has unknown exclusion reason %d", name, i, -int64(cluster))
		}
	}
	if classified != v.memberCount() {
		return fmt.Errorf("snapshot: %slookup section classifies %d communities, members section holds %d",
			name, classified, v.memberCount())
	}
	if labels[0] != v.counter(0) || labels[1] != v.counter(1) {
		return fmt.Errorf("snapshot: %sstats claim %d action and %d information communities, lookup section labels %d and %d",
			name, v.counter(0), v.counter(1), labels[0], labels[1])
	}
	var prevCluster ClusterSummary
	for i, n := 0, v.clusterCount(); i < n; i++ {
		cs := v.ClusterSummaryAt(i)
		if i > 0 && cmp.Or(cmp.Compare(cs.Alpha, prevCluster.Alpha), cmp.Compare(cs.Fn, prevCluster.Fn),
			cmp.Compare(cs.Lo, prevCluster.Lo)) <= 0 {
			return fmt.Errorf("snapshot: %sclusters section not strictly sorted by (alpha, fn, lo) at record %d", name, i)
		}
		prevCluster = cs
		b := v.clusterRec(i)
		start, count := int(le.Uint32(b[v.lay.membersAt:])), int(le.Uint32(b[v.lay.membersAt+4:]))
		if start > v.memberCount() || count > v.memberCount()-start {
			return fmt.Errorf("snapshot: %scluster %d members [%d,+%d) exceed member section (%d records)",
				name, i, start, count, v.memberCount())
		}
	}
	return nil
}
