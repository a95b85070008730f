// Package mrt implements the MRT routing-information export format
// (RFC 6396) used by RouteViews and RIPE RIS archives: TABLE_DUMP_V2 RIB
// snapshots and BGP4MP update messages. It provides a streaming record
// reader, typed record parsers, and a writer, all from scratch on the
// standard library.
package mrt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"

	"bgpintent/internal/bgp"
)

// MRT record types (RFC 6396 §4).
const (
	TypeTableDump   uint16 = 12
	TypeTableDumpV2 uint16 = 13
	TypeBGP4MP      uint16 = 16
	TypeBGP4MPET    uint16 = 17
)

// TABLE_DUMP_V2 subtypes (RFC 6396 §4.3).
const (
	SubtypePeerIndexTable uint16 = 1
	SubtypeRIBIPv4Unicast uint16 = 2
	SubtypeRIBIPv6Unicast uint16 = 4
)

// BGP4MP subtypes (RFC 6396 §4.4).
const (
	SubtypeBGP4MPMessage    uint16 = 1
	SubtypeBGP4MPMessageAS4 uint16 = 4
)

// RecordName names a record's type for per-type record counts: the
// TABLE_DUMP_V2 peer table and RIBs, BGP4MP of any subtype, and
// "type=T/subtype=S" for the rest.
func RecordName(typ, subtype uint16) string {
	switch {
	case IsPeerIndexTable(typ, subtype):
		return "TABLE_DUMP_V2/PEER_INDEX_TABLE"
	case typ == TypeTableDumpV2 && (subtype == SubtypeRIBIPv4Unicast || subtype == SubtypeRIBIPv6Unicast):
		return "TABLE_DUMP_V2/RIB"
	case typ == TypeBGP4MP || typ == TypeBGP4MPET:
		return "BGP4MP"
	}
	return fmt.Sprintf("type=%d/subtype=%d", typ, subtype)
}

// AFI values used in BGP4MP headers.
const (
	AFIIPv4 uint16 = 1
	AFIIPv6 uint16 = 2
)

// maxRecordLen bounds a single MRT record body; real archives stay far
// below this, and the cap keeps a corrupt length field from causing a
// giant allocation.
const maxRecordLen = 16 << 20

// recordHeaderLen is the fixed MRT common-header size.
const recordHeaderLen = 12

// Record is one MRT record: the common header plus its undecoded body.
type Record struct {
	Offset    int64  // byte offset of the record header in the stream
	Timestamp uint32 // seconds since the Unix epoch
	Type      uint16
	Subtype   uint16
	Body      []byte
}

// End returns the stream offset just past the record: where the reader
// stood once it had framed it.
func (r *Record) End() int64 { return r.Offset + recordHeaderLen + int64(len(r.Body)) }

// Stats counts decode outcomes over one MRT stream (or, merged, over a
// whole corpus load). The reader fills the framing fields; the decoders
// (RIBDecoder, UpdateDecoder) fill the record-decode fields. A nil *Stats is accepted everywhere
// and disables collection.
type Stats struct {
	Records      int   // records framed by the reader
	Decoded      int   // framed records whose body decoded cleanly
	Skipped      int   // records (or RIB entries) dropped as undecodable
	Resyncs      int   // framing failures recovered by resynchronization
	Truncated    int   // streams that ended in the middle of a record
	BytesRead    int64 // bytes consumed from the stream
	BytesSkipped int64 // bytes discarded while hunting for a valid header

	// UnknownTypes counts records of types/subtypes the decoders do not
	// decode, keyed "type/subtype". Unknown records are normal in real
	// archives and do not count against the error rate.
	UnknownTypes map[string]int
	// SkipReasons breaks Skipped down by cause.
	SkipReasons map[string]int
}

func (s *Stats) addRecord() {
	if s != nil {
		s.Records++
	}
}

func (s *Stats) noteDecoded() {
	if s != nil {
		s.Decoded++
	}
}

func (s *Stats) noteSkip(reason string) {
	if s == nil {
		return
	}
	s.Skipped++
	if s.SkipReasons == nil {
		s.SkipReasons = make(map[string]int)
	}
	s.SkipReasons[reason]++
}

func (s *Stats) noteUnknown(typ, subtype uint16) {
	if s == nil {
		return
	}
	if s.UnknownTypes == nil {
		s.UnknownTypes = make(map[string]int)
	}
	s.UnknownTypes[fmt.Sprintf("%d/%d", typ, subtype)]++
}

// Attempts returns the number of record-level framing and decode
// attempts the error rate is measured over.
func (s *Stats) Attempts() int {
	if s == nil {
		return 0
	}
	return s.Records + s.Resyncs + s.Truncated
}

// ErrorRate returns the fraction of attempts that hit corruption:
// undecodable records, resyncs, and truncated tails. 0 for an empty
// stream; capped at 1.
func (s *Stats) ErrorRate() float64 {
	att := s.Attempts()
	if att == 0 {
		return 0
	}
	rate := float64(s.Skipped+s.Resyncs+s.Truncated) / float64(att)
	if rate > 1 {
		return 1
	}
	return rate
}

// Clean reports whether the stream decoded without any corruption
// events (unknown record types are still clean).
func (s *Stats) Clean() bool {
	return s == nil || (s.Skipped == 0 && s.Resyncs == 0 && s.Truncated == 0)
}

// Merge accumulates o into s.
func (s *Stats) Merge(o *Stats) {
	if s == nil || o == nil {
		return
	}
	s.Records += o.Records
	s.Decoded += o.Decoded
	s.Skipped += o.Skipped
	s.Resyncs += o.Resyncs
	s.Truncated += o.Truncated
	s.BytesRead += o.BytesRead
	s.BytesSkipped += o.BytesSkipped
	for k, v := range o.UnknownTypes {
		if s.UnknownTypes == nil {
			s.UnknownTypes = make(map[string]int)
		}
		s.UnknownTypes[k] += v
	}
	for k, v := range o.SkipReasons {
		if s.SkipReasons == nil {
			s.SkipReasons = make(map[string]int)
		}
		s.SkipReasons[k] += v
	}
}

// UnknownCount returns the total number of unknown-type records.
func (s *Stats) UnknownCount() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, v := range s.UnknownTypes {
		n += v
	}
	return n
}

// Reader streams MRT records from an io.Reader.
//
// In strict mode (NewReader) any malformed record is a sticky error, as
// RFC 6396 framing demands. In lenient mode (NewLenientReader) framing
// failures — impossible length fields, truncated tails — skip forward
// to the next plausible record header instead of poisoning the stream,
// and the damage is tallied in a Stats.
type Reader struct {
	br      *bufio.Reader
	err     error
	offset  int64
	lenient bool
	stats   *Stats
	rejects int
	reuse   bool
	rec     Record
}

// ReuseRecord makes Next return the same Record every time, with its
// body buffer recycled between calls: a record is then valid only until
// the following Next. The scan loops enable this — they fully decode each
// record before advancing — but callers that retain records must not.
func (r *Reader) ReuseRecord() { r.reuse = true }

// NewReader returns a strict streaming MRT record reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// NewLenientReader returns a reader that skips and resynchronizes over
// corrupt framing instead of failing. stats may be nil.
func NewLenientReader(r io.Reader, stats *Stats) *Reader {
	rd := NewReader(r)
	rd.lenient = true
	rd.stats = stats
	return rd
}

// Offset returns the byte offset of the next unread byte, counted over
// the (decompressed) stream.
func (r *Reader) Offset() int64 { return r.offset }

// discard consumes n buffered bytes, keeping the offset accurate.
func (r *Reader) discard(n int) {
	consumed, _ := r.br.Discard(n)
	r.offset += int64(consumed)
	if r.stats != nil {
		r.stats.BytesRead += int64(consumed)
	}
}

// skip consumes n buffered bytes and counts them as corruption loss.
func (r *Reader) skip(n int) {
	if r.stats != nil {
		r.stats.BytesSkipped += int64(n)
	}
	r.discard(n)
}

// Next returns the next record, or io.EOF at a clean end of stream. Any
// error is sticky. In lenient mode the only errors are io.EOF and
// failures of the underlying reader.
func (r *Reader) Next() (*Record, error) {
	if r.err != nil {
		return nil, r.err
	}
	rec, err := r.next()
	if err != nil {
		r.err = err
		return nil, err
	}
	return rec, nil
}

func (r *Reader) next() (*Record, error) {
	for {
		hdr, err := r.br.Peek(recordHeaderLen)
		if err != nil {
			if len(hdr) == 0 {
				return nil, err // io.EOF at a record boundary, or a read error
			}
			if err != io.EOF {
				return nil, err
			}
			// Partial header at end of stream.
			if r.lenient {
				if r.stats != nil {
					r.stats.Truncated++
				}
				r.skip(len(hdr))
				return nil, io.EOF
			}
			return nil, fmt.Errorf("mrt: truncated record header at offset %d: %w", r.offset, io.ErrUnexpectedEOF)
		}
		// hdr aliases the bufio buffer, which the deeper Peek inside
		// frameLooksSound may slide; copy it before looking ahead.
		var h [recordHeaderLen]byte
		copy(h[:], hdr)
		n := binary.BigEndian.Uint32(h[8:12])
		if n > maxRecordLen {
			if !r.lenient {
				return nil, fmt.Errorf("mrt: record length %d exceeds limit at offset %d", n, r.offset)
			}
			if err := r.resync(); err != nil {
				return nil, err
			}
			continue
		}
		if r.lenient && int(n)+recordHeaderLen <= resyncWindow {
			if win, _ := r.br.Peek(recordHeaderLen + int(n)); len(win) < recordHeaderLen+int(n) {
				// The stream ends inside this frame. Either the tail
				// really is cut, or a corrupt length points past the
				// end of the file; in both cases hunt for a later
				// record instead of swallowing everything to EOF.
				if r.stats != nil {
					r.stats.Truncated++
				}
				if err := r.hunt(); err != nil {
					return nil, err
				}
				continue
			}
		}
		if r.lenient && !r.frameLooksSound(int(n)) {
			// The header that would follow this frame announces an
			// impossible length, so this record's own length field is
			// almost certainly corrupt (a truncated or bit-flipped
			// record would otherwise drag the reader out of sync and
			// swallow everything up to end of file). Strict mode would
			// fail on that following header anyway; resync now instead
			// of consuming a bogus frame.
			if err := r.resync(); err != nil {
				return nil, err
			}
			continue
		}
		rec := &r.rec
		if !r.reuse {
			rec = &Record{}
		}
		if cap(rec.Body) < int(n) {
			rec.Body = make([]byte, n)
		}
		rec.Offset = r.offset
		rec.Timestamp = binary.BigEndian.Uint32(h[0:4])
		rec.Type = binary.BigEndian.Uint16(h[4:6])
		rec.Subtype = binary.BigEndian.Uint16(h[6:8])
		rec.Body = rec.Body[:n]
		r.discard(recordHeaderLen)
		m, err := io.ReadFull(r.br, rec.Body)
		r.offset += int64(m)
		if r.stats != nil {
			r.stats.BytesRead += int64(m)
		}
		if err != nil {
			if r.lenient {
				// The stream ends inside this record: salvage nothing from
				// it, report a truncated tail.
				if r.stats != nil {
					r.stats.Truncated++
					r.stats.BytesSkipped += int64(recordHeaderLen + m)
				}
				return nil, io.EOF
			}
			return nil, fmt.Errorf("mrt: truncated record body at offset %d: %w", rec.Offset, err)
		}
		r.stats.addRecord()
		return rec, nil
	}
}

// frameLooksSound cross-checks a candidate frame of body length n
// against the 12 bytes that would follow it: if those carry a length
// field over the cap they cannot be a record header, which means the
// current length field is lying about where the next record starts (a
// truncated or bit-flipped record would otherwise drag the reader out
// of sync and silently swallow real records). Only a definite
// contradiction returns false — the follow-on position is exactly where
// strict mode would frame the next record, and strict mode dies on an
// over-cap length, so at a trusted boundary lenient mode still takes
// exactly what strict mode takes. The check is deliberately weaker than
// plausibleHeader: a sane length with an unknown type must pass,
// because strict mode would read it happily. One hop only: looking
// deeper would let a single corrupt record ahead condemn a run of good
// frames before it. Frames whose follow-on header extends past the
// peekable window, or past a clean end of stream, are accepted.
func (r *Reader) frameLooksSound(n int) bool {
	total := recordHeaderLen + n + recordHeaderLen
	win, _ := r.br.Peek(total)
	if len(win) < total {
		return true
	}
	next := win[recordHeaderLen+n:]
	return binary.BigEndian.Uint32(next[8:12]) <= maxRecordLen
}

// maxRejects bounds how many record pushbacks one stream will honor;
// beyond it Reject degrades to today's skip-the-record behavior, which
// keeps adversarial input from stacking pushback readers without bound.
const maxRejects = 64

// Reject pushes the most recently returned record's wire bytes back
// into the stream and re-synchronizes inside them. Lenient scan loops
// call it when a decoder skips a record that framed cleanly: after
// mid-record truncation the reader silently drifts out of alignment,
// and the first misframed record typically has real records swallowed
// inside its body — rescanning the rejected bytes recovers them and
// re-anchors the stream. Calling it with anything but the last record
// returned corrupts offset accounting. No-op in strict mode, on bodies
// too small to hide a record, and past the pushback cap.
func (r *Reader) Reject(rec *Record) {
	if !r.lenient || rec == nil || len(rec.Body) < 2*recordHeaderLen || r.rejects >= maxRejects || r.err != nil {
		return
	}
	r.rejects++
	wire := make([]byte, recordHeaderLen+len(rec.Body))
	binary.BigEndian.PutUint32(wire[0:4], rec.Timestamp)
	binary.BigEndian.PutUint16(wire[4:6], rec.Type)
	binary.BigEndian.PutUint16(wire[6:8], rec.Subtype)
	binary.BigEndian.PutUint32(wire[8:12], uint32(len(rec.Body)))
	copy(wire[recordHeaderLen:], rec.Body)
	// Rewind the accounting and splice the bytes back in front of the
	// stream; the hunt below re-counts whatever it consumes.
	r.offset -= int64(len(wire))
	if r.stats != nil {
		r.stats.BytesRead -= int64(len(wire))
	}
	r.br = bufio.NewReaderSize(io.MultiReader(bytes.NewReader(wire), r.br), 1<<16)
	if err := r.hunt(); err != nil {
		r.err = err
	}
}

// resyncWindow is how far ahead resync scans per Peek; it matches the
// reader's buffer size.
const resyncWindow = 1 << 16

// resync discards bytes until the stream is positioned at a plausible
// MRT record header (see plausibleHeader): the recovery path after a
// corrupt length field. It always makes at least one byte of progress.
func (r *Reader) resync() error {
	if r.stats != nil {
		r.stats.Resyncs++
	}
	return r.hunt()
}

// hunt is resync's scan loop, also used for truncated-frame recovery
// (which counts against Truncated rather than Resyncs).
func (r *Reader) hunt() error {
	r.skip(1) // never re-match at the failure point
	for {
		win, err := r.br.Peek(resyncWindow)
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return err
		}
		if len(win) < recordHeaderLen {
			r.skip(len(win))
			return io.EOF
		}
		for i := 0; i+recordHeaderLen <= len(win); i++ {
			if plausibleAt(win, i) {
				r.skip(i)
				return nil
			}
		}
		// No candidate in the window: keep the last 11 bytes in case a
		// header straddles the boundary, and refill.
		r.skip(len(win) - (recordHeaderLen - 1))
		if err == io.EOF {
			r.skip(recordHeaderLen - 1)
			return io.EOF
		}
	}
}

// plausibleHeader reports whether the 12 bytes look like the header of
// a real MRT record: a known type, a valid subtype for it, and a length
// under the cap. Used only while hunting for a resync point — at a
// trusted record boundary the reader accepts exactly what strict mode
// accepts.
func plausibleHeader(hdr []byte) bool {
	typ := binary.BigEndian.Uint16(hdr[4:6])
	sub := binary.BigEndian.Uint16(hdr[6:8])
	if binary.BigEndian.Uint32(hdr[8:12]) > maxRecordLen {
		return false
	}
	switch typ {
	case TypeTableDumpV2:
		// Subtypes 1-6: peer index, RIB unicast/multicast v4/v6, generic
		// (RFC 6396); 7: GEO_PEER_TABLE (RFC 6397); 8-12: the ADD-PATH
		// forms of the RIB subtypes (RFC 8050).
		return sub >= 1 && sub <= 12
	case TypeBGP4MP, TypeBGP4MPET:
		// RFC 6396 + RFC 8050 define subtypes 0-11.
		return sub <= 11
	case TypeTableDump:
		return sub == 1 || sub == 2 // AFI IPv4 / IPv6
	}
	return false
}

// plausibleAt checks a candidate header at win[i:], and when the whole
// candidate record fits in the window, demands that it is followed by
// another plausible header or the end of the window.
func plausibleAt(win []byte, i int) bool {
	if !plausibleHeader(win[i : i+recordHeaderLen]) {
		return false
	}
	next := i + recordHeaderLen + int(binary.BigEndian.Uint32(win[i+8:i+12]))
	if next+recordHeaderLen <= len(win) {
		return plausibleHeader(win[next : next+recordHeaderLen])
	}
	return true
}

// Writer emits MRT records to an io.Writer.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter returns an MRT record writer. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// WriteRecord emits one record with the given header fields.
func (w *Writer) WriteRecord(timestamp uint32, typ, subtype uint16, body []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], timestamp)
	binary.BigEndian.PutUint16(hdr[4:6], typ)
	binary.BigEndian.PutUint16(hdr[6:8], subtype)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.bw.Write(body)
	return err
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Peer is one entry of a TABLE_DUMP_V2 PEER_INDEX_TABLE: a vantage point
// (collector BGP session) whose RIB entries reference it by index.
type Peer struct {
	BGPID netip.Addr // peer BGP identifier (rendered as an IPv4 address)
	Addr  netip.Addr // peer IP address
	ASN   uint32     // peer AS number
}

// PeerIndexTable is the TABLE_DUMP_V2 preamble naming the collector and
// its peers.
type PeerIndexTable struct {
	CollectorBGPID netip.Addr
	ViewName       string
	Peers          []Peer
}

// Peer-type bits in the PEER_INDEX_TABLE entries.
const (
	peerTypeIPv6 = 0x01 // peer address is 16 octets
	peerTypeAS4  = 0x02 // peer ASN is 4 octets
)

// Encode serializes the peer index table body. Peers are always written
// with 4-octet ASNs; addresses use their native family.
func (t *PeerIndexTable) Encode() []byte {
	var out []byte
	id := t.CollectorBGPID.As4()
	out = append(out, id[:]...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(t.ViewName)))
	out = append(out, t.ViewName...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		ptype := byte(peerTypeAS4)
		if p.Addr.Is6() && !p.Addr.Is4In6() {
			ptype |= peerTypeIPv6
		}
		out = append(out, ptype)
		bid := p.BGPID.As4()
		out = append(out, bid[:]...)
		if ptype&peerTypeIPv6 != 0 {
			a := p.Addr.As16()
			out = append(out, a[:]...)
		} else {
			a := p.Addr.As4()
			out = append(out, a[:]...)
		}
		out = binary.BigEndian.AppendUint32(out, p.ASN)
	}
	return out
}

// ParsePeerIndexTable decodes a PEER_INDEX_TABLE record body.
func ParsePeerIndexTable(body []byte) (*PeerIndexTable, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("mrt: peer index table: short body (%d bytes)", len(body))
	}
	var t PeerIndexTable
	t.CollectorBGPID = netip.AddrFrom4([4]byte(body[0:4]))
	vlen := int(binary.BigEndian.Uint16(body[4:6]))
	body = body[6:]
	if len(body) < vlen+2 {
		return nil, fmt.Errorf("mrt: peer index table: truncated view name")
	}
	t.ViewName = string(body[:vlen])
	count := int(binary.BigEndian.Uint16(body[vlen : vlen+2]))
	body = body[vlen+2:]
	t.Peers = make([]Peer, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 5 {
			return nil, fmt.Errorf("mrt: peer index table: truncated peer %d", i)
		}
		ptype := body[0]
		var p Peer
		p.BGPID = netip.AddrFrom4([4]byte(body[1:5]))
		body = body[5:]
		alen := 4
		if ptype&peerTypeIPv6 != 0 {
			alen = 16
		}
		if len(body) < alen {
			return nil, fmt.Errorf("mrt: peer index table: truncated peer %d address", i)
		}
		addr, _ := netip.AddrFromSlice(body[:alen])
		p.Addr = addr
		body = body[alen:]
		if ptype&peerTypeAS4 != 0 {
			if len(body) < 4 {
				return nil, fmt.Errorf("mrt: peer index table: truncated peer %d ASN", i)
			}
			p.ASN = binary.BigEndian.Uint32(body[:4])
			body = body[4:]
		} else {
			if len(body) < 2 {
				return nil, fmt.Errorf("mrt: peer index table: truncated peer %d ASN", i)
			}
			p.ASN = uint32(binary.BigEndian.Uint16(body[:2]))
			body = body[2:]
		}
		t.Peers = append(t.Peers, p)
	}
	return &t, nil
}

// RIBEntry is one vantage point's view of a prefix in a TABLE_DUMP_V2 RIB
// record.
type RIBEntry struct {
	PeerIndex      uint16 // index into the PEER_INDEX_TABLE
	OriginatedTime uint32
	Attrs          bgp.PathAttributes
}

// RIB is a TABLE_DUMP_V2 RIB_IPV4_UNICAST (or IPv6) record: the set of
// vantage-point entries for one prefix.
type RIB struct {
	SequenceNumber uint32
	Prefix         bgp.Prefix
	Entries        []RIBEntry
}

// Encode serializes the RIB record body.
func (rib *RIB) Encode() ([]byte, error) {
	var out []byte
	out = binary.BigEndian.AppendUint32(out, rib.SequenceNumber)
	out = rib.Prefix.AppendWire(out)
	out = binary.BigEndian.AppendUint16(out, uint16(len(rib.Entries)))
	for _, e := range rib.Entries {
		out = binary.BigEndian.AppendUint16(out, e.PeerIndex)
		out = binary.BigEndian.AppendUint32(out, e.OriginatedTime)
		attrs := e.Attrs.EncodeAttrs()
		if len(attrs) > 0xffff {
			return nil, fmt.Errorf("mrt: RIB entry attributes exceed 65535 bytes")
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(attrs)))
		out = append(out, attrs...)
	}
	return out, nil
}

// ParseRIBInto decodes a RIB_IPV4_UNICAST or RIB_IPV6_UNICAST record
// body into a caller-owned RIB; subtype selects the address family. rib's
// previous contents are discarded, but its entry slice and each entry's
// attribute storage are reused, so a scan loop recycling one RIB runs
// allocation-free at steady state. On error rib's contents are
// unspecified.
func ParseRIBInto(subtype uint16, body []byte, rib *RIB) error {
	if len(body) < 4 {
		return fmt.Errorf("mrt: RIB: short body")
	}
	rib.SequenceNumber = binary.BigEndian.Uint32(body[:4])
	body = body[4:]
	var (
		n   int
		err error
	)
	switch subtype {
	case SubtypeRIBIPv4Unicast:
		rib.Prefix, n, err = bgp.DecodePrefixIPv4(body)
	case SubtypeRIBIPv6Unicast:
		rib.Prefix, n, err = bgp.DecodePrefixIPv6(body)
	default:
		return fmt.Errorf("mrt: RIB: unsupported subtype %d", subtype)
	}
	if err != nil {
		return fmt.Errorf("mrt: RIB prefix: %w", err)
	}
	body = body[n:]
	if len(body) < 2 {
		return fmt.Errorf("mrt: RIB: truncated entry count")
	}
	count := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	entries := rib.Entries[:0]
	if cap(entries) < count {
		entries = make([]RIBEntry, 0, count)
	}
	for i := 0; i < count; i++ {
		if len(body) < 8 {
			return fmt.Errorf("mrt: RIB: truncated entry %d header", i)
		}
		// Grow into the slot left by a previous decode where possible,
		// keeping that entry's attribute storage for reuse.
		entries = entries[:i+1]
		e := &entries[i]
		e.Attrs.ResetForReuse()
		e.PeerIndex = binary.BigEndian.Uint16(body[0:2])
		e.OriginatedTime = binary.BigEndian.Uint32(body[2:6])
		alen := int(binary.BigEndian.Uint16(body[6:8]))
		body = body[8:]
		if len(body) < alen {
			return fmt.Errorf("mrt: RIB: truncated entry %d attributes", i)
		}
		if err := bgp.DecodeAttrs(body[:alen], &e.Attrs); err != nil {
			return fmt.Errorf("mrt: RIB entry %d: %w", i, err)
		}
		body = body[alen:]
	}
	rib.Entries = entries
	if len(body) != 0 {
		return fmt.Errorf("mrt: RIB: %d trailing bytes", len(body))
	}
	return nil
}

// BGP4MPMessage is a BGP4MP_MESSAGE_AS4 record: one BGP message observed
// on a collector session, with the session endpoints.
type BGP4MPMessage struct {
	PeerAS    uint32
	LocalAS   uint32
	IfIndex   uint16
	PeerAddr  netip.Addr
	LocalAddr netip.Addr
	Message   []byte // full BGP message, header included
}

// Encode serializes the BGP4MP_MESSAGE_AS4 record body.
func (m *BGP4MPMessage) Encode() []byte {
	var out []byte
	out = binary.BigEndian.AppendUint32(out, m.PeerAS)
	out = binary.BigEndian.AppendUint32(out, m.LocalAS)
	out = binary.BigEndian.AppendUint16(out, m.IfIndex)
	if m.PeerAddr.Is6() && !m.PeerAddr.Is4In6() {
		out = binary.BigEndian.AppendUint16(out, AFIIPv6)
		p := m.PeerAddr.As16()
		l := m.LocalAddr.As16()
		out = append(out, p[:]...)
		out = append(out, l[:]...)
	} else {
		out = binary.BigEndian.AppendUint16(out, AFIIPv4)
		p := m.PeerAddr.As4()
		l := m.LocalAddr.As4()
		out = append(out, p[:]...)
		out = append(out, l[:]...)
	}
	return append(out, m.Message...)
}

// parse fills m from a BGP4MP_MESSAGE_AS4 (asn 4) or BGP4MP_MESSAGE
// (asn 2) record body. m.Message aliases body. The per-record decode
// loop parses into a message on its own stack, so it allocates nothing.
func (m *BGP4MPMessage) parse(body []byte, asn int) error {
	kind := "BGP4MP"
	if asn == 2 {
		kind = "BGP4MP legacy"
	}
	if len(body) < 2*asn+4 {
		return fmt.Errorf("mrt: %s: short body", kind)
	}
	if asn == 2 {
		m.PeerAS = uint32(binary.BigEndian.Uint16(body[0:2]))
		m.LocalAS = uint32(binary.BigEndian.Uint16(body[2:4]))
	} else {
		m.PeerAS = binary.BigEndian.Uint32(body[0:4])
		m.LocalAS = binary.BigEndian.Uint32(body[4:8])
	}
	body = body[2*asn:]
	m.IfIndex = binary.BigEndian.Uint16(body[0:2])
	afi := binary.BigEndian.Uint16(body[2:4])
	body = body[4:]
	alen := 4
	if afi == AFIIPv6 {
		alen = 16
	} else if afi != AFIIPv4 {
		return fmt.Errorf("mrt: %s: unsupported AFI %d", kind, afi)
	}
	if len(body) < 2*alen {
		return fmt.Errorf("mrt: %s: truncated addresses", kind)
	}
	m.PeerAddr, _ = netip.AddrFromSlice(body[:alen])
	m.LocalAddr, _ = netip.AddrFromSlice(body[alen : 2*alen])
	m.Message = body[2*alen:]
	return nil
}
