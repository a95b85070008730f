package mrt

import (
	"fmt"
	"io"
	"net/netip"

	"bgpintent/internal/bgp"
)

// TableDumpWriter writes a complete TABLE_DUMP_V2 snapshot: a
// PEER_INDEX_TABLE record followed by one RIB record per prefix, the
// layout RouteViews and RIS use for their rib files.
type TableDumpWriter struct {
	w   *Writer
	ts  uint32
	seq uint32
}

// NewTableDumpWriter writes the peer index table immediately and returns
// a writer for the RIB records that follow.
func NewTableDumpWriter(w io.Writer, timestamp uint32, table *PeerIndexTable) (*TableDumpWriter, error) {
	tw := &TableDumpWriter{w: NewWriter(w), ts: timestamp}
	if err := tw.w.WriteRecord(timestamp, TypeTableDumpV2, SubtypePeerIndexTable, table.Encode()); err != nil {
		return nil, err
	}
	return tw, nil
}

// WriteRIB emits one RIB record for prefix with the given vantage-point
// entries, assigning the next sequence number.
func (tw *TableDumpWriter) WriteRIB(prefix bgp.Prefix, entries []RIBEntry) error {
	subtype := SubtypeRIBIPv4Unicast
	if prefix.Addr().Is6() && !prefix.Addr().Is4In6() {
		subtype = SubtypeRIBIPv6Unicast
	}
	rib := RIB{SequenceNumber: tw.seq, Prefix: prefix, Entries: entries}
	tw.seq++
	body, err := rib.Encode()
	if err != nil {
		return err
	}
	return tw.w.WriteRecord(tw.ts, TypeTableDumpV2, subtype, body)
}

// Flush flushes buffered output.
func (tw *TableDumpWriter) Flush() error { return tw.w.Flush() }

// RIBView is one vantage point's route for one prefix, with the peer
// resolved through the index table: the unit the inference pipeline
// consumes.
type RIBView struct {
	Peer   Peer
	Prefix bgp.Prefix
	Entry  RIBEntry
}

// RIBDecoder is the one decoder of TABLE_DUMP_V2 records. It turns each
// record into RIBViews against the peer table in force and counts what
// happened to it in a Stats: decoded, skipped with a reason, or of an
// unknown type. Every reader of RIB files decodes through it: the
// scanners here, ingest's sequential scan and frame-split workers, and
// mrtdump.
type RIBDecoder struct {
	// Lenient counts a record that does not parse, and an entry naming a
	// peer outside the table, as skipped; a strict decoder returns an
	// error carrying the record's offset instead.
	Lenient bool
	// Table is the peer index table in force. Decode replaces it at each
	// PEER_INDEX_TABLE record; the frame split stamps it on its workers.
	Table   *PeerIndexTable
	rib     RIB        // reusable decode target
	entries []RIBEntry // the entries of rib Next has yet to resolve
	off     int64      // offset of the record rib came from
	view    RIBView    // reusable return value
}

// Decode decodes rec and counts it in stats; a RIB record's views then
// come from Next. A non-empty skip means a lenient decoder counted rec
// as undecodable under that reason, err saying why, and the caller may
// Reject its bytes. Any other error is terminal and carries the record's
// offset.
func (d *RIBDecoder) Decode(rec *Record, stats *Stats) (skip string, err error) {
	d.entries = nil
	if rec.Type != TypeTableDumpV2 {
		stats.noteUnknown(rec.Type, rec.Subtype)
		return "", nil
	}
	switch rec.Subtype {
	case SubtypePeerIndexTable:
		t, err := ParsePeerIndexTable(rec.Body)
		if err != nil {
			return fail(d.Lenient, rec, "peer-index-table", err, stats)
		}
		d.Table = t
	case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
		if err := ParseRIBInto(rec.Subtype, rec.Body, &d.rib); err != nil {
			return fail(d.Lenient, rec, "rib", err, stats)
		}
		d.entries, d.off = d.rib.Entries, rec.Offset
	default:
		// Multicast, generic and ADD-PATH RIBs are counted, not decoded.
		stats.noteUnknown(rec.Type, rec.Subtype)
		return "", nil
	}
	stats.noteDecoded()
	return "", nil
}

// Next returns the view of the next entry of the record Decode last
// took in, or io.EOF once there is none left. The view is valid until
// the following Next or Decode. An entry whose peer index is outside
// the table fails a strict decoder; a lenient one counts it as skipped
// and returns a nil view with a nil error.
func (d *RIBDecoder) Next(stats *Stats) (*RIBView, error) {
	if len(d.entries) == 0 {
		return nil, io.EOF
	}
	e := &d.entries[0]
	d.entries = d.entries[1:]
	if d.Table == nil || int(e.PeerIndex) >= len(d.Table.Peers) {
		if !d.Lenient {
			return nil, fmt.Errorf("mrt: RIB record at offset %d: entry references peer index %d outside table", d.off, e.PeerIndex)
		}
		stats.noteSkip("peer-index-out-of-range")
		return nil, nil
	}
	d.view = RIBView{Peer: d.Table.Peers[e.PeerIndex], Prefix: d.rib.Prefix, Entry: *e}
	return &d.view, nil
}

// Decoder is what RIBDecoder and UpdateDecoder have in common, so a
// scan loop over either kind of file is one loop.
type Decoder[V any] interface {
	Decode(rec *Record, stats *Stats) (skip string, err error)
	Next(stats *Stats) (*V, error)
}

// IsPeerIndexTable reports whether a record header announces a
// PEER_INDEX_TABLE, the record that changes what every later RIB record
// of the stream means. The frame split frames it as a barrier.
func IsPeerIndexTable(typ, subtype uint16) bool {
	return typ == TypeTableDumpV2 && subtype == SubtypePeerIndexTable
}

// fail answers a record that framed but does not parse: a strict
// decoder returns err with the record's offset, a lenient one counts the
// record as skipped under reason.
func fail(lenient bool, rec *Record, reason string, err error, stats *Stats) (string, error) {
	if !lenient {
		return "", fmt.Errorf("mrt: record at offset %d: %w", rec.Offset, err)
	}
	stats.noteSkip(reason)
	return reason, err
}

// UpdateWriter writes BGP4MP_MESSAGE_AS4 records, the layout of
// RouteViews/RIS updates files.
type UpdateWriter struct {
	w *Writer
}

// NewUpdateWriter returns a writer for BGP4MP update records.
func NewUpdateWriter(w io.Writer) *UpdateWriter {
	return &UpdateWriter{w: NewWriter(w)}
}

// WriteUpdate encodes msg and emits it as one BGP4MP_MESSAGE_AS4 record
// observed from the given peer session.
func (uw *UpdateWriter) WriteUpdate(timestamp uint32, peerAS, localAS uint32, peerAddr, localAddr netip.Addr, msg *bgp.UpdateMessage) error {
	wire, err := msg.Encode()
	if err != nil {
		return err
	}
	rec := BGP4MPMessage{
		PeerAS:    peerAS,
		LocalAS:   localAS,
		PeerAddr:  peerAddr,
		LocalAddr: localAddr,
		Message:   wire,
	}
	return uw.w.WriteRecord(timestamp, TypeBGP4MP, SubtypeBGP4MPMessageAS4, rec.Encode())
}

// Flush flushes buffered output.
func (uw *UpdateWriter) Flush() error { return uw.w.Flush() }

// UpdateView is one decoded BGP UPDATE observed from a collector peer.
type UpdateView struct {
	Timestamp uint32
	PeerAS    uint32
	PeerAddr  netip.Addr
	Update    *bgp.UpdateMessage
}

// UpdateDecoder is the one decoder of BGP4MP records: BGP4MP_MESSAGE
// and BGP4MP_MESSAGE_AS4, with or without the extended timestamp. It
// turns an UPDATE into an UpdateView and counts every record in a Stats,
// as RIBDecoder does. Records that carry another BGP message (keepalive,
// open, notification) yield nothing and are not counted.
type UpdateDecoder struct {
	// Lenient counts a record that does not parse as skipped; a strict
	// decoder returns an error carrying the record's offset instead.
	Lenient bool
	upd     bgp.UpdateMessage // reusable decode target
	view    UpdateView        // reusable return value
	ready   bool              // view holds an update Next has not returned
}

// Decode decodes rec and counts it in stats; an UPDATE's view then comes
// from Next. skip and err mean what they mean for RIBDecoder.Decode.
func (d *UpdateDecoder) Decode(rec *Record, stats *Stats) (skip string, err error) {
	d.ready = false
	if rec.Type != TypeBGP4MP && rec.Type != TypeBGP4MPET {
		stats.noteUnknown(rec.Type, rec.Subtype)
		return "", nil
	}
	body := rec.Body
	if rec.Type == TypeBGP4MPET {
		// Extended timestamp: 4 extra microsecond octets first.
		if len(body) < 4 {
			return fail(d.Lenient, rec, "bgp4mp", fmt.Errorf("mrt: BGP4MP_ET: short body"), stats)
		}
		body = body[4:]
	}
	asn := 4
	switch rec.Subtype {
	case SubtypeBGP4MPMessageAS4:
	case SubtypeBGP4MPMessage:
		asn = 2
	default:
		stats.noteUnknown(rec.Type, rec.Subtype)
		return "", nil
	}
	var m BGP4MPMessage
	if err := m.parse(body, asn); err != nil {
		return fail(d.Lenient, rec, "bgp4mp", err, stats)
	}
	if len(m.Message) >= 19 && m.Message[18] != bgp.MsgTypeUpdate {
		return "", nil // keepalive/open/notification
	}
	if err := bgp.DecodeUpdateSizedInto(m.Message, asn, &d.upd); err != nil {
		return fail(d.Lenient, rec, "bgp4mp", fmt.Errorf("mrt: BGP4MP update: %w", err), stats)
	}
	d.view = UpdateView{
		Timestamp: rec.Timestamp,
		PeerAS:    m.PeerAS,
		PeerAddr:  m.PeerAddr,
		Update:    &d.upd,
	}
	d.ready = true
	stats.noteDecoded()
	return "", nil
}

// Next returns the update the record Decode last took in carried, or
// io.EOF when it carried none or it was already returned. The view is
// valid until the following Decode.
func (d *UpdateDecoder) Next(*Stats) (*UpdateView, error) {
	if !d.ready {
		return nil, io.EOF
	}
	d.ready = false
	return &d.view, nil
}

// ScanOptions configure the fault tolerance of a scanner.
type ScanOptions struct {
	// Lenient makes the scanner skip undecodable records (and resync
	// over corrupt framing) instead of returning a sticky error.
	Lenient bool
	// Stats, if non-nil, receives per-stream decode statistics.
	Stats *Stats
}

// Reader returns the record reader a scanner with these options uses:
// strict or lenient per o.Lenient, framing stats wired to o.Stats,
// record reuse enabled. Every scan loop, in this package and in
// internal/ingest, frames through it.
func (o *ScanOptions) Reader(r io.Reader) *Reader {
	var rd *Reader
	if o.Lenient {
		rd = NewLenientReader(r, o.Stats)
	} else {
		rd = NewReader(r)
		rd.stats = o.Stats
	}
	// Scan loops fully decode each record before reading the next, so
	// the record and its body buffer can be recycled.
	rd.ReuseRecord()
	return rd
}

// TableDumpScanner streams RIBViews out of a TABLE_DUMP_V2 file through
// a RIBDecoder.
type TableDumpScanner = scanner[RIBView]

// UpdateScanner streams decoded updates out of a BGP4MP file through an
// UpdateDecoder.
type UpdateScanner = scanner[UpdateView]

// NewTableDumpScannerOptions wraps an MRT stream with the given fault
// tolerance.
func NewTableDumpScannerOptions(r io.Reader, opts ScanOptions) *TableDumpScanner {
	return &TableDumpScanner{r: opts.Reader(r), stats: opts.Stats, dec: &RIBDecoder{Lenient: opts.Lenient}}
}

// NewUpdateScannerOptions wraps an MRT stream with the given fault
// tolerance.
func NewUpdateScannerOptions(r io.Reader, opts ScanOptions) *UpdateScanner {
	return &UpdateScanner{r: opts.Reader(r), stats: opts.Stats, dec: &UpdateDecoder{Lenient: opts.Lenient}}
}

// scanner pulls the views of one kind of file out of a stream, one at a
// time: it frames records, decodes each through its decoder, and hands
// a lenient decoder's undecodable records back to the reader.
type scanner[V any] struct {
	r     *Reader
	stats *Stats
	dec   Decoder[V]
	err   error
}

// Next returns the next view, or io.EOF at end of stream. The view is
// owned by the scanner and valid only until the following Next call;
// callers that retain it must copy what they need. Errors are sticky.
func (s *scanner[V]) Next() (*V, error) {
	for s.err == nil {
		v, err := s.dec.Next(s.stats)
		if v != nil {
			return v, nil
		}
		if err == nil {
			continue // a lenient decoder dropped an entry
		}
		if err != io.EOF {
			s.err = err
			break
		}
		rec, err := s.r.Next()
		if err != nil {
			s.err = err
			break
		}
		if skip, err := s.dec.Decode(rec, s.stats); skip != "" {
			s.r.Reject(rec)
		} else if err != nil {
			s.err = err
		}
	}
	return nil, s.err
}
