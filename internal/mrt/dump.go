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

// ScanOptions configure the fault tolerance of a scanner.
type ScanOptions struct {
	// Lenient makes the scanner skip undecodable records (and resync
	// over corrupt framing) instead of returning a sticky error.
	Lenient bool
	// Stats, if non-nil, receives per-stream decode statistics.
	Stats *Stats
	// Check, if non-nil, runs after every processed record with the
	// current stats; a non-nil return aborts the scan with that sticky
	// error. Ingestion uses it to enforce an error budget.
	Check func(*Stats) error
}

// Reader returns the record reader a scanner with these options would
// use: strict or lenient per o.Lenient, framing stats wired to o.Stats,
// record reuse enabled. Decode loops built outside this package (the
// frame/decode split pipeline in internal/ingest) use it to frame with
// exactly the scanners' fault tolerance.
func (o *ScanOptions) Reader(r io.Reader) *Reader { return o.reader(r) }

func (o *ScanOptions) reader(r io.Reader) *Reader {
	var rd *Reader
	if o.Lenient {
		rd = NewLenientReader(r, o.Stats)
	} else {
		rd = NewReader(r)
		rd.stats = o.Stats
	}
	// The scanners fully decode each record before reading the next, so
	// the record and its body buffer can be recycled.
	rd.ReuseRecord()
	return rd
}

func (o *ScanOptions) check() error {
	if o.Check == nil {
		return nil
	}
	return o.Check(o.Stats)
}

// TableDumpScanner streams RIBViews out of a TABLE_DUMP_V2 file,
// resolving peer indexes against the PEER_INDEX_TABLE. Records of other
// types are skipped.
type TableDumpScanner struct {
	r       *Reader
	opts    ScanOptions
	table   *PeerIndexTable
	rib     RIB // reusable decode target; current points here once filled
	current *RIB
	view    RIBView // reusable return value
	curOff  int64
	pos     int
	err     error
}

// NewTableDumpScannerOptions wraps an MRT stream with the given fault
// tolerance.
func NewTableDumpScannerOptions(r io.Reader, opts ScanOptions) *TableDumpScanner {
	if opts.Check != nil && opts.Stats == nil {
		opts.Stats = &Stats{}
	}
	return &TableDumpScanner{r: opts.reader(r), opts: opts}
}

// Stats returns the scanner's statistics collector (nil unless one was
// configured).
func (s *TableDumpScanner) Stats() *Stats { return s.opts.Stats }

// Next returns the next RIBView, or io.EOF at end of stream. The view
// is owned by the scanner and valid only until the following Next call;
// callers that retain it must copy what they need.
func (s *TableDumpScanner) Next() (*RIBView, error) {
	if s.err != nil {
		return nil, s.err
	}
	v, err := s.next()
	if err != nil {
		s.err = err
		return nil, err
	}
	return v, nil
}

func (s *TableDumpScanner) next() (*RIBView, error) {
	for {
		if s.current != nil && s.pos < len(s.current.Entries) {
			e := s.current.Entries[s.pos]
			s.pos++
			if s.table == nil || int(e.PeerIndex) >= len(s.table.Peers) {
				if !s.opts.Lenient {
					return nil, fmt.Errorf("mrt: RIB record at offset %d: entry references peer index %d outside table", s.curOff, e.PeerIndex)
				}
				s.opts.Stats.noteSkip("peer-index-out-of-range")
				if err := s.opts.check(); err != nil {
					return nil, err
				}
				continue
			}
			s.view = RIBView{
				Peer:   s.table.Peers[e.PeerIndex],
				Prefix: s.current.Prefix,
				Entry:  e,
			}
			return &s.view, nil
		}
		rec, err := s.r.Next()
		if err != nil {
			if err == io.EOF {
				if cerr := s.opts.check(); cerr != nil {
					return nil, cerr
				}
			}
			return nil, err
		}
		if rec.Type != TypeTableDumpV2 {
			s.opts.Stats.noteUnknown(rec.Type, rec.Subtype)
		} else {
			switch rec.Subtype {
			case SubtypePeerIndexTable:
				t, perr := ParsePeerIndexTable(rec.Body)
				if perr != nil {
					if !s.opts.Lenient {
						return nil, fmt.Errorf("mrt: record at offset %d: %w", rec.Offset, perr)
					}
					s.opts.Stats.noteSkip("peer-index-table")
					s.r.Reject(rec)
				} else {
					s.table = t
					s.opts.Stats.noteDecoded()
				}
			case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
				perr := ParseRIBInto(rec.Subtype, rec.Body, &s.rib)
				if perr != nil {
					// A failed decode leaves the reused RIB in an
					// unspecified state; drop any stale reference.
					s.current = nil
					if !s.opts.Lenient {
						return nil, fmt.Errorf("mrt: record at offset %d: %w", rec.Offset, perr)
					}
					s.opts.Stats.noteSkip("rib")
					s.r.Reject(rec)
				} else {
					s.current = &s.rib
					s.curOff = rec.Offset
					s.pos = 0
					s.opts.Stats.noteDecoded()
				}
			default:
				// Other TABLE_DUMP_V2 subtypes (multicast, generic) skipped.
				s.opts.Stats.noteUnknown(rec.Type, rec.Subtype)
			}
		}
		if err := s.opts.check(); err != nil {
			return nil, err
		}
	}
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

// UpdateScanner streams decoded updates out of a BGP4MP file. Non-UPDATE
// BGP messages and non-BGP4MP records are skipped.
type UpdateScanner struct {
	r    *Reader
	opts ScanOptions
	upd  bgp.UpdateMessage // reusable decode target
	view UpdateView        // reusable return value
	err  error
}

// NewUpdateScannerOptions wraps an MRT stream with the given fault
// tolerance.
func NewUpdateScannerOptions(r io.Reader, opts ScanOptions) *UpdateScanner {
	if opts.Check != nil && opts.Stats == nil {
		opts.Stats = &Stats{}
	}
	return &UpdateScanner{r: opts.reader(r), opts: opts}
}

// Stats returns the scanner's statistics collector (nil unless one was
// configured).
func (s *UpdateScanner) Stats() *Stats { return s.opts.Stats }

// Next returns the next decoded update, or io.EOF at end of stream. The
// view is owned by the scanner and valid only until the following Next
// call; callers that retain it must copy what they need.
func (s *UpdateScanner) Next() (*UpdateView, error) {
	if s.err != nil {
		return nil, s.err
	}
	v, err := s.next()
	if err != nil {
		s.err = err
		return nil, err
	}
	return v, nil
}

func (s *UpdateScanner) next() (*UpdateView, error) {
	for {
		rec, err := s.r.Next()
		if err != nil {
			if err == io.EOF {
				if cerr := s.opts.check(); cerr != nil {
					return nil, cerr
				}
			}
			return nil, err
		}
		v, perr := s.decode(rec)
		if perr != nil {
			if !s.opts.Lenient {
				return nil, fmt.Errorf("mrt: record at offset %d: %w", rec.Offset, perr)
			}
			s.opts.Stats.noteSkip("bgp4mp")
			s.r.Reject(rec)
		} else if v != nil {
			s.opts.Stats.noteDecoded()
		}
		if err := s.opts.check(); err != nil {
			return nil, err
		}
		if v != nil && perr == nil {
			return v, nil
		}
	}
}

// decode turns one record into an UpdateView. A nil view with a nil
// error means the record is not a decodable BGP UPDATE (foreign type,
// keepalive...) and carries no corruption signal.
func (s *UpdateScanner) decode(rec *Record) (*UpdateView, error) {
	ok, err := DecodeUpdateRecord(rec, &s.upd, &s.view, s.opts.Stats)
	if err != nil || !ok {
		return nil, err
	}
	return &s.view, nil
}

// DecodeUpdateRecord decodes one BGP4MP record into caller-owned
// storage: upd receives the UPDATE message (its internal buffers are
// reused across calls) and view is filled pointing at it. A false ok
// with a nil error means the record is not a decodable BGP UPDATE
// (foreign type, unknown subtype — noted against stats — or a
// keepalive/open/notification) and carries no corruption signal. The
// caller accounts decodes and skips; only unknown-type notes happen
// here, mirroring UpdateScanner. This is the per-record decode step of
// the frame/decode split pipeline; stats may be nil.
func DecodeUpdateRecord(rec *Record, upd *bgp.UpdateMessage, view *UpdateView, stats *Stats) (ok bool, err error) {
	if rec.Type != TypeBGP4MP && rec.Type != TypeBGP4MPET {
		stats.noteUnknown(rec.Type, rec.Subtype)
		return false, nil
	}
	body := rec.Body
	if rec.Type == TypeBGP4MPET {
		// Extended timestamp: 4 extra microsecond octets first.
		if len(body) < 4 {
			return false, fmt.Errorf("mrt: BGP4MP_ET: short body")
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
		return false, nil
	}
	var m BGP4MPMessage
	if err := m.parse(body, asn); err != nil {
		return false, err
	}
	if len(m.Message) >= 19 && m.Message[18] != bgp.MsgTypeUpdate {
		return false, nil // keepalive/open/notification
	}
	if err := bgp.DecodeUpdateSizedInto(m.Message, asn, upd); err != nil {
		return false, fmt.Errorf("mrt: BGP4MP update: %w", err)
	}
	*view = UpdateView{
		Timestamp: rec.Timestamp,
		PeerAS:    m.PeerAS,
		PeerAddr:  m.PeerAddr,
		Update:    upd,
	}
	return true, nil
}
