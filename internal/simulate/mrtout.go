package simulate

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"

	"bgpintent/internal/bgp"
	"bgpintent/internal/mrt"
)

// CollectorVPs returns the vantage points feeding one collector.
func (s *Simulator) CollectorVPs(collector int) []uint32 {
	var out []uint32
	for i, v := range s.vps {
		if i%s.cfg.Collectors == collector {
			out = append(out, v)
		}
	}
	return out
}

// vpAddr synthesizes a stable session address for the i-th vantage point
// of a collector.
func vpAddr(collector, i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(collector + 1), byte(i >> 8), byte(i)})
}

// collectorAddr is the collector-side session address.
func collectorAddr(collector int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(collector + 1), 255, 254})
}

// peerTable builds the TABLE_DUMP_V2 PEER_INDEX_TABLE for a collector.
func (s *Simulator) peerTable(collector int) (*mrt.PeerIndexTable, map[uint32]uint16) {
	vps := s.CollectorVPs(collector)
	table := &mrt.PeerIndexTable{
		CollectorBGPID: collectorAddr(collector),
		ViewName:       fmt.Sprintf("rc%02d", collector),
	}
	idx := make(map[uint32]uint16, len(vps))
	for i, vp := range vps {
		idx[vp] = uint16(i)
		table.Peers = append(table.Peers, mrt.Peer{
			BGPID: vpAddr(collector, i),
			Addr:  vpAddr(collector, i),
			ASN:   vp,
		})
	}
	return table, idx
}

// viewAttrs converts a view into BGP path attributes.
func viewAttrs(v *View, nextHop netip.Addr) bgp.PathAttributes {
	return bgp.PathAttributes{
		HasOrigin:        true,
		Origin:           bgp.OriginIGP,
		ASPath:           bgp.NewASPath(v.Path...),
		HasNextHop:       true,
		NextHop:          nextHop,
		Communities:      v.Comms,
		LargeCommunities: v.LargeComms,
	}
}

// WriteRIB writes one collector's TABLE_DUMP_V2 snapshot of a day's
// views, the analogue of a RouteViews rib file.
func (s *Simulator) WriteRIB(w io.Writer, timestamp uint32, collector int, day *DayResult) error {
	table, idx := s.peerTable(collector)
	tw, err := mrt.NewTableDumpWriter(w, timestamp, table)
	if err != nil {
		return err
	}
	// Views arrive prefix-major from RunDay; emit one RIB record per
	// contiguous prefix run.
	var cur bgp.Prefix
	var entries []mrt.RIBEntry
	flush := func() error {
		if len(entries) == 0 {
			return nil
		}
		err := tw.WriteRIB(cur, entries)
		entries = nil
		return err
	}
	for i := range day.Views {
		v := &day.Views[i]
		pi, ok := idx[v.VP]
		if !ok {
			continue
		}
		if v.Prefix != cur {
			if err := flush(); err != nil {
				return err
			}
			cur = v.Prefix
		}
		entries = append(entries, mrt.RIBEntry{
			PeerIndex:      pi,
			OriginatedTime: timestamp,
			Attrs:          viewAttrs(v, vpAddr(collector, int(pi))),
		})
	}
	if err := flush(); err != nil {
		return err
	}
	return tw.Flush()
}

// WriteUpdates writes a BGP4MP updates file for one collector: a sample
// of the day's routes re-announced (some preceded by a withdrawal),
// modeling the churn in RouteViews updates archives. frac selects the
// announcement sample.
func (s *Simulator) WriteUpdates(w io.Writer, tsBase uint32, collector int, day *DayResult, frac float64) error {
	_, idx := s.peerTable(collector)
	uw := mrt.NewUpdateWriter(w)
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ int64(day.Day)<<8 ^ int64(collector)))
	ts := tsBase
	for i := range day.Views {
		v := &day.Views[i]
		pi, ok := idx[v.VP]
		if !ok || rng.Float64() >= frac {
			continue
		}
		ts += uint32(rng.Intn(3))
		peerAddr := vpAddr(collector, int(pi))
		if rng.Float64() < 0.2 {
			withdraw := &bgp.UpdateMessage{Withdrawn: []bgp.Prefix{v.Prefix}}
			if err := uw.WriteUpdate(ts, v.VP, 0, peerAddr, collectorAddr(collector), withdraw); err != nil {
				return err
			}
		}
		attrs := viewAttrs(v, peerAddr)
		msg := &bgp.UpdateMessage{Attrs: attrs, NLRI: []bgp.Prefix{v.Prefix}}
		if err := uw.WriteUpdate(ts, v.VP, 0, peerAddr, collectorAddr(collector), msg); err != nil {
			return err
		}
	}
	return uw.Flush()
}

// Collectors returns the number of collectors.
func (s *Simulator) Collectors() int { return s.cfg.Collectors }
