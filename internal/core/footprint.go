package core

import (
	"fmt"
	"math/bits"
	"strings"
	"unsafe"

	"bgpintent/internal/bgp"
)

// FootprintRow is one component of a store's memory: Used bytes hold
// data, Reserved bytes are what the allocations behind them occupy
// (growth slack, unfilled table slots). Reserved >= Used.
type FootprintRow struct {
	Name     string
	Used     int64
	Reserved int64
}

// Footprint is a store's memory by component, the byte-side
// decomposition of "bytes per unique tuple": each row is computed from
// the lengths and capacities of the slices behind it, so taking one
// walks no tuple. The distinct-large set, a Go map, has no capacity to
// read; its row is an estimate at slot size x table size.
type Footprint []FootprintRow

// Total sums the rows.
func (f Footprint) Total() (used, reserved int64) {
	for _, r := range f {
		used += r.Used
		reserved += r.Reserved
	}
	return used, reserved
}

// String renders the non-empty rows on one line, reserved bytes each.
func (f Footprint) String() string {
	var rows []string
	for _, r := range f {
		if r.Reserved != 0 {
			rows = append(rows, fmt.Sprintf("%s %d", r.Name, r.Reserved))
		}
	}
	_, reserved := f.Total()
	return fmt.Sprintf("%d B reserved (%s)", reserved, strings.Join(rows, ", "))
}

// sliceRow measures a slice by its length and capacity.
func sliceRow[T any](name string, s []T) FootprintRow {
	var zero T
	size := int64(unsafe.Sizeof(zero))
	return FootprintRow{Name: name, Used: int64(len(s)) * size, Reserved: int64(cap(s)) * size}
}

// arenaRow measures a shared arena by its chunks' fills and capacities.
func arenaRow[T any](name string, a *sharedArena[T]) FootprintRow {
	var zero T
	size := int64(unsafe.Sizeof(zero))
	r := FootprintRow{Name: name}
	for _, c := range a.filled() {
		r.Used += int64(len(c)) * size
		r.Reserved += int64(cap(c)) * size
	}
	return r
}

// mapRow estimates a Go map of n entries at slot bytes each: a table
// of power-of-two size kept at most 7/8 full, one control byte a slot.
func mapRow(name string, n, slot int) FootprintRow {
	if n == 0 {
		return FootprintRow{Name: name}
	}
	slots := int64(1) << bits.Len(uint(n*8/7))
	return FootprintRow{Name: name, Used: int64(n * slot), Reserved: slots * int64(slot+1)}
}

// tableRow measures an intern's hash table, which Stitch releases.
func tableRow(name string, li *listIntern) FootprintRow {
	live, slots := li.tableSize()
	return FootprintRow{Name: name, Used: 8 * int64(live), Reserved: 8 * int64(slots)}
}

// Footprint returns the store's memory by component. The set and group
// rows are the interns the store refers to: its own, or, for a shard, the
// ones it shares with its siblings, which become the stitched store's.
func (ts *TupleStore) Footprint() Footprint {
	sh := ts.shared
	return Footprint{
		sliceRow("tuples", ts.tuples),
		sliceRow("paths", ts.pathEnd),
		sliceRow("vp_arena", ts.vpArena),
		arenaRow("set_arena", &sh.sets.arena),
		arenaRow("group_arena", &sh.groups.arena),
		sliceRow("asn_arena", ts.asnArena),
		tableRow("intern_tables", &sh.sets),
		tableRow("group_table", &sh.groups),
		{
			Name:     "index_tables",
			Used:     8 * int64(ts.tupleTab.n+ts.pathTab.n),
			Reserved: 8 * int64(cap(ts.tupleTab.slots)+cap(ts.pathTab.slots)),
		},
		sliceRow("looped_paths", ts.loops),
		sliceRow("looped_keys", ts.loopWords),
		mapRow("large_set", len(ts.large), int(unsafe.Sizeof(bgp.LargeCommunity{}))),
	}
}
