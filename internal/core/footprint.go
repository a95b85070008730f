package core

import (
	"fmt"
	"strings"
	"unsafe"
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
// walks no tuple.
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

// probeRow measures a probe table by its entries and slots.
func probeRow[K comparable, V any](name string, t *probeTable[K, V]) FootprintRow {
	size := int64(unsafe.Sizeof(probeSlot[K, V]{}))
	return FootprintRow{Name: name, Used: int64(t.n) * size, Reserved: int64(len(t.slots)) * size}
}

// flatRow measures flat tables by their entries and slots.
func flatRow(name string, tabs ...*flatTable) FootprintRow {
	r := FootprintRow{Name: name}
	for _, t := range tabs {
		r.Used += 8 * int64(t.n)
		r.Reserved += 8 * int64(len(t.slots))
	}
	return r
}

// Footprint returns the store's memory by component, all of it the
// store's own. group_index is the table of the groups' word offsets by
// ordinal, 4 B a group. The table rows are a writable store's indexes:
// set_table is a NewTupleStore's set index, group_table the group index
// every writable store keeps (a shard's covers its own groups),
// index_tables the tuple and hop tables. A stitched store has none, so
// they read 0.
// noted_larges holds the larges NoteLarge saw, which a sharded store
// keeps apart from its shards and hands to Stitch.
func (ts *TupleStore) Footprint() Footprint {
	return Footprint{
		sliceRow("tuples", ts.tuples),
		{
			Name:     "hops",
			Used:     4 * int64(len(ts.hopASN)+len(ts.hopNext)),
			Reserved: 4 * int64(cap(ts.hopASN)+cap(ts.hopNext)),
		},
		sliceRow("vp_arena", ts.vpArena),
		probeRow("vp_index", &ts.vpIndex),
		sliceRow("set_arena", ts.sets.arena),
		sliceRow("group_arena", ts.groups.arena),
		sliceRow("group_index", ts.groups.at),
		flatRow("set_table", &ts.sets.tab),
		flatRow("group_table", &ts.groups.tab),
		flatRow("index_tables", &ts.tupleTab, &ts.hopTab),
		probeRow("noted_larges", &ts.noted),
	}
}
