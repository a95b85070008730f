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

// probeRow measures a probe table by its entries and slots.
func probeRow[K comparable, V any](name string, t *probeTable[K, V]) FootprintRow {
	size := int64(unsafe.Sizeof(probeSlot[K, V]{}))
	return FootprintRow{Name: name, Used: int64(t.n) * size, Reserved: int64(len(t.slots)) * size}
}

// tableRow measures the group intern's hash table, which Stitch
// releases.
func tableRow(name string, li *groupIntern) FootprintRow {
	live, slots := li.tableSize()
	return FootprintRow{Name: name, Used: 8 * int64(live), Reserved: 8 * int64(slots)}
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

// Footprint returns the store's memory by component. The group rows are
// the intern the store refers to: its own, or, for a shard, the one it
// shares with its siblings, which becomes the stitched store's. The set
// rows are the store's own: set_table is a NewTupleStore's set index,
// set_tags a shard's record tags, which Stitch reads. A stitched store's
// table and tag rows are empty. noted_larges holds the larges NoteLarge
// saw, which a sharded store keeps apart from its shards and hands to
// Stitch.
func (ts *TupleStore) Footprint() Footprint {
	sh := ts.shared
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
		arenaRow("group_arena", &sh.groups.arena),
		flatRow("set_table", &ts.sets.tab),
		sliceRow("set_tags", ts.setTags),
		tableRow("group_table", &sh.groups),
		flatRow("index_tables", &ts.tupleTab, &ts.hopTab),
		probeRow("noted_larges", &ts.noted),
	}
}
