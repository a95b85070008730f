package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

// groupedViews draws n views whose sets are empty, large-only, classic
// over many αs, or mixed, from vocabularies small enough that one α's
// group recurs across many sets.
func groupedViews(rng *rand.Rand, n int) []refView {
	alphas := []uint32{0, 7, 64512, 65535}
	for len(alphas) < 24 {
		alphas = append(alphas, uint32(1+rng.Intn(60)))
	}
	comm := func() bgp.Community {
		return bgp.NewCommunity(uint16(alphas[rng.Intn(len(alphas))]), uint16(rng.Intn(4)*100))
	}
	large := func() bgp.LargeCommunity {
		ga := alphas[rng.Intn(6)]
		if rng.Intn(8) == 0 {
			ga = 0xFFFFFFFF
		}
		return bgp.LargeCommunity{GlobalAdmin: ga, LocalData1: uint32(rng.Intn(2)), LocalData2: uint32(rng.Intn(3))}
	}
	views := make([]refView, 0, n)
	for len(views) < n {
		v := refView{vp: alphas[rng.Intn(8)]}
		for hops := 1 + rng.Intn(4); hops > 0; hops-- {
			v.path = append(v.path, alphas[rng.Intn(8)])
		}
		switch rng.Intn(4) {
		case 0: // empty, or large-only
			for k := rng.Intn(4); k > 0; k-- {
				v.larges = append(v.larges, large())
			}
		case 1: // many αs, repeats and disorder included
			for k := 8 + rng.Intn(24); k > 0; k-- {
				v.comms = append(v.comms, comm())
			}
		default:
			for k := rng.Intn(5); k > 0; k-- {
				v.comms = append(v.comms, comm())
			}
			for k := rng.Intn(3); k > 0; k-- {
				v.larges = append(v.larges, large())
			}
		}
		views = append(views, v)
	}
	return views
}

// identityOf renders a view's tuple identity from its raw input: the
// collapsed path and the canonical lists, through no store code.
func identityOf(path []uint32, comms bgp.Communities, larges bgp.LargeCommunities) string {
	return fmt.Sprintf("%v %s", refCollapse(path), setKey(comms.Canonical(), larges.Canonical()))
}

// groupedIdentities adds the identities of views to ids.
func groupedIdentities(ids map[string]bool, views []refView) map[string]bool {
	for _, v := range views {
		ids[identityOf(v.path, v.comms, v.larges)] = true
	}
	return ids
}

// groupRecords returns every group a store holds, by ordinal.
func groupRecords(ts *TupleStore) map[uint32][]bgp.Community {
	out := make(map[uint32][]bgp.Community)
	for ord, off := range ts.groups.at {
		out[uint32(ord)] = recordAt(ts.groups.arena[off:])
	}
	return out
}

// setRecords returns every record a set arena holds past the empty one
// at offset 0, by ref.
func setRecords(arena []byte) map[uint32][]byte {
	out := make(map[uint32][]byte)
	for pos := 1; pos < len(arena); {
		end := pos
		for last := false; !last; {
			_, last, end = groupRef(arena, end)
		}
		out[uint32(pos)] = arena[pos:end]
		pos = end
	}
	return out
}

// groupOrds returns the group ordinals of a tuple's set record.
func groupOrds(ts *TupleStore, tu *Tuple) []uint32 {
	var ords []uint32
	for rec, i, last := ts.setRecord(tu), 0, tu.setRef() == 0; !last; {
		var ord uint32
		ord, last, i = groupRef(rec, i)
		ords = append(ords, ord)
	}
	return ords
}

// checkGroups holds a store's groups to the layout: the group arena holds
// them end to end in ordinal order, each one α's strictly ascending run
// of one kind of community, and no two equal. It returns their ordinals.
func checkGroups(t *testing.T, label string, ts *TupleStore) map[uint32]bool {
	t.Helper()
	ord := 0
	for off := 0; off < len(ts.groups.arena); ord++ {
		if ord >= len(ts.groups.at) || ts.groups.at[ord] != uint32(off) {
			t.Fatalf("%s: group %d of the arena lies at word %d, which its ordinal does not name", label, ord, off)
		}
		off += len(recordAt(ts.groups.arena[off:]))
	}
	if ord != len(ts.groups.at) {
		t.Fatalf("%s: the group arena holds %d groups, %d ordinals name one", label, ord, len(ts.groups.at))
	}
	refs := make(map[uint32]bool)
	seen := make(map[string]uint32)
	for ref, g := range groupRecords(ts) {
		comms, larges := splitSet(g)
		switch {
		case len(comms) > 0 && len(larges) == 0:
			for i := 1; i < len(comms); i++ {
				if comms[i].ASN() != comms[0].ASN() || comms[i] <= comms[i-1] {
					t.Fatalf("%s: group %#x is not one α's ascending run: %v", label, ref, comms)
				}
			}
		case len(comms) == 0 && len(larges) > 0 && len(larges)%3 == 0:
			for i := 3; i < len(larges); i += 3 {
				if larges[i] != larges[0] || slices.Compare(larges[i:i+3], larges[i-3:i]) <= 0 {
					t.Fatalf("%s: group %#x is not one administrator's ascending run: %v", label, ref, larges)
				}
			}
		default:
			t.Fatalf("%s: group %#x holds %d communities and %d large words", label, ref, len(comms), len(larges))
		}
		key := fmt.Sprint(g)
		if other, dup := seen[key]; dup {
			t.Fatalf("%s: group %v stored twice, at %#x and %#x", label, g, other, ref)
		}
		seen[key] = ref
		refs[ref] = true
	}
	return refs
}

// checkGroupedTuples reads every tuple's communities back through its
// groups: each must be the canonical input of one identity in want, no
// identity in two tuples, and the store's distinct counts must be the
// tuples'. It returns the identities found and the group ordinals the
// set records carry.
func checkGroupedTuples(t *testing.T, label string, ts *TupleStore, want map[string]bool) (ids map[string]bool, refs map[uint32]bool) {
	t.Helper()
	ids, refs = make(map[string]bool), make(map[uint32]bool)
	comms := make(map[bgp.Community]bool)
	for i := range ts.tuples {
		tu := &ts.tuples[i]
		cs, ls := tupleCommunities(ts, tu)
		id := fmt.Sprintf("%v %s", ts.pathKey(tu.PathID), setKey(cs, ls))
		if !want[id] {
			t.Fatalf("%s: tuple %d reads back as %s, which no view carried", label, i, id)
		}
		if ids[id] {
			t.Fatalf("%s: identity %s held by two tuples", label, id)
		}
		ids[id] = true
		for _, ord := range groupOrds(ts, tu) {
			refs[ord] = true
		}
		for _, c := range cs {
			comms[c] = true
		}
	}
	if n, vps := ts.DistinctCounts(); n != len(comms) || len(ts.Communities()) != n || vps != len(ts.VPSet()) {
		t.Fatalf("%s: DistinctCounts %d communities and %d vantage points, Communities %d, VPSet %d; the tuples carry %d",
			label, n, vps, len(ts.Communities()), len(ts.VPSet()), len(comms))
	}
	return ids, refs
}

// checkStoredGroups holds a store's group arena to exactly the groups
// refs, its set records' refs, name, each once.
func checkStoredGroups(t *testing.T, label string, ts *TupleStore, refs map[uint32]bool) {
	t.Helper()
	stored := checkGroups(t, label, ts)
	if len(stored) != len(refs) {
		t.Fatalf("%s: the group arena holds %d groups, the set records refer to %d", label, len(stored), len(refs))
	}
	for ref := range stored {
		if !refs[ref] {
			t.Fatalf("%s: group %#x is stored but no set refers to it", label, ref)
		}
	}
}

// checkGroupedStore checks a whole store — a NewTupleStore, stitched or
// stitched and fed again: its tuples are exactly want, read through
// groups, its group arena holds exactly the groups they refer to, each
// once, and its set arena no record twice.
func checkGroupedStore(t *testing.T, label string, ts *TupleStore, want map[string]bool) {
	t.Helper()
	ids, refs := checkGroupedTuples(t, label, ts, want)
	if len(ids) != len(want) {
		t.Fatalf("%s: the store holds %d identities, the views %d", label, len(ids), len(want))
	}
	checkStoredGroups(t, label, ts, refs)
	seen := make(map[string]bool)
	for _, rec := range setRecords(ts.sets.arena) {
		if key := fmt.Sprint(rec); seen[key] {
			t.Fatalf("%s: set record %v stored twice", label, rec)
		} else {
			seen[key] = true
		}
	}
}

// TestGroupedSetsMatchInput: over random views — empty, large-only,
// many-α and mixed sets — a tuple's communities, read through its groups,
// are the canonical input, and every distinct group is stored once: in a
// NewTupleStore, in each shard of a sharded one (once a shard: shards
// store their own groups), and in the stitched
// store, before and after more views arrive (in a stitched store, before
// its Stitch), with seeded and with colliding hashes (the NewTupleStore's
// as well as the shards').
func TestGroupedSetsMatchInput(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, collide := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			n := 300
			if collide {
				n = 100 // every probe walks one chain
			}
			views, more := groupedViews(rng, n), groupedViews(rng, n/2)
			more = append(more, views[:n/4]...)
			want := groupedIdentities(make(map[string]bool), views)
			label := fmt.Sprintf("seed %d collide=%v", seed, collide)

			plain := NewTupleStore()
			plain.hash.collide = collide
			sharded := func(views []refView) *ShardedTupleStore {
				sts := NewShardedTupleStore(4)
				sts.setCollide(collide)
				for _, v := range views {
					sts.AddViewASPathLarge(v.vp, bgp.NewASPath(v.path...), v.comms, v.larges)
				}
				return sts
			}
			sts := sharded(views)
			for _, v := range views {
				plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
			}
			checkGroupedStore(t, label+" plain", plain, want)
			if collide {
				checkOneChain(t, label+" plain", plain.sets.tab.slots, plain.sets.tab.n)
			}

			union := make(map[string]bool)
			for i := range sts.shards {
				shard := fmt.Sprintf("%s shard %d", label, i)
				ids, refs := checkGroupedTuples(t, shard, sts.shards[i].ts, want)
				checkStoredGroups(t, shard, sts.shards[i].ts, refs)
				for id := range ids {
					if union[id] {
						t.Fatalf("%s: identity %s in two shards", label, id)
					}
					union[id] = true
				}
			}
			if len(union) != len(want) {
				t.Fatalf("%s: the shards hold %d of %d identities", label, len(union), len(want))
			}

			ts := stitchChecked(t, label, sts, 2)
			checkGroupedStore(t, label+" stitched", ts, want)
			want = groupedIdentities(want, more)
			for _, v := range more {
				plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
			}
			ts = stitchChecked(t, label+" fed more", sharded(append(views, more...)), 2)
			checkGroupedStore(t, label+" stitched, fed more", ts, want)
			checkGroupedStore(t, label+" plain, fed more", plain, want)
		}
	}
}

// TestGroupedSetFootprint: on the tiny synthetic day with its large
// communities, the set records and the groups they refer to take no more
// bytes than one flat record per distinct set would (a header and the
// set's words), and the load-time tables — each shard's group index
// among them — are gone after Stitch.
func TestGroupedSetFootprint(t *testing.T) {
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sts := NewShardedTupleStore(8)
	for _, v := range simulate.New(topo, simulate.TinyConfig()).RunDay(0).Views {
		sts.AddViewASPathLarge(v.VP, bgp.NewASPath(v.Path...), v.Comms, v.LargeComms)
	}
	row := func(fp Footprint, name string) FootprintRow {
		for _, r := range fp {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("Footprint has no %s row", name)
		return FootprintRow{}
	}
	if r := row(sts.shards[0].ts.Footprint(), "group_table"); r.Used == 0 || r.Reserved < r.Used {
		t.Fatalf("while loading, the group_table row reads %+v", r)
	}
	if r := row(sts.shards[0].ts.Footprint(), "set_table"); r.Reserved != 0 {
		t.Fatalf("a shard, which appends its set records, has a set table: %+v", r)
	}
	ts := sts.Stitch(2)
	fp := ts.Footprint()
	for _, name := range []string{"group_table", "set_table", "index_tables"} {
		if r := row(fp, name); r.Used != 0 || r.Reserved != 0 {
			t.Fatalf("after Stitch the %s row reads %+v, want 0", name, r)
		}
	}

	distinct := map[string]int{"": 1} // the empty set, seeded in every arena
	for i := range ts.tuples {
		cs, ls := tupleCommunities(ts, &ts.tuples[i])
		distinct[setKey(cs, ls)] = 1 + len(cs) + 3*len(ls)
	}
	flat := 0
	for _, words := range distinct {
		flat += 4 * words
	}
	set, groups := row(fp, "set_arena"), row(fp, "group_arena")
	t.Logf("%d tuples, %d distinct sets: set records %d B + groups %d B, flat records %d B",
		ts.Len(), len(distinct), set.Used, groups.Used, flat)
	if set.Used+groups.Used > int64(flat) {
		t.Fatalf("set records %d B + groups %d B exceed the %d B of one flat record per distinct set",
			set.Used, groups.Used, flat)
	}
}
