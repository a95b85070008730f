package bgpintent

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"bgpintent/internal/asrel"
	"bgpintent/internal/core"
	"bgpintent/internal/finegrained"
	"bgpintent/internal/locinfer"
	"bgpintent/internal/simulate"
)

// TestLoadOutputsDeterministic: determinism is a property of what the
// pipeline produces, not of how the stitched store is laid out. The
// tiny-scale corpus — RIBs and updates, large communities, an as2org
// file — loads at Parallelism 1, 2 and 8, twice each. With more than one
// writer the stitched layout follows arrival order and may differ
// between any two runs; every product output must not: TSV, JSON and
// snapshot bytes, SnapshotInfo (Created aside), the AS-relationship
// inference over AllPaths, the location inference, the fine-grained
// refinement and the customer:peer statistics.
func TestLoadOutputsDeterministic(t *testing.T) {
	ribs, updates, orgPath, topo := writeParallelFixture(t)
	src := Sources{RIBs: ribs, Updates: updates, OrgPath: orgPath}
	created := time.Unix(1714521600, 0).UTC()

	outputs := func(workers int) map[string]string {
		c, _, err := LoadMRT(context.Background(), src, LoadOptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res := classify(t, c, Params{Parallelism: workers})
		if c.LargeCommunities() == 0 || res.LargeObservedCount() == 0 {
			t.Fatalf("workers=%d: no large communities in the corpus", workers)
		}
		out := make(map[string]string)
		render := func(name string, write func(*bytes.Buffer) error) {
			var b bytes.Buffer
			if err := write(&b); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			out[name] = b.String()
		}
		info := c.SnapshotInfo("determinism")
		info.Created = created
		out["snapshot info"] = fmt.Sprintf("%+v", info)
		render("tsv", func(b *bytes.Buffer) error { return res.WriteTSV(b) })
		render("json", func(b *bytes.Buffer) error { return res.WriteJSON(b) })
		render("snapshot", func(b *bytes.Buffer) error { return res.WriteSnapshotFlat(b, info) })

		rels := asrel.Infer(c.store.AllPaths())
		render("asrel", func(b *bytes.Buffer) error { _, err := rels.WriteTo(b); return err })
		out["locinfer"] = fmt.Sprintf("%+v", locinfer.Infer(c.store, topo, locinfer.DefaultConfig()))
		fine := finegrained.Classify(c.store, res.inf, topo, finegrained.ROVFunc(simulate.ROVState), rels, finegrained.DefaultConfig())
		out["finegrained"] = fmt.Sprint(fine.Kinds) // fmt prints maps in key order
		var custPeer []core.CustPeerStats
		for _, st := range core.CustomerPeer(c.store, core.DefaultOptions(), rels) {
			custPeer = append(custPeer, *st)
		}
		slices.SortFunc(custPeer, func(a, b core.CustPeerStats) int { return a.Comm.Compare(b.Comm) })
		out["customer:peer"] = fmt.Sprintf("%+v", custPeer)
		if len(fine.Kinds) == 0 || len(custPeer) == 0 || rels.Len() == 0 {
			t.Fatalf("workers=%d: degenerate outputs: %d refined, %d customer:peer, %d relationships",
				workers, len(fine.Kinds), len(custPeer), rels.Len())
		}
		return out
	}

	ref := outputs(1)
	for _, workers := range []int{2, 8, 1, 2, 8} {
		got := outputs(workers)
		for name, want := range ref {
			if got[name] != want {
				t.Errorf("workers=%d: %s differs from the first Parallelism 1 run (%d vs %d bytes)",
					workers, name, len(got[name]), len(want))
			}
		}
	}
}
