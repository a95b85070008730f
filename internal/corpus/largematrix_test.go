package corpus

import (
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
)

// TestLargeMatrixGroundTruth builds the deterministic std/lrg matrix
// corpus — every eligible origin-attached community mirrored as α:1:β
// — and checks the large inference space against the plan ground
// truth. The matrix mirrors origin-attached controls (provider
// actions, route-server suppressions, leaked tags); ingress tags added
// mid-path have no large twin, so the large space is validated against
// the dictionary rather than byte-for-byte against the classic labels.
func TestLargeMatrixGroundTruth(t *testing.T) {
	cfg := TinyConfig()
	cfg.LargeMatrix = true
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Store.LargeCommunityCount() == 0 {
		t.Fatal("matrix corpus has no large communities; mirroring inert")
	}
	observed := core.Observe(c.Store, c.Options())
	inf := core.ClassifyObserved(observed, c.Options())

	if n := inf.Large().Observed(); n == 0 {
		t.Fatal("no large communities observed by the classifier")
	}
	if n := inf.Large().ClusterCount(); n == 0 {
		t.Fatal("no large clusters inferred")
	}

	// Every labeled large community must be a matrix mirror: function
	// field 1, both halves within the classic 16-bit space.
	largeLabels := make(map[bgp.LargeCommunity]dict.Category)
	inf.Large().EachLabeled(func(lc bgp.LargeCommunity, cat dict.Category) bool {
		if lc.LocalData1 != 1 || lc.GlobalAdmin > 0xFFFF || lc.LocalData2 > 0xFFFF {
			t.Fatalf("labeled large community %v is not a matrix mirror", lc)
		}
		largeLabels[lc] = cat
		return true
	})

	// Full recall over the mirrored plan: every observed large
	// community whose (α, β) the ground-truth dictionary defines must
	// be classified, with one legitimate exception — α-never-on-path
	// administrators like IXP route servers (which tag without entering
	// the AS path) are excluded in the classic space too, and the large
	// space must agree with that verdict, not improve on it.
	covered := func(lc bgp.LargeCommunity) bool {
		return lc.GlobalAdmin <= 0xFFFF && lc.LocalData2 <= 0xFFFF &&
			c.TruthCategory(lc.GlobalAdmin, uint16(lc.LocalData2)) != dict.CatUnknown
	}
	recalled := 0
	for _, st := range observed.Larges {
		lc := st.Comm
		mirror := inf.Large().Verdict(lc)
		if mirror.HasCluster || !covered(lc) {
			continue
		}
		orig := bgp.NewCommunity(uint16(lc.GlobalAdmin), uint16(lc.LocalData2))
		if classic := inf.Verdict(orig); !classic.Observed || classic.HasCluster || classic.Reason != mirror.Reason {
			t.Errorf("dictionary-covered mirror %v excluded (%v) but classic twin is not (reason %v, excluded=%v)",
				lc, mirror.Reason, classic.Reason, classic.Observed && !classic.HasCluster)
		}
	}
	// Accuracy against the plan: the classifier is not perfect (the
	// paper reports 96%/91% per-category accuracy on real data), but
	// the mirrored plan must be broadly recovered.
	agree, disagree := 0, 0
	for lc, cat := range largeLabels {
		if !covered(lc) {
			continue
		}
		recalled++
		if cat == c.TruthCategory(lc.GlobalAdmin, uint16(lc.LocalData2)) {
			agree++
		} else {
			disagree++
		}
	}
	if recalled == 0 {
		t.Fatal("no labeled large community overlaps the ground-truth dictionary")
	}
	if agree*1 < disagree*9 { // require ≥90% agreement
		t.Errorf("large vs ground truth: %d agree, %d disagree", agree, disagree)
	}

	// Where the mirror and its classic twin are both attached at the
	// origin — dictionary action communities — the two inference spaces
	// see the same routes, so verdicts must coincide exactly.
	compared := 0
	for lc, cat := range largeLabels {
		truth := c.TruthCategory(lc.GlobalAdmin, uint16(lc.LocalData2))
		if truth != dict.CatAction {
			continue
		}
		orig := bgp.NewCommunity(uint16(lc.GlobalAdmin), uint16(lc.LocalData2))
		if classic := inf.Category(orig); classic != dict.CatUnknown {
			compared++
			if classic != cat {
				t.Errorf("action mirror %v labeled %v, classic twin labeled %v", lc, cat, classic)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no action mirror had a labeled classic twin")
	}
}
