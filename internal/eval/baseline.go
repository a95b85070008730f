package eval

import (
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
)

// BaselineCluster groups observed communities by the ground-truth regex
// that covers them — the "baseline clusters" of §5.1 whose
// on-path:off-path (Fig. 6) and customer:peer (Fig. 7) ratios motivate
// the method.
type BaselineCluster struct {
	ASN     uint32
	Entry   *dict.Entry
	Members []core.Stats[bgp.Community]

	PureOnPath  bool
	PureOffPath bool
	// Ratio is the mean of member on:off ratios (meaningful for mixed
	// clusters).
	Ratio float64
}

// Category returns the cluster's ground-truth label.
func (b *BaselineCluster) Category() dict.Category { return b.Entry.Category() }

// Mixed reports whether the cluster has both on- and off-path counts.
func (b *BaselineCluster) Mixed() bool { return !b.PureOnPath && !b.PureOffPath }

// BaselineClusters assigns each observed community covered by the
// dictionary to its first matching entry and computes cluster ratios.
// The observations' key order puts each cluster's members in ascending
// order, and the clusters in (ASN, first member) order.
func BaselineClusters(os *core.ObservationSet, d *dict.Dictionary) []*BaselineCluster {
	byEntry := make(map[*dict.Entry]*BaselineCluster)
	var out []*BaselineCluster
	for _, st := range os.Stats {
		e, ok := d.Lookup(uint32(st.Comm.ASN()), st.Comm.Value())
		if !ok {
			continue
		}
		cl := byEntry[e]
		if cl == nil {
			cl = &BaselineCluster{ASN: uint32(st.Comm.ASN()), Entry: e}
			byEntry[e] = cl
			out = append(out, cl)
		}
		cl.Members = append(cl.Members, st)
	}
	for _, cl := range out {
		onTotal, offTotal, ratioSum := 0, 0, 0.0
		for _, m := range cl.Members {
			onTotal += m.OnPath
			offTotal += m.OffPath
			ratioSum += m.Ratio()
		}
		cl.PureOnPath = offTotal == 0
		cl.PureOffPath = onTotal == 0
		cl.Ratio = ratioSum / float64(len(cl.Members))
	}
	return out
}

// ThresholdPoint is one point of a threshold accuracy scan.
type ThresholdPoint struct {
	Threshold float64
	Accuracy  float64
}

// ScanRatioThreshold evaluates, over the mixed baseline clusters, the
// community-weighted accuracy of "ratio >= t -> information" for each
// threshold, reproducing the Fig. 6 observation that ~160:1 separates
// the categories.
func ScanRatioThreshold(clusters []*BaselineCluster, thresholds []float64) []ThresholdPoint {
	out := make([]ThresholdPoint, 0, len(thresholds))
	for _, t := range thresholds {
		correct, total := 0, 0
		for _, cl := range clusters {
			if !cl.Mixed() {
				continue
			}
			inferred := dict.CatAction
			if cl.Ratio >= t {
				inferred = dict.CatInformation
			}
			total += len(cl.Members)
			if inferred == cl.Category() {
				correct += len(cl.Members)
			}
		}
		acc := 0.0
		if total > 0 {
			acc = float64(correct) / float64(total)
		}
		out = append(out, ThresholdPoint{Threshold: t, Accuracy: acc})
	}
	return out
}

// CustPeerCluster carries a baseline cluster's mean customer:peer ratio
// (Fig. 7).
type CustPeerCluster struct {
	Cluster *BaselineCluster
	Ratio   float64
	Members int // members with any customer/peer evidence
}

// CustPeerClusters aggregates per-community customer:peer statistics to
// baseline clusters (mean of member ratios, over members with evidence).
func CustPeerClusters(clusters []*BaselineCluster, stats map[bgp.Community]*core.CustPeerStats) []CustPeerCluster {
	var out []CustPeerCluster
	for _, cl := range clusters {
		sum, n := 0.0, 0
		for _, m := range cl.Members {
			if st, ok := stats[m.Comm]; ok {
				sum += st.Ratio()
				n++
			}
		}
		if n == 0 {
			continue
		}
		out = append(out, CustPeerCluster{Cluster: cl, Ratio: sum / float64(n), Members: n})
	}
	return out
}

// ScanCustPeerThreshold evaluates "ratio < t -> information" over
// clusters with evidence, community-weighted, reproducing the Fig. 7
// finding that the best threshold (~5:1) only reaches ~80% accuracy.
func ScanCustPeerThreshold(clusters []CustPeerCluster, thresholds []float64) []ThresholdPoint {
	out := make([]ThresholdPoint, 0, len(thresholds))
	for _, t := range thresholds {
		correct, total := 0, 0
		for _, cp := range clusters {
			inferred := dict.CatAction
			if cp.Ratio < t {
				inferred = dict.CatInformation
			}
			total += cp.Members
			if inferred == cp.Cluster.Category() {
				correct += cp.Members
			}
		}
		acc := 0.0
		if total > 0 {
			acc = float64(correct) / float64(total)
		}
		out = append(out, ThresholdPoint{Threshold: t, Accuracy: acc})
	}
	return out
}
