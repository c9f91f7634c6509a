package core

import (
	"math"
	"testing"

	"spineless/internal/workload"
)

func TestIdealThroughputUniformLeafSpine(t *testing.T) {
	fs := tinyFabrics(t)
	m := workload.Uniform(len(fs.LeafSpine.Racks()))
	lam, err := IdealThroughput(fs.LeafSpine, m, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if lam <= 0 {
		t.Fatalf("λ = %v", lam)
	}
	// Analytic ceiling for uniform traffic on leaf-spine(6,2): all demand
	// crosses the leaf→spine layer twice (up, down); aggregate spine
	// capacity is leaves×y = 16 link units per direction. Total demand is
	// 8×7 = 56 units, so λ ≤ 16/56 ≈ 0.2857.
	if lam > 16.0/56.0*1.001 {
		t.Fatalf("λ = %v exceeds the spine-capacity ceiling %v", lam, 16.0/56.0)
	}
	// The FPTAS should land within ~20% of the ceiling (ECMP-perfect
	// fabrics achieve it exactly).
	if lam < 16.0/56.0*0.8 {
		t.Fatalf("λ = %v far below the achievable %v", lam, 16.0/56.0)
	}
}

func TestIdealThroughputFlatBeatsLeafSpineOnHotRack(t *testing.T) {
	fs := tinyFabrics(t)
	// Hot rack 0 fans out uniformly: the §3.1 bottleneck case.
	mk := func(n int) *workload.Matrix {
		m := workload.NewMatrix("hot", n)
		for j := 1; j < n; j++ {
			m.W[0][j] = 1
		}
		return m
	}
	lamLS, err := IdealThroughput(fs.LeafSpine, mk(len(fs.LeafSpine.Racks())), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	lamRRG, err := IdealThroughput(fs.RRG, mk(len(fs.RRG.Racks())), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The flat rewiring has 2× the egress per hot rack (UDF); under ideal
	// routing the ratio shows up directly (normalized per unit demand the
	// leaf-spine rack has y=2 uplinks over 7 units, the flat rack ~4 links
	// over 9 units).
	lsCeiling := 2.0 / 7.0
	if math.Abs(lamLS-lsCeiling) > 0.1*lsCeiling {
		t.Fatalf("leaf-spine hot-rack λ = %v, want ≈%v", lamLS, lsCeiling)
	}
	perDemandLS := lamLS * 7
	perDemandRRG := lamRRG * float64(len(fs.RRG.Racks())-1)
	if perDemandRRG <= perDemandLS*1.2 {
		t.Fatalf("flat ideal hot-rack egress %v not clearly above leaf-spine %v", perDemandRRG, perDemandLS)
	}
}
