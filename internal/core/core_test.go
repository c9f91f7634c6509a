package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spineless/internal/topology"
	"spineless/internal/workload"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(2)) }

// tinyFabrics builds a small equipment-matched trio for fast tests:
// leaf-spine(6,2) = 8 racks, 48 servers, 10 switches.
func tinyFabrics(t *testing.T) *FabricSet {
	t.Helper()
	fs, err := BuildFabrics(topology.LeafSpineSpec{X: 6, Y: 2}, 0, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func fastFCTConfig() FCTConfig {
	cfg := DefaultFCTConfig()
	cfg.WindowSec = 0.002
	cfg.MaxFlows = 120
	cfg.Sizes = workload.Pareto{MeanBytes: 20e3, Alpha: 1.05, Cap: 200e3}
	cfg.Net.MaxSimTime = 5 * time.Second
	return cfg
}

func TestBuildFabricsEquipmentMatched(t *testing.T) {
	fs := tinyFabrics(t)
	if fs.LeafSpine.N() != fs.RRG.N() || fs.LeafSpine.N() != fs.DRing.N() {
		t.Fatalf("switch counts differ: %d %d %d", fs.LeafSpine.N(), fs.RRG.N(), fs.DRing.N())
	}
	if fs.LeafSpine.Servers() != fs.RRG.Servers() {
		t.Fatalf("RRG servers %d != leaf-spine %d", fs.RRG.Servers(), fs.LeafSpine.Servers())
	}
	// DRing server count is close but not identical (§5.1: ~2.8% fewer).
	dev := math.Abs(float64(fs.DRing.Servers())-float64(fs.LeafSpine.Servers())) / float64(fs.LeafSpine.Servers())
	if dev > 0.25 {
		t.Fatalf("DRing servers %d too far from %d", fs.DRing.Servers(), fs.LeafSpine.Servers())
	}
	for _, g := range []*topology.Graph{fs.LeafSpine, fs.RRG, fs.DRing} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatalf("%s disconnected", g.Name)
		}
	}
}

func TestPaperFabricsMatchesSection51(t *testing.T) {
	fs, err := PaperFabrics(testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fs.LeafSpine.Racks()); n != 64 {
		t.Fatalf("leaf-spine racks = %d, want 64", n)
	}
	if n := fs.DRing.N(); n != 80 {
		t.Fatalf("DRing racks = %d, want 80", n)
	}
	if s := fs.DRing.Servers(); s < 2940 || s > 3040 {
		t.Fatalf("DRing servers = %d, want ≈2988", s)
	}
	// "about 2.8% fewer" servers than the leaf-spine's 3072.
	if deficit := 1 - float64(fs.DRing.Servers())/3072; deficit < 0 || deficit > 0.05 {
		t.Fatalf("DRing server deficit vs leaf-spine = %.3f, want ≈0.028", deficit)
	}
	if s := fs.RRG.Servers(); s != 3072 {
		t.Fatalf("RRG servers = %d, want 3072", s)
	}
}

func TestScaledFabrics(t *testing.T) {
	fs, err := ScaledFabrics(4, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if fs.LeafSpineSpec.X != 12 || fs.LeafSpineSpec.Y != 4 {
		t.Fatalf("spec = %+v", fs.LeafSpineSpec)
	}
	if fs.LeafSpineSpec.X != 3*fs.LeafSpineSpec.Y {
		t.Fatal("oversubscription not preserved")
	}
	if _, err := ScaledFabrics(5, testRNG()); err == nil {
		t.Fatal("bad factor accepted")
	}
}

func TestPaperCombos(t *testing.T) {
	fs := tinyFabrics(t)
	combos, err := PaperCombos(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 5 {
		t.Fatalf("combos = %d, want 5", len(combos))
	}
	wantLabels := []string{
		"leaf-spine (ecmp)", "DRing (shortest-union(2))", "RRG (shortest-union(2))",
		"DRing (ecmp)", "RRG (ecmp)",
	}
	for i, c := range combos {
		if c.Label != wantLabels[i] {
			t.Fatalf("combo %d label %q, want %q", i, c.Label, wantLabels[i])
		}
	}
}

func TestNewComboSchemes(t *testing.T) {
	fs := tinyFabrics(t)
	for _, s := range []string{"ecmp", "su2", "su3", "ksp4", "vlb", "wcmp", "wsu2"} {
		if _, err := NewCombo("x", fs.DRing, s); err != nil {
			t.Fatalf("scheme %s: %v", s, err)
		}
	}
	for _, s := range append([]string{"magic"}, malformedSchemes...) {
		if _, err := NewCombo("x", fs.DRing, s); err == nil {
			t.Fatalf("unknown scheme %q accepted", s)
		}
	}
}

func TestBuildTMAllKinds(t *testing.T) {
	fs := tinyFabrics(t)
	for _, kind := range AllTMKinds() {
		m, placement, err := BuildTM(kind, fs.DRing, testRNG())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		wantPlacement := kind == TMFBSkewedRP || kind == TMFBUniformRP
		if (placement != nil) != wantPlacement {
			t.Fatalf("%s: placement presence = %v", kind, placement != nil)
		}
	}
	if _, _, err := BuildTM("nope", fs.DRing, testRNG()); err == nil {
		t.Fatal("unknown TM accepted")
	}
}

func TestRunFCTProducesStats(t *testing.T) {
	fs := tinyFabrics(t)
	combo, err := NewCombo("DRing su2", fs.DRing, "su2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFCT(fs, combo, TMA2A, fastFCTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows == 0 || res.Stats.Count == 0 {
		t.Fatalf("no flows measured: %+v", res)
	}
	if res.Stats.Incomplete != 0 {
		t.Fatalf("%d incomplete flows", res.Stats.Incomplete)
	}
	if res.Stats.MedianMS <= 0 || res.Stats.P99MS < res.Stats.MedianMS {
		t.Fatalf("suspicious stats: %+v", res.Stats)
	}
}

func TestRunFCTDeterministicAcrossSeeds(t *testing.T) {
	fs := tinyFabrics(t)
	combo, err := NewCombo("ls", fs.LeafSpine, "ecmp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastFCTConfig()
	a, err := RunFCT(fs, combo, TMFBSkewed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFCT(fs, combo, TMFBSkewed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	cfg.Seed = 99
	c, err := RunFCT(fs, combo, TMFBSkewed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats == c.Stats {
		t.Fatal("different seeds produced identical stats (suspicious)")
	}
}

func TestCSThroughputAndHeatmap(t *testing.T) {
	fs := tinyFabrics(t)
	dr, err := NewCombo("dring", fs.DRing, "su2")
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewCombo("ls", fs.LeafSpine, "ecmp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultThroughputConfig()
	agg, err := CSThroughput(dr, 4, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg <= 0 {
		t.Fatalf("aggregate = %v", agg)
	}
	h, err := CSRatioHeatmap(dr, ls, []int{2, 6}, []int{4, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for yi := range h.YTicks {
		for xi := range h.XTicks {
			v := h.Cells[yi][xi]
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("cell (%d,%d) = %v", xi, yi, v)
			}
		}
	}
}

// TestSkewedThroughputGain pins the §6.2 headline in miniature: for a
// skewed C-S pattern (|C| ≪ |S|) the DRing's throughput approaches the
// UDF-predicted 2× over leaf-spine.
func TestSkewedThroughputGain(t *testing.T) {
	fs := tinyFabrics(t)
	dr, err := NewCombo("dring", fs.DRing, "su2")
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewCombo("ls", fs.LeafSpine, "ecmp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultThroughputConfig()
	cfg.FlowsPerHost = 4
	// One full rack of clients blasting at many servers: ToR-bottlenecked.
	c := fs.LeafSpineSpec.X
	s := 3 * c
	a, err := CSThroughput(dr, c, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CSThroughput(ls, c, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := a / b
	if ratio < 1.15 {
		t.Fatalf("DRing/leaf-spine skewed throughput ratio = %.2f, want > 1.15", ratio)
	}
	// The generic bound is NSR(DRing)/NSR(leaf-spine), which exceeds the
	// UDF=2 of the exact rewiring when the tiny DRing hosts fewer servers
	// per ToR. Here NSR(DRing)=1 vs NSR(LS)=1/3 ⇒ bound 3.
	nsrD := float64(fs.DRing.NetworkDegree(0)) / float64(fs.DRing.ServerCount(0))
	bound := nsrD / (float64(fs.LeafSpineSpec.Y) / float64(fs.LeafSpineSpec.X))
	if ratio > bound*1.1 {
		t.Fatalf("ratio = %.2f, beyond the NSR bound %.2f", ratio, bound)
	}
}

func TestScaleSweep(t *testing.T) {
	cfg := DefaultScaleConfig()
	cfg.TorsPerSupernode = 3
	cfg.Ports = 20 // 12 network + 8 server links per ToR
	cfg.FCT = fastFCTConfig()
	pts, err := ScaleSweep([]int{5, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Racks != p.Supernodes*3 {
			t.Fatalf("racks = %d for m=%d", p.Racks, p.Supernodes)
		}
		if p.Ratio <= 0 || math.IsNaN(p.Ratio) {
			t.Fatalf("ratio = %v", p.Ratio)
		}
	}
}

func TestUDFStudy(t *testing.T) {
	rows, err := UDFStudy([]topology.LeafSpineSpec{{X: 6, Y: 2}, {X: 12, Y: 4}}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.UDFAnalytic-2) > 1e-9 {
			t.Fatalf("analytic UDF = %v", r.UDFAnalytic)
		}
		if math.Abs(r.UDFEmpirical-2) > 0.15 {
			t.Fatalf("empirical UDF = %v", r.UDFEmpirical)
		}
	}
	table := UDFTable(rows)
	if table == "" {
		t.Fatal("empty table")
	}
}

func TestMatchedRRGPreservesEquipment(t *testing.T) {
	dr, err := topology.DRing(topology.Uniform(6, 3, 20))
	if err != nil {
		t.Fatal(err)
	}
	rrg, err := MatchedRRG(dr, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if rrg.N() != dr.N() || rrg.Servers() != dr.Servers() || rrg.Ports != dr.Ports {
		t.Fatalf("equipment mismatch: %v vs %v", rrg, dr)
	}
	for v := 0; v < dr.N(); v++ {
		if rrg.NetworkDegree(v) != dr.NetworkDegree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}
