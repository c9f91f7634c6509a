package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spineless/internal/topology"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(11)) }

func testFabric(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.DRing(topology.Uniform(6, 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestUniformMatrix(t *testing.T) {
	m := Uniform(5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Total() != 20 {
		t.Fatalf("total = %v, want 20", m.Total())
	}
	if m.SendingRacks() != 5 {
		t.Fatalf("sending racks = %d, want 5", m.SendingRacks())
	}
}

func TestRackToRackMatrix(t *testing.T) {
	m := RackToRack(8, 2, 5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.SendingRacks() != 2 {
		t.Fatalf("sending racks = %d, want 2", m.SendingRacks())
	}
	if ParticipationScale(m) != 0.25 {
		t.Fatalf("participation = %v, want 0.25", ParticipationScale(m))
	}
}

func TestMatrixValidateRejects(t *testing.T) {
	m := NewMatrix("bad", 3)
	if err := m.Validate(); err == nil {
		t.Fatal("zero matrix accepted")
	}
	m.W[0][0] = 1
	if err := m.Validate(); err == nil {
		t.Fatal("diagonal accepted")
	}
	m.W[0][0] = 0
	m.W[0][1] = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestSamplerRespectsWeights(t *testing.T) {
	m := NewMatrix("w", 3)
	m.W[0][1] = 3
	m.W[1][2] = 1
	s, err := NewSampler(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG()
	counts := map[[2]int]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		a, b := s.Sample(rng)
		counts[[2]int{a, b}]++
	}
	if len(counts) != 2 {
		t.Fatalf("sampled pairs = %v", counts)
	}
	frac := float64(counts[[2]int{0, 1}]) / draws
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("P(0→1) = %v, want ≈0.75", frac)
	}
}

func TestSamplerRejectsInvalid(t *testing.T) {
	if _, err := NewSampler(NewMatrix("zero", 2)); err == nil {
		t.Fatal("zero matrix sampler created")
	}
}

func TestFBWorkloadsSkewOrdering(t *testing.T) {
	rng := testRNG()
	uni := FBUniform(64, rng)
	skw := FBSkewed(64, rng)
	if err := uni.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := skw.Validate(); err != nil {
		t.Fatal(err)
	}
	su, ss := skew(uni), skew(skw)
	// Uniform: top-10% racks carry ≈10% of demand. Skewed: far more.
	if su > 0.2 {
		t.Fatalf("FB-uniform skew = %v, want ≈0.1", su)
	}
	if ss < 0.22 {
		t.Fatalf("FB-skewed skew = %v, want substantial (>0.22)", ss)
	}
	if ss <= su {
		t.Fatalf("skewed (%v) not more skewed than uniform (%v)", ss, su)
	}
}

func TestParetoSizes(t *testing.T) {
	p := PaperFlowSizes()
	rng := testRNG()
	var sum float64
	lo, hi := int64(math.MaxInt64), int64(0)
	const n = 200000
	for i := 0; i < n; i++ {
		v := p.Sample(rng)
		if v < 1 {
			t.Fatalf("size %d < 1", v)
		}
		sum += float64(v)
		lo, hi = min(lo, v), max(hi, v)
	}
	mean := sum / n
	// With alpha=1.05 the capped empirical mean sits well below the nominal
	// 100KB but the same order of magnitude; the minimum is x_m ≈ 4.76KB.
	if mean < 10e3 || mean > 300e3 {
		t.Fatalf("empirical mean = %v, want within [10KB, 300KB]", mean)
	}
	wantXm := 100e3 * 0.05 / 1.05
	if float64(lo) < wantXm*0.95 || float64(lo) > wantXm*1.3 {
		t.Fatalf("min sample = %d, want ≈ x_m = %v", lo, wantXm)
	}
	if hi > 100e3*1e4 {
		t.Fatalf("cap violated: max = %d", hi)
	}
}

func TestParetoQuickPositiveAndCapped(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Pareto{MeanBytes: 50e3, Alpha: 1.05, Cap: 1e6}
		for i := 0; i < 100; i++ {
			v := p.Sample(rng)
			if v < 1 || v > 1e6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedSizes(t *testing.T) {
	f := Fixed(1500)
	if f.Sample(testRNG()) != 1500 || f.Mean() != 1500 {
		t.Fatal("fixed distribution broken")
	}
}

func TestCSModelPacking(t *testing.T) {
	g := testFabric(t) // 12 racks × 8 servers
	perRack := g.ServerCount(0)
	cs, err := CSModel(g, 2*perRack+1, perRack, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Clients) != 2*perRack+1 || len(cs.Servers) != perRack {
		t.Fatalf("sizes: C=%d S=%d", len(cs.Clients), len(cs.Servers))
	}
	racksOf := func(hosts []int) map[int]bool {
		out := map[int]bool{}
		for _, h := range hosts {
			out[g.RackOf(h)] = true
		}
		return out
	}
	// Fewest racks: 3 client racks (2 full + 1 partial), 1 server rack.
	cr, sr := racksOf(cs.Clients), racksOf(cs.Servers)
	if len(cr) != 3 {
		t.Fatalf("client racks = %v, want 3 racks", cr)
	}
	if len(sr) != 1 {
		t.Fatalf("server racks = %v, want 1 rack", sr)
	}
	// Disjointness.
	for r := range sr {
		if cr[r] {
			t.Fatalf("server rack %d overlaps client racks", r)
		}
	}
}

func TestCSModelErrors(t *testing.T) {
	g := testFabric(t)
	if _, err := CSModel(g, 0, 5, testRNG()); err == nil {
		t.Fatal("C=0 accepted")
	}
	if _, err := CSModel(g, g.Servers(), 1, testRNG()); err == nil {
		t.Fatal("no capacity left for servers, but accepted")
	}
	for _, n := range []int{g.Servers() + 1, math.MaxInt} {
		if _, err := CSModel(g, n, 1, testRNG()); err == nil {
			t.Fatalf("C=%d exceeds the fabric's %d servers, but accepted", n, g.Servers())
		}
		if _, err := CSModel(g, 1, n, testRNG()); err == nil {
			t.Fatalf("S=%d exceeds the fabric's %d servers, but accepted", n, g.Servers())
		}
	}
}

func TestCSMatrixWeights(t *testing.T) {
	g := testFabric(t)
	cs, err := CSModel(g, 4, 6, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	m := CSMatrix(g, cs)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Total(), float64(4*6); got != want {
		t.Fatalf("total weight = %v, want %v (clients × servers)", got, want)
	}
}

func TestCSPairs(t *testing.T) {
	g := testFabric(t)
	cs, err := CSModel(g, 4, 6, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	inC := map[int]bool{}
	for _, h := range cs.Clients {
		inC[h] = true
	}
	inS := map[int]bool{}
	for _, h := range cs.Servers {
		inS[h] = true
	}
	for _, p := range CSPairs(cs, 100, testRNG()) {
		if !inC[p[0]] || !inS[p[1]] {
			t.Fatalf("pair %v not client→server", p)
		}
	}
}

func TestGenerateFlows(t *testing.T) {
	g := testFabric(t)
	m := Uniform(len(g.Racks()))
	flows, err := GenerateFlows(g, m, GenConfig{
		Flows:    500,
		Sizes:    Fixed(1000),
		WindowNS: 1e9,
	}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 500 {
		t.Fatalf("flows = %d, want 500", len(flows))
	}
	prev := int64(-1)
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
		if g.RackOf(f.Src) == g.RackOf(f.Dst) {
			t.Fatal("intra-rack flow from inter-rack matrix")
		}
		if f.StartNS < 0 || f.StartNS >= 1e9 {
			t.Fatalf("start %d outside window", f.StartNS)
		}
		if f.StartNS < prev {
			t.Fatal("flows not sorted by start time")
		}
		prev = f.StartNS
		if f.SizeBytes != 1000 {
			t.Fatalf("size = %d", f.SizeBytes)
		}
	}
}

func TestGenerateFlowsPlacement(t *testing.T) {
	g := testFabric(t)
	m := RackToRack(len(g.Racks()), 0, 1)
	perm := RandomPlacement(g, testRNG())
	flows, err := GenerateFlows(g, m, GenConfig{
		Flows:     200,
		Sizes:     Fixed(1),
		Placement: perm,
	}, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	// With random placement the rack pair (0,1) pattern must spread across
	// many racks.
	rackPairs := map[[2]int]bool{}
	for _, f := range flows {
		rackPairs[[2]int{g.RackOf(f.Src), g.RackOf(f.Dst)}] = true
	}
	if len(rackPairs) < 10 {
		t.Fatalf("placement did not spread traffic: %d rack pairs", len(rackPairs))
	}
}

func TestGenerateFlowsErrors(t *testing.T) {
	g := testFabric(t)
	if _, err := GenerateFlows(g, Uniform(3), GenConfig{Flows: 1, Sizes: Fixed(1)}, testRNG()); err == nil {
		t.Fatal("rack-count mismatch accepted")
	}
	m := Uniform(len(g.Racks()))
	if _, err := GenerateFlows(g, m, GenConfig{Flows: 1}, testRNG()); err == nil {
		t.Fatal("missing size distribution accepted")
	}
	if _, err := GenerateFlows(g, m, GenConfig{Flows: 1, Sizes: Fixed(1), Placement: []int{0}}, testRNG()); err == nil {
		t.Fatal("bad placement accepted")
	}
}

func TestSpineCapacityAndLoad(t *testing.T) {
	spec := topology.LeafSpineSpec{X: 48, Y: 16}
	capBps := SpineCapacityBps(spec, 10e9)
	if capBps != 64*16*10e9 {
		t.Fatalf("spine capacity = %v", capBps)
	}
	n := FlowCountForLoad(capBps, 0.3, 100e3, 0.01)
	// 30% of 10.24 Tbps = 384 GB/s; over 10ms = 3.84GB; /100KB = 38400.
	if n != 38400 {
		t.Fatalf("flow count = %d, want 38400", n)
	}
}

func TestRandomPlacementIsPermutation(t *testing.T) {
	g := testFabric(t)
	perm := RandomPlacement(g, testRNG())
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

// skew reports the fraction of total demand carried by the busiest 10% of
// source racks: ≈0.1 for a uniform matrix, much higher for a skewed one.
func skew(m *Matrix) float64 {
	rows := make([]float64, m.N())
	total := 0.0
	for i, row := range m.W {
		for _, v := range row {
			rows[i] += v
			total += v
		}
	}
	if total <= 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(rows)))
	sum := 0.0
	for _, v := range rows[:(len(rows)+9)/10] {
		sum += v
	}
	return sum / total
}
