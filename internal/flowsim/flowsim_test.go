package flowsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoRackFabric: two ToRs joined by one link, two servers each.
func twoRackFabric(t testing.TB) *topology.Graph {
	t.Helper()
	g := topology.New("pair", 2, 3)
	if err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	g.SetServers(0, 2)
	g.SetServers(1, 2)
	return g
}

func TestMaxMinSingleFlow(t *testing.T) {
	g := twoRackFabric(t)
	cfg := Config{LinkRateBps: 10e9}
	rates, err := MaxMin(g, []PathFlow{{Src: 0, Dst: 2, Path: []int{0, 1}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(rates[0], 10e9, 1) {
		t.Fatalf("rate = %v, want 10e9", rates[0])
	}
}

func TestMaxMinHostNICLimits(t *testing.T) {
	g := twoRackFabric(t)
	cfg := Config{LinkRateBps: 10e9, HostRateBps: 1e9}
	rates, err := MaxMin(g, []PathFlow{{Src: 0, Dst: 2, Path: []int{0, 1}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(rates[0], 1e9, 1) {
		t.Fatalf("rate = %v, want host-limited 1e9", rates[0])
	}
}

func TestMaxMinFairShare(t *testing.T) {
	g := twoRackFabric(t)
	cfg := Config{LinkRateBps: 10e9}
	// Two flows share the single inter-ToR link (distinct hosts).
	flows := []PathFlow{
		{Src: 0, Dst: 2, Path: []int{0, 1}},
		{Src: 1, Dst: 3, Path: []int{0, 1}},
	}
	rates, err := MaxMin(g, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		if !almost(r, 5e9, 1e3) {
			t.Fatalf("flow %d rate = %v, want 5e9", i, r)
		}
	}
}

func TestMaxMinClassicThreeFlows(t *testing.T) {
	// Classic water-filling: line fabric 0-1-2.
	// f1 crosses link A=0→1 only, f2 crosses A and B=1→2, f3 crosses B only.
	// With A=1 and B=2 units: f1=f2=0.5, f3=1.5.
	g := topology.New("line", 3, 4)
	if err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	// Capacity trick: double the B link via a parallel link.
	if err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	g.SetServers(0, 2)
	g.SetServers(1, 2)
	g.SetServers(2, 2)
	// hosts: rack0 = {0,1}, rack1 = {2,3}, rack2 = {4,5}
	cfg := Config{LinkRateBps: 1e9, HostRateBps: 100e9}
	flows := []PathFlow{
		{Src: 0, Dst: 2, Path: []int{0, 1}},    // A only
		{Src: 1, Dst: 4, Path: []int{0, 1, 2}}, // A and B
		{Src: 3, Dst: 5, Path: []int{1, 2}},    // B only
	}
	rates, err := MaxMin(g, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5e9, 0.5e9, 1.5e9}
	for i := range want {
		if !almost(rates[i], want[i], 1e4) {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMaxMinParallelLinksAggregate(t *testing.T) {
	g := topology.New("dbl", 2, 4)
	for i := 0; i < 2; i++ {
		if err := g.AddLink(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	g.SetServers(0, 1)
	g.SetServers(1, 1)
	cfg := Config{LinkRateBps: 1e9, HostRateBps: 100e9}
	rates, err := MaxMin(g, []PathFlow{{Src: 0, Dst: 1, Path: []int{0, 1}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(rates[0], 2e9, 1e3) {
		t.Fatalf("rate = %v, want aggregated 2e9", rates[0])
	}
}

// TestMaxMinErrors: every malformed input is an error that names the
// offending flow — never a panic, although arrays index by host and switch id.
func TestMaxMinErrors(t *testing.T) {
	pair := twoRackFabric(t)           // hosts 0,1 on switch 0; hosts 2,3 on switch 1
	disc := topology.New("disc", 3, 3) // the same plus an unlinked switch 2 with host 4
	if err := disc.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	for sw, n := range []int{2, 2, 1} {
		disc.SetServers(sw, n)
	}
	ok := PathFlow{Src: 1, Dst: 3, Path: []int{0, 1}}
	cases := []struct {
		name string
		g    *topology.Graph
		bad  PathFlow
		cfg  Config
		flow bool // the error must name the bad flow
	}{
		{"self flow", pair, PathFlow{Src: 0, Dst: 0, Path: []int{0}}, DefaultConfig(), true},
		{"no path", pair, PathFlow{Src: 0, Dst: 2}, DefaultConfig(), true},
		{"path ends at the wrong racks", pair, PathFlow{Src: 0, Dst: 2, Path: []int{1, 0}}, DefaultConfig(), true},
		{"nonexistent link", disc, PathFlow{Src: 0, Dst: 4, Path: []int{0, 2}}, DefaultConfig(), true},
		{"negative source host", pair, PathFlow{Src: -1, Dst: 2, Path: []int{0, 1}}, DefaultConfig(), true},
		{"negative destination host", pair, PathFlow{Src: 0, Dst: -3, Path: []int{0, 1}}, DefaultConfig(), true},
		{"source host past the last", pair, PathFlow{Src: 4, Dst: 2, Path: []int{1, 1}}, DefaultConfig(), true},
		// RackOf(99) is the phantom switch 2, and the path agrees with it.
		{"destination host past the last", pair, PathFlow{Src: 0, Dst: 99, Path: []int{0, 2}}, DefaultConfig(), true},
		{"switch id past the last", pair, PathFlow{Src: 0, Dst: 2, Path: []int{0, 7, 1}}, DefaultConfig(), true},
		{"negative switch id", pair, PathFlow{Src: 0, Dst: 2, Path: []int{0, -1, 1}}, DefaultConfig(), true},
		{"zero link rate", pair, ok, Config{}, false},
		{"negative link rate", pair, ok, Config{LinkRateBps: -1}, false},
		{"NaN link rate", pair, ok, Config{LinkRateBps: math.NaN()}, false},
		{"infinite link rate", pair, ok, Config{LinkRateBps: math.Inf(1)}, false},
		{"infinite host rate", pair, ok, Config{LinkRateBps: 10e9, HostRateBps: math.Inf(1)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rates, err := MaxMin(c.g, []PathFlow{ok, c.bad}, c.cfg)
			if err == nil {
				t.Fatalf("accepted, rates %v", rates)
			}
			if c.flow && !strings.Contains(err.Error(), "flow 1:") {
				t.Fatalf("error %q does not name flow 1", err)
			}
		})
	}
}

func TestThroughputLeafSpineUniform(t *testing.T) {
	spec := topology.LeafSpineSpec{X: 4, Y: 2}
	g, err := topology.LeafSpine(spec)
	if err != nil {
		t.Fatal(err)
	}
	ecmp := routing.NewECMP(g)
	rng := rand.New(rand.NewSource(3))
	// One flow per server to a random remote server.
	var pairs [][2]int
	n := g.Servers()
	for s := 0; s < n; s++ {
		d := rng.Intn(n)
		for d == s || g.RackOf(d) == g.RackOf(s) {
			d = rng.Intn(n)
		}
		pairs = append(pairs, [2]int{s, d})
	}
	rates, agg, err := Throughput(g, ecmp, pairs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != len(pairs) || agg <= 0 {
		t.Fatalf("rates=%d agg=%v", len(rates), agg)
	}
	// Aggregate cannot exceed total spine capacity ×2 (up+down) nor total
	// host capacity.
	spineCap := workload.SpineCapacityBps(spec, 10e9)
	if agg > spineCap {
		t.Fatalf("aggregate %v exceeds one-way spine capacity %v", agg, spineCap)
	}
}

// TestThroughputFlatBeatsLeafSpineSkewed reproduces the §3.1/§6.2 headline
// in miniature: under skewed traffic that bottlenecks at the sending ToRs,
// a flat rewiring of the same equipment approaches 2× the leaf-spine
// throughput (UDF = 2).
func TestThroughputFlatBeatsLeafSpineSkewed(t *testing.T) {
	spec := topology.LeafSpineSpec{X: 6, Y: 2}
	ls, err := topology.LeafSpine(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	flat, err := topology.Flatten(ls, rng)
	if err != nil {
		t.Fatal(err)
	}

	aggFor := func(g *topology.Graph, sendRacks int) float64 {
		t.Helper()
		racks := g.Racks()
		var pairs [][2]int
		// Hosts in the first sendRacks racks each send one flow to a host in
		// the last racks (far side) — heavy outcast from few racks.
		dstRacks := racks[len(racks)-4:]
		di := 0
		for _, r := range racks[:sendRacks] {
			lo, hi := g.ServersOf(r)
			for s := lo; s < hi; s++ {
				dr := dstRacks[di%len(dstRacks)]
				dlo, dhi := g.ServersOf(dr)
				pairs = append(pairs, [2]int{s, dlo + di%(dhi-dlo)})
				di++
			}
		}
		_, agg, err := Throughput(g, routing.NewECMP(g), pairs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}

	lsAgg := aggFor(ls, 2)
	flatAgg := aggFor(flat, 2)
	ratio := flatAgg / lsAgg
	if ratio < 1.2 {
		t.Fatalf("flat/leaf-spine throughput ratio = %.2f, want > 1.2 (UDF predicts up to 2)", ratio)
	}
	if ratio > 2.3 {
		t.Fatalf("flat/leaf-spine throughput ratio = %.2f, absurdly above the UDF bound", ratio)
	}
}

// TestThroughputMatchesMaxMin: routing every flow into the pooled path
// arena gives the rates MaxMin gives on the same flows routed one Path at a
// time, bit for bit, and calls that reuse the pool agree with each other.
func TestThroughputMatchesMaxMin(t *testing.T) {
	g, err := topology.DRing(topology.Uniform(8, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	su2, err := routing.NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{500, 40, 500} {
		flows := randomFlows(g, su2, n, 0, rand.New(rand.NewSource(int64(n))))
		pairs := make([][2]int, len(flows))
		for i, f := range flows {
			pairs[i] = [2]int{f.Src, f.Dst}
		}
		got, agg, err := Throughput(g, su2, pairs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want, err := MaxMin(g, flows, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d flows: flow %d gets %v from Throughput and %v from MaxMin", n, i, got[i], want[i])
			}
			sum += want[i]
		}
		if agg != sum {
			t.Fatalf("%d flows: aggregate %v, the rates sum to %v", n, agg, sum)
		}
	}
}

func TestThroughputUnreachable(t *testing.T) {
	g := topology.New("disc", 2, 4)
	g.SetServers(0, 1)
	g.SetServers(1, 1)
	ecmp := routing.NewECMP(g)
	if _, _, err := Throughput(g, ecmp, [][2]int{{0, 1}}, DefaultConfig()); err == nil {
		t.Fatal("unreachable pair accepted")
	}
}

// TestThroughputErrors: a pair naming a host outside the fabric is an error
// that names the pair — never a panic, although the rack table and the
// FIBs index by host and rack.
func TestThroughputErrors(t *testing.T) {
	g, err := topology.LeafSpine(topology.LeafSpineSpec{X: 3, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	ecmp := routing.NewECMP(g)
	for _, bad := range [][2]int{{0, g.Servers()}, {-1, 5}} {
		rates, _, err := Throughput(g, ecmp, [][2]int{{1, g.Servers() - 1}, bad}, DefaultConfig())
		if err == nil {
			t.Fatalf("pair %v accepted, rates %v", bad, rates)
		}
		if !strings.Contains(err.Error(), "pair 1:") {
			t.Fatalf("pair %v: error %q does not name pair 1", bad, err)
		}
	}
}

// maxMinReference is the allocator as it stood before the indexed rewrite,
// kept as the oracle: map-indexed resources, one slice per flow, and every
// resource and every flow scanned on every filling level. Its subtraction's
// product is written float64(a*b), as flowsim's are, so that no
// architecture fuses it into a multiply-add.
func maxMinReference(g *topology.Graph, flows []PathFlow, cfg Config) ([]float64, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	res := newRefResources(g, cfg)
	flowRes := make([][]int32, len(flows))
	for i, f := range flows {
		r, err := res.forFlow(g, f)
		if err != nil {
			return nil, fmt.Errorf("flowsim: flow %d: %w", i, err)
		}
		flowRes[i] = r
	}
	active := make([]int32, len(res.cap))
	for _, rs := range flowRes {
		for _, r := range rs {
			active[r]++
		}
	}
	rem := append([]float64(nil), res.cap...)
	rates := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	remaining := len(flows)

	for remaining > 0 {
		inc := math.Inf(1)
		for r, a := range active {
			if a > 0 {
				if h := rem[r] / float64(a); h < inc {
					inc = h
				}
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		for r, a := range active {
			if a > 0 {
				rem[r] -= float64(inc * float64(a))
			}
		}
		const eps = 1e-6
		saturated := make([]bool, len(rem))
		for r := range rem {
			if active[r] > 0 && rem[r] <= eps*res.cap[r] {
				saturated[r] = true
			}
		}
		for i := range flows {
			if frozen[i] {
				continue
			}
			rates[i] += inc
			for _, r := range flowRes[i] {
				if saturated[r] {
					frozen[i] = true
					break
				}
			}
			if frozen[i] {
				for _, r := range flowRes[i] {
					active[r]--
				}
				remaining--
			}
		}
	}
	return rates, nil
}

type refResources struct {
	cap      []float64
	linkIdx  map[[2]int]int32
	hostUp   map[int]int32
	hostDown map[int]int32
	hostBps  float64
}

func newRefResources(g *topology.Graph, cfg Config) *refResources {
	r := &refResources{
		linkIdx:  make(map[[2]int]int32),
		hostUp:   make(map[int]int32),
		hostDown: make(map[int]int32),
		hostBps:  cfg.hostRate(),
	}
	for u := 0; u < g.N(); u++ {
		mult := map[int]int{}
		for _, v := range g.Neighbors(u) {
			mult[v]++
		}
		for v, m := range mult {
			r.linkIdx[[2]int{u, v}] = int32(len(r.cap))
			r.cap = append(r.cap, float64(m)*cfg.LinkRateBps)
		}
	}
	return r
}

func (r *refResources) forFlow(g *topology.Graph, f PathFlow) ([]int32, error) {
	if f.Src == f.Dst {
		return nil, fmt.Errorf("flow from host %d to itself", f.Src)
	}
	if len(f.Path) == 0 {
		return nil, fmt.Errorf("flow %d→%d has no path", f.Src, f.Dst)
	}
	if g.RackOf(f.Src) != f.Path[0] || g.RackOf(f.Dst) != f.Path[len(f.Path)-1] {
		return nil, fmt.Errorf("path %v does not join racks of hosts %d and %d", f.Path, f.Src, f.Dst)
	}
	out := make([]int32, 0, len(f.Path)+1)
	out = append(out, r.host(r.hostUp, f.Src))
	for h := 0; h+1 < len(f.Path); h++ {
		idx, ok := r.linkIdx[[2]int{f.Path[h], f.Path[h+1]}]
		if !ok {
			return nil, fmt.Errorf("path %v uses nonexistent link %d→%d", f.Path, f.Path[h], f.Path[h+1])
		}
		out = append(out, idx)
	}
	out = append(out, r.host(r.hostDown, f.Dst))
	return out, nil
}

func (r *refResources) host(m map[int]int32, h int) int32 {
	if idx, ok := m[h]; ok {
		return idx
	}
	idx := int32(len(r.cap))
	r.cap = append(r.cap, r.hostBps)
	m[h] = idx
	return idx
}

// assertMatchesReference fails unless MaxMin and the oracle agree on every
// rate to the last bit, and returns MaxMin's rates.
func assertMatchesReference(t *testing.T, g *topology.Graph, flows []PathFlow, cfg Config) []float64 {
	t.Helper()
	got, err := MaxMin(g, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := maxMinReference(g, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rates, the reference has %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("flow %d of %d: rate %v (%#x), the reference says %v (%#x)",
				i, len(flows), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return got
}

// randomFlows routes n random host pairs; hot > 0 draws every destination
// from the first hot hosts, so many flows pile onto a few NICs.
func randomFlows(g *topology.Graph, s routing.Scheme, n, hot int, rng *rand.Rand) []PathFlow {
	flows := make([]PathFlow, 0, n)
	for len(flows) < n {
		src, dst := rng.Intn(g.Servers()), rng.Intn(g.Servers())
		if hot > 0 {
			dst = rng.Intn(hot)
		}
		if src == dst {
			continue
		}
		path := s.Path(g.RackOf(src), g.RackOf(dst), uint64(len(flows)))
		flows = append(flows, PathFlow{Src: src, Dst: dst, Path: path})
	}
	return flows
}

// TestMaxMinMatchesReference: bit-identical rates on all five fabric
// builders at core.ScaledFabrics(4) size, plus a trunked and a
// swap-reordered copy of the RRG, under every scheme that applies, over
// uniform and NIC-skewed flow sets of varying size.
func TestMaxMinMatchesReference(t *testing.T) {
	spec := topology.LeafSpineSpec{X: 12, Y: 4}
	ls, err := topology.LeafSpine(spec)
	if err != nil {
		t.Fatal(err)
	}
	rrg, err := topology.Flatten(ls, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dring, err := topology.DRing(topology.BalancedDRing(spec.Switches(), 13, spec.Radix()))
	if err != nil {
		t.Fatal(err)
	}
	dbSpec, err := topology.FitDeBruijn(spec.Switches(), spec.Radix(), 6)
	if err != nil {
		t.Fatal(err)
	}
	debruijn, err := topology.DeBruijn(dbSpec)
	if err != nil {
		t.Fatal(err)
	}
	rng, err := topology.RNG(topology.RNGSpec{Switches: spec.Switches(), Degree: 6, Ports: spec.Radix()}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*topology.Graph{ls, rrg, dring, debruijn, rng, trunked(t, rrg), swapReordered(t, rrg)} {
		su2, err := routing.NewShortestUnion(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		schemes := []routing.Scheme{routing.NewECMP(g), su2}
		if g == debruijn {
			self, err := routing.NewDeBruijn(g)
			if err != nil {
				t.Fatal(err)
			}
			schemes = append(schemes, self)
		}
		for _, s := range schemes {
			t.Run(g.Name+"/"+s.Name(), func(t *testing.T) {
				for seed := int64(1); seed <= 24; seed++ {
					r := rand.New(rand.NewSource(seed))
					n, hot := 1+r.Intn(3*g.Servers()), 0
					if seed%3 == 0 {
						hot = 1 + r.Intn(8)
					}
					cfg := DefaultConfig()
					if seed%4 == 0 {
						cfg.HostRateBps = 1e9 * float64(1+r.Intn(40))
					}
					assertMatchesReference(t, g, randomFlows(g, s, n, hot, r), cfg)
				}
			})
		}
	}
}

// trunked returns a copy of g with a second copy of every third link, so
// link capacities aggregate parallel copies.
func trunked(t *testing.T, g *topology.Graph) *topology.Graph {
	t.Helper()
	out := g.Clone()
	out.Name = g.Name + "-trunked"
	out.Ports = 0
	k := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && k%3 == 0 {
				if err := out.AddLink(u, v); err != nil {
					t.Fatal(err)
				}
			}
			k++
		}
	}
	return out
}

// swapReordered returns a copy of g with the same links whose adjacency rows
// RemoveLink's swap-remove has permuted: every seventh link is removed and
// added back.
func swapReordered(t *testing.T, g *topology.Graph) *topology.Graph {
	t.Helper()
	out := g.Clone()
	out.Name = g.Name + "-reordered"
	k := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && k%7 == 0 {
				if !out.RemoveLink(u, v) {
					t.Fatalf("link %d-%d missing", u, v)
				}
				if err := out.AddLink(u, v); err != nil {
					t.Fatal(err)
				}
			}
			k++
		}
	}
	moved := 0
	for u := 0; u < g.N(); u++ {
		if !slices.Equal(out.Neighbors(u), g.Neighbors(u)) {
			moved++
		}
	}
	if moved < g.N()/2 {
		t.Fatalf("swap-remove permuted %d of %d rows; the graph is barely reordered", moved, g.N())
	}
	return out
}

// TestMaxMinMatchesReferenceEdgeCases covers the shapes random routing on
// simple fabrics never produces.
func TestMaxMinMatchesReferenceEdgeCases(t *testing.T) {
	trunk := trunkRing(t)
	slow := Config{LinkRateBps: 1e9, HostRateBps: 40e9} // links, not NICs, bind
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		assertMatchesReference(t, trunk, randomFlows(trunk, routing.NewECMP(trunk), 1+r.Intn(60), 0, r), slow)
	}

	pair := twoRackFabric(t)
	t.Run("same directed link twice", func(t *testing.T) {
		flows := []PathFlow{
			{Src: 0, Dst: 2, Path: []int{0, 1, 0, 1}}, // 0→1 twice, 1→0 once
			{Src: 1, Dst: 3, Path: []int{0, 1}},
			{Src: 3, Dst: 0, Path: []int{1, 0, 1, 0}},
			{Src: 2, Dst: 1, Path: []int{1, 0}},
		}
		assertMatchesReference(t, pair, flows, slow)
		assertMatchesReference(t, pair, flows, DefaultConfig())
	})
	t.Run("one host NIC shared by every flow", func(t *testing.T) {
		var flows []PathFlow
		for i := 0; i < 50; i++ {
			flows = append(flows, PathFlow{Src: 2 + i%2, Dst: 0, Path: []int{1, 0}})
		}
		assertMatchesReference(t, pair, flows, DefaultConfig())
	})
	t.Run("flows inside one rack", func(t *testing.T) {
		flows := []PathFlow{{Src: 0, Dst: 1, Path: []int{0}}, {Src: 1, Dst: 0, Path: []int{0}}, {Src: 0, Dst: 2, Path: []int{0, 1}}}
		assertMatchesReference(t, pair, flows, DefaultConfig())
	})
	t.Run("no flows", func(t *testing.T) {
		assertMatchesReference(t, pair, nil, DefaultConfig())
	})
}

// trunkRing is a ring of four racks, three hosts each, with links 0-1
// tripled and 1-2 doubled.
func trunkRing(t testing.TB) *topology.Graph {
	t.Helper()
	g := topology.New("trunks", 4, 8)
	for _, l := range [][2]int{{0, 1}, {0, 1}, {0, 1}, {1, 2}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < g.N(); v++ {
		g.SetServers(v, 3)
	}
	if g.LinkMultiplicity(0, 1) != 3 || g.LinkMultiplicity(2, 1) != 2 {
		t.Fatal("fabric lost its parallel links")
	}
	return g
}

// FuzzMaxMin holds MaxMin to maxMinReference bit for bit on fuzzer-chosen
// flow sets, and, for routed flow sets, Throughput on the same host pairs to
// MaxMin: the pooled rack and link tables, reused across four fabrics, must
// not show in a rate. A script's bytes pick, in order: the fabric, the routing
// (ECMP, Shortest-Union(2), or a random walk that may cross a link twice),
// the NIC speed as a multiple of the link speed, how many hot destination
// hosts (0 for none), the flow count (two bytes), and the rest seed the
// draws. The NIC multiples include ones within 1e-6 of the link speed, so a
// NIC and a link can saturate on the same level from either side of the
// saturation tolerance. testdata/fuzz/FuzzMaxMin holds the seed corpus,
// which plain go test replays: ties on a symmetric leaf-spine, parallel
// trunks, a link crossed twice, near-simultaneous saturation, and NICs
// slower than the links. It replaces no pinned-seed loop: those in
// TestMaxMinMatchesReference and TestMaxMinMatchesReferenceEdgeCases cover
// larger fabrics and every scheme, on every plain go test.
func FuzzMaxMin(f *testing.F) {
	ls, err := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 2})
	if err != nil {
		f.Fatal(err)
	}
	dring, err := topology.DRing(topology.Uniform(6, 2, 20))
	if err != nil {
		f.Fatal(err)
	}
	fabrics := []*topology.Graph{ls, trunkRing(f), twoRackFabric(f), dring}
	var schemes [][2]routing.Scheme // per fabric: ECMP, Shortest-Union(2)
	for _, g := range fabrics {
		su2, err := routing.NewShortestUnion(g, 2)
		if err != nil {
			f.Fatal(err)
		}
		schemes = append(schemes, [2]routing.Scheme{routing.NewECMP(g), su2})
	}
	nics := []float64{1, 1 + 5e-7, 1 + 1e-6, 1 + 2e-6, 1 - 5e-7, 1 - 1e-6, 0.5, 0.1, 1.0 / 3, 3}
	f.Fuzz(func(t *testing.T, script []byte) {
		var b [14]byte
		copy(b[:], script)
		fi := int(b[0]) % len(fabrics)
		g := fabrics[fi]
		cfg := Config{LinkRateBps: 10e9, HostRateBps: 10e9 * nics[int(b[2])%len(nics)]}
		hot := min(int(b[3])%9, g.Servers())
		n := 1 + int(binary.LittleEndian.Uint16(b[4:6]))%(3*g.Servers())
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(b[6:14]))))
		mode := b[1] % 3
		if mode == 2 {
			assertMatchesReference(t, g, randomWalks(g, schemes[fi][0], n, hot, rng), cfg)
			return
		}
		flows := randomFlows(g, schemes[fi][mode], n, hot, rng)
		want := assertMatchesReference(t, g, flows, cfg)
		pairs := make([][2]int, len(flows))
		for i, f := range flows {
			pairs[i] = [2]int{f.Src, f.Dst}
		}
		got, _, err := Throughput(g, schemes[fi][mode], pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("flow %d of %d: Throughput gives %v, MaxMin %v", i, len(flows), got[i], want[i])
			}
		}
	})
}

// randomWalks is randomFlows with detours: each path takes up to three
// random hops from the source rack, then the ECMP path on to the destination
// rack, so it may cross a link, or a link's reverse, more than once.
func randomWalks(g *topology.Graph, ecmp routing.Scheme, n, hot int, rng *rand.Rand) []PathFlow {
	flows := randomFlows(g, ecmp, n, hot, rng)
	for i := range flows {
		f := &flows[i]
		walk := []int{f.Path[0]}
		for hops := rng.Intn(4); hops > 0; hops-- {
			nb := g.Neighbors(walk[len(walk)-1])
			if len(nb) == 0 {
				break
			}
			walk = append(walk, nb[rng.Intn(len(nb))])
		}
		f.Path = append(walk, ecmp.Path(walk[len(walk)-1], f.Path[len(f.Path)-1], uint64(i))[1:]...)
	}
	return flows
}

// load indexes flows on g in in's arenas at DefaultConfig, as MaxMin does
// before it fills.
func (in *instance) load(g *topology.Graph, flows []PathFlow) error {
	in.hosts(g)
	return in.index(g, flows, DefaultConfig())
}

// TestResourceNumberingIsDeterministic: the directed link u→v is the
// topology port of its first copy — Σ_{w<u} deg(w) plus the position of v's
// first entry in u's adjacency row — and host resources follow every port in
// first-use order. The fabric has parallel trunks, so "first copy" is
// pinned. Nothing follows map iteration order, as the numbering once did.
func TestResourceNumberingIsDeterministic(t *testing.T) {
	dring, err := topology.DRing(topology.Uniform(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	g := trunked(t, dring)
	flows := randomFlows(g, routing.NewECMP(g), 300, 0, rand.New(rand.NewSource(7)))
	a := new(instance)
	if err := a.load(g, flows); err != nil {
		t.Fatal(err)
	}
	b := new(instance)
	for run := 0; run < 10; run++ {
		// b's arenas are reused, as a pooled instance's are, and were last
		// filled by a different flow list.
		if err := b.load(g, flows[run:]); err != nil {
			t.Fatal(err)
		}
		if err := b.load(g, flows); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.flowRes, b.flowRes) || !slices.Equal(a.flowOff, b.flowOff) || !slices.Equal(a.cap, b.cap) {
			t.Fatalf("set-up %d numbered the resources differently", run)
		}
	}
	// The link part of the numbering, spelled out.
	want := map[[2]int]int32{}
	ports := 0
	for u := 0; u < g.N(); u++ {
		for j, v := range g.Neighbors(u) {
			if _, seen := want[[2]int{u, v}]; !seen {
				want[[2]int{u, v}] = int32(ports + j)
			}
		}
		ports += g.NetworkDegree(u)
	}
	for i, f := range flows {
		res := a.flowRes[a.flowOff[i]:a.flowOff[i+1]]
		for h := 0; h+1 < len(f.Path); h++ {
			u, v := f.Path[h], f.Path[h+1]
			if got := res[1+h]; got != want[[2]int{u, v}] {
				t.Fatalf("flow %d hop %d→%d is resource %d, want %d", i, u, v, got, want[[2]int{u, v}])
			}
			if c := a.cap[res[1+h]]; c != float64(g.LinkMultiplicity(u, v))*DefaultConfig().LinkRateBps {
				t.Fatalf("link %d→%d has capacity %v, want multiplicity × rate", u, v, c)
			}
		}
	}
	if first := a.flowRes[0]; first != int32(ports) {
		t.Fatalf("first host resource is %d, want %d (right after the ports)", first, ports)
	}
}

// TestPooledInstanceReuse: one instance indexes four flow lists in turn,
// alternating two fabrics of different sizes as fig5-flow's cells do, with
// an error midway. Every valid call numbers the resources as a fresh
// instance does, and no call, the failing one included, leaves a filled
// link-table slot behind.
func TestPooledInstanceReuse(t *testing.T) {
	dring, err := topology.DRing(topology.Uniform(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	ls, err := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dring.N() == ls.N() || dring.Links() == ls.Links() {
		t.Fatal("the two fabrics share a size; the test needs them to differ")
	}
	dringFlows := randomFlows(dring, routing.NewECMP(dring), 300, 0, rand.New(rand.NewSource(5)))
	lsFlows := randomFlows(ls, routing.NewECMP(ls), 150, 0, rand.New(rand.NewSource(6)))
	// Two leaves have no link between them: the list fails after every
	// valid flow is indexed.
	racks := ls.Racks()
	a, b := racks[0], racks[1]
	if ls.HasLink(a, b) {
		t.Fatalf("leaves %d and %d are linked", a, b)
	}
	srcLo, _ := ls.ServersOf(a)
	dstLo, _ := ls.ServersOf(b)
	bad := append(slices.Clone(lsFlows), PathFlow{Src: srcLo, Dst: dstLo, Path: []int{a, b}})

	in := new(instance)
	for step, c := range []struct {
		g     *topology.Graph
		flows []PathFlow
	}{{dring, dringFlows}, {ls, bad}, {ls, lsFlows}, {dring, dringFlows}} {
		err := in.load(c.g, c.flows)
		for s, slot := range in.links {
			if slot != (linkSlot{}) {
				t.Fatalf("call %d left link-table slot %d filled: %+v", step+1, s, slot)
			}
		}
		if len(in.linkUsed) != 0 {
			t.Fatalf("call %d left %d slots listed", step+1, len(in.linkUsed))
		}
		if step == 1 {
			if err == nil || !strings.Contains(err.Error(), "nonexistent link") {
				t.Fatalf("call %d: error %v, want a nonexistent link", step+1, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		fresh := new(instance)
		if err := fresh.load(c.g, c.flows); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(in.flowRes, fresh.flowRes) || !slices.Equal(in.flowOff, fresh.flowOff) || !slices.Equal(in.cap, fresh.cap) {
			t.Fatalf("call %d numbered the resources unlike a fresh instance", step+1)
		}
	}
}

// TestMaxMinAllocsIndependentOfFlows pins MaxMin's allocation discipline
// at its exact count: once the pool is warm, the returned rates and nothing
// else — nothing per flow, per filling level or per fill call. One extra
// make anywhere on the path (fill included) moves the count, so the pin is
// exact rather than a bound.
func TestMaxMinAllocsIndependentOfFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI pins this in a non-race step")
	}
	g, err := topology.DRing(topology.Uniform(8, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	ecmp := routing.NewECMP(g)
	allocs := func(n int) float64 {
		flows := randomFlows(g, ecmp, n, 0, rand.New(rand.NewSource(int64(n))))
		return testing.AllocsPerRun(10, func() {
			if _, err := MaxMin(g, flows, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
	const want = 1
	few, many := allocs(200), allocs(2000)
	if few != want || many != want {
		t.Fatalf("MaxMin allocates %.0f objects for 200 flows and %.0f for 2000, want exactly %d for both", few, many, want)
	}
}

// TestThroughputAllocs pins Throughput at its exact count once the pool is
// warm: the returned rates and nothing else. The paths, the rack and link
// tables and the index all live in the pooled instance.
func TestThroughputAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI pins this in a non-race step")
	}
	g, err := topology.DRing(topology.Uniform(8, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	ecmp := routing.NewECMP(g)
	flows := randomFlows(g, ecmp, 500, 0, rand.New(rand.NewSource(500)))
	pairs := make([][2]int, len(flows))
	for i, f := range flows {
		pairs[i] = [2]int{f.Src, f.Dst}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Throughput(g, ecmp, pairs, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Throughput allocates %.0f objects for %d pairs, want exactly 1", allocs, len(pairs))
	}
}
