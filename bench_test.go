// Benchmarks regenerating every table and figure of "Spineless Data
// Centers" at laptop scale, plus ablations of the design choices called out
// in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkFig4_* covers the seven Figure 4 workloads (median + p99 FCT
// across the five fabric × routing combos); BenchmarkFig5_* the four C-S
// heatmap panels; BenchmarkFig6 the scale sweep; BenchmarkUDF the §3.1
// analysis; BenchmarkTheorem1 the §4 verification. Each iteration runs the
// full (scaled-down) experiment; per-op time is the cost of regenerating
// that artifact. cmd/fig4, cmd/fig5 and cmd/fig6 run the same code at
// larger scale with reporting.
//
// The Test*Allocs pins keep the allocation counts of the key benchmarks as
// tests: each calls the same setup helper as its benchmark and bounds
// allocs and bytes per run. Timings are recorded by benchmark/ instead.
package spineless_test

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"spineless"
	"spineless/internal/flowsim"
	"spineless/internal/store"
	"spineless/internal/workload"
)

func benchFabrics(tb testing.TB, seed int64) *spineless.FabricSet {
	tb.Helper()
	fs, err := spineless.ScaledFabrics(8, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// benchLoop times run b.N times, setup excluded.
func benchLoop(b *testing.B, run func()) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// allocPin is a benchmark's allocation record kept as a test: run, built by
// the same helper as the benchmark, must average at most maxAllocs objects
// (testing.AllocsPerRun) and maxBytes bytes over runs calls. The bounds sit
// about 10% above the count measured when the pin was set, headroom for
// the differences between Go releases.
func allocPin(t *testing.T, runs int, maxAllocs, maxBytes uint64, run func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes allocation counts; CI pins this in a non-race step")
	}
	allocs := testing.AllocsPerRun(runs, run)
	// One worker, as inside AllocsPerRun, so pooled scratch is reused the
	// same way while the bytes are counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	t.Logf("%.0f allocs, %d B per run", allocs, bytes)
	if allocs > float64(maxAllocs) {
		t.Errorf("allocates %.0f objects per run, want at most %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("allocates %d B per run, want at most %d", bytes, maxBytes)
	}
}

func benchFCTConfig() spineless.FCTConfig {
	cfg := spineless.DefaultFCTConfig()
	cfg.WindowSec = 0.004
	cfg.MaxFlows = 400
	cfg.Sizes = spineless.ParetoSizes(40e3, 1.05, 400e3)
	return cfg
}

// fig4Run returns one Figure 4 workload across all five combos.
func fig4Run(tb testing.TB, kind spineless.TMKind) func() {
	fs := benchFabrics(tb, 1)
	combos, err := spineless.PaperCombos(fs)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := benchFCTConfig()
	return func() {
		for _, c := range combos {
			res, err := spineless.RunFCT(fs, c, kind, cfg)
			if err != nil {
				tb.Fatal(err)
			}
			if res.Stats.Count == 0 {
				tb.Fatal("no flows measured")
			}
		}
	}
}

func benchFig4(b *testing.B, kind spineless.TMKind) { benchLoop(b, fig4Run(b, kind)) }

func BenchmarkFig4_A2A(b *testing.B)         { benchFig4(b, spineless.TMA2A) }
func BenchmarkFig4_R2R(b *testing.B)         { benchFig4(b, spineless.TMR2R) }
func BenchmarkFig4_CSSkewed(b *testing.B)    { benchFig4(b, spineless.TMCSSkewed) }
func BenchmarkFig4_FBSkewed(b *testing.B)    { benchFig4(b, spineless.TMFBSkewed) }
func BenchmarkFig4_FBUniform(b *testing.B)   { benchFig4(b, spineless.TMFBUniform) }
func BenchmarkFig4_FBSkewedRP(b *testing.B)  { benchFig4(b, spineless.TMFBSkewedRP) }
func BenchmarkFig4_FBUniformRP(b *testing.B) { benchFig4(b, spineless.TMFBUniformRP) }

// TestFig4A2AAllocs pins BenchmarkFig4_A2A: 125 allocs and 0.27 MB when
// set (netsim routes each flow into its path arena through AppendPath, so
// the count no longer grows with the flow count; its event lanes, flow
// table and arena come back from a pool, so a cell allocates little past
// its link table; and SummarizeFCT sorts each cell's FCTs once, in one
// exact-size slice).
func TestFig4A2AAllocs(t *testing.T) {
	allocPin(t, 3, 138, 299_000, fig4Run(t, spineless.TMA2A))
}

// fig5Run returns one heatmap panel's fill. workers < 0 keeps the config
// default (one worker per CPU).
func fig5Run(tb testing.TB, scheme string, large bool, workers int) func() {
	fs := benchFabrics(tb, 1)
	dr, err := spineless.NewCombo("DRing", fs.DRing, scheme)
	if err != nil {
		tb.Fatal(err)
	}
	ls, err := spineless.NewCombo("leaf-spine", fs.LeafSpine, "ecmp")
	if err != nil {
		tb.Fatal(err)
	}
	hosts := fs.DRing.Servers()
	ticks := []int{1, 2, hosts / 8, hosts / 5}
	if large {
		ticks = []int{hosts / 8, hosts / 4, hosts / 3, hosts / 2}
	}
	cfg := spineless.DefaultThroughputConfig()
	if workers >= 0 {
		cfg.Workers = workers
	}
	return func() {
		if _, err := spineless.CSRatioHeatmap(dr, ls, ticks, ticks, cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchFig5(b *testing.B, scheme string, large bool, workers int) {
	benchLoop(b, fig5Run(b, scheme, large, workers))
}

func BenchmarkFig5_SmallECMP(b *testing.B) { benchFig5(b, "ecmp", false, -1) }
func BenchmarkFig5_SmallSU2(b *testing.B)  { benchFig5(b, "su2", false, -1) }
func BenchmarkFig5_LargeECMP(b *testing.B) { benchFig5(b, "ecmp", true, -1) }
func BenchmarkFig5_LargeSU2(b *testing.B)  { benchFig5(b, "su2", true, -1) }

// Serial vs parallel variants of the same panel: the outputs are
// bit-identical (see the equivalence tests in internal/core), so the pair
// isolates the wall-clock effect of the worker pool. On a single-core host
// the two are expected to tie.
func BenchmarkFig5_SmallSU2_Workers1(b *testing.B)   { benchFig5(b, "su2", false, 1) }
func BenchmarkFig5_SmallSU2_WorkersMax(b *testing.B) { benchFig5(b, "su2", false, 0) }

// TestFig5SmallSU2Allocs pins the three BenchmarkFig5_SmallSU2 variants,
// which differ only in worker count, at one worker: 436 allocs and 191 KB
// when set (flowsim routes every flow into one pooled path arena, and each
// traffic matrix is one backing array).
func TestFig5SmallSU2Allocs(t *testing.T) {
	allocPin(t, 3, 480, 210_100, fig5Run(t, "su2", false, 1))
}

// BenchmarkFig6 runs a two-point scale sweep (DRing vs matched RRG).
func BenchmarkFig6(b *testing.B) {
	cfg := spineless.DefaultScaleConfig()
	cfg.TorsPerSupernode = 3
	cfg.Ports = 20
	cfg.FCT = benchFCTConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := spineless.ScaleSweep([]int{5, 8}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 2 {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkUDF regenerates the §3.1 analysis (Table E4 in DESIGN.md).
func BenchmarkUDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := spineless.LeafSpine(spineless.LeafSpineSpec{X: 12, Y: 4})
		if err != nil {
			b.Fatal(err)
		}
		flat, err := spineless.Flatten(base, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		udf, err := spineless.UDF(base, flat)
		if err != nil {
			b.Fatal(err)
		}
		if udf < 1.8 || udf > 2.2 {
			b.Fatalf("UDF = %v", udf)
		}
	}
}

// BenchmarkTheorem1 converges the §4 BGP/VRF protocol and verifies both the
// theorem and the FIB equivalence (experiment E5).
func BenchmarkTheorem1(b *testing.B) {
	g, err := spineless.DRing(spineless.UniformDRing(6, 2, 24))
	if err != nil {
		b.Fatal(err)
	}
	fib, err := spineless.NewShortestUnion(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := spineless.BuildBGP(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		rib, _, err := net.Converge()
		if err != nil {
			b.Fatal(err)
		}
		if err := spineless.VerifyTheorem1(net, rib); err != nil {
			b.Fatal(err)
		}
		if err := spineless.CrossCheckBGPFib(net, rib, fib, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §3) ---

// BenchmarkAblation_ShortestUnionK sweeps K: more VRF layers admit longer
// paths (more diversity, longer detours). Reported per-op time includes FIB
// construction and the FCT run on the rack-to-rack workload where K matters
// most.
func benchAblationK(b *testing.B, scheme string) {
	fs := benchFabrics(b, 1)
	cfg := benchFCTConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combo, err := spineless.NewCombo(scheme, fs.DRing, scheme)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spineless.RunFCT(fs, combo, spineless.TMR2R, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_K_ECMP(b *testing.B) { benchAblationK(b, "ecmp") }
func BenchmarkAblation_K_SU2(b *testing.B)  { benchAblationK(b, "su2") }
func BenchmarkAblation_K_SU3(b *testing.B)  { benchAblationK(b, "su3") }
func BenchmarkAblation_K_SU4(b *testing.B)  { benchAblationK(b, "su4") }

// BenchmarkAblation_PathPinning compares per-hop hashing (SU2) against
// per-flow pinning over k shortest paths (the Jellyfish baseline).
func BenchmarkAblation_PathPinning_KSP4(b *testing.B) { benchAblationK(b, "ksp4") }
func BenchmarkAblation_PathPinning_VLB(b *testing.B)  { benchAblationK(b, "vlb") }

// BenchmarkAblation_WeightedHashing: uniform vs path-count-weighted (WCMP)
// per-hop selection on the uneven DRing.
func BenchmarkAblation_Weighted_SU2(b *testing.B)  { benchAblationK(b, "wsu2") }
func BenchmarkAblation_Weighted_ECMP(b *testing.B) { benchAblationK(b, "wcmp") }

// BenchmarkAblation_Flowlets: flowlet switching [25] gives plain ECMP
// dynamic path diversity (the Kassing et al. mechanism §2 says is not
// commonly available) — compare against static per-flow hashing on the
// rack-to-rack workload.
func benchFlowlets(b *testing.B, flowlets bool) {
	fs := benchFabrics(b, 1)
	combo, err := spineless.NewCombo("dr", fs.DRing, "ecmp")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchFCTConfig()
	if flowlets {
		cfg.Net.FlowletTimeout = 100 * time.Microsecond
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spineless.RunFCT(fs, combo, spineless.TMR2R, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Flowlets_Off(b *testing.B) { benchFlowlets(b, false) }
func BenchmarkAblation_Flowlets_On(b *testing.B)  { benchFlowlets(b, true) }

// BenchmarkAblation_QueueDepth measures tail sensitivity to drop-tail
// queue capacity.
func benchQueue(b *testing.B, pkts int) {
	fs := benchFabrics(b, 1)
	combo, err := spineless.NewCombo("dr", fs.DRing, "su2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchFCTConfig()
	cfg.Net.QueueBytes = int64(pkts) * 1500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spineless.RunFCT(fs, combo, spineless.TMA2A, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Queue25pkts(b *testing.B)  { benchQueue(b, 25) }
func BenchmarkAblation_Queue100pkts(b *testing.B) { benchQueue(b, 100) }
func BenchmarkAblation_Queue400pkts(b *testing.B) { benchQueue(b, 400) }

// BenchmarkAblation_SupernodeWidth varies n (ToRs per supernode) at fixed
// total ToR count: wider supernodes mean more disjoint paths (§4 promises
// n+1) but fewer server ports.
func benchWidth(b *testing.B, m, n int) {
	g, err := spineless.DRing(spineless.UniformDRing(m, n, 40))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fib, err := spineless.NewShortestUnion(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		_ = fib.PathSet(0, n, 0)
	}
}

func BenchmarkAblation_Width_m12n2(b *testing.B) { benchWidth(b, 12, 2) }
func BenchmarkAblation_Width_m8n3(b *testing.B)  { benchWidth(b, 8, 3) }
func BenchmarkAblation_Width_m6n4(b *testing.B)  { benchWidth(b, 6, 4) }

// BenchmarkAblation_Transport compares plain TCP against DCTCP-style ECN on
// the skewed workload — a transport the paper's §2 classifies as
// non-standard for these DCs, included to quantify what deployability costs.
func benchTransport(b *testing.B, dctcp bool) {
	fs := benchFabrics(b, 1)
	combo, err := spineless.NewCombo("dr", fs.DRing, "su2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchFCTConfig()
	if dctcp {
		cfg.Net = cfg.Net.WithDCTCP()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spineless.RunFCT(fs, combo, spineless.TMFBSkewed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Transport_TCP(b *testing.B)   { benchTransport(b, false) }
func BenchmarkAblation_Transport_DCTCP(b *testing.B) { benchTransport(b, true) }

// --- Substrate microbenchmarks ---

// netsimRun returns one simulator run of 200 flows on a small DRing under
// ECMP, with a telemetry sink attached if telemetry is set.
func netsimRun(tb testing.TB, telemetry bool) func() {
	g, err := spineless.DRing(spineless.UniformDRing(6, 2, 24))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	gen := spineless.GenFlowConfig(200, 4*time.Millisecond)
	gen.Sizes = spineless.ParetoSizes(30e3, 1.05, 300e3)
	flows, err := spineless.GenerateFlows(g, spineless.UniformTM(len(g.Racks())), gen, rng)
	if err != nil {
		tb.Fatal(err)
	}
	scheme := spineless.NewECMP(g)
	return func() {
		sim, err := spineless.NewSimulator(g, scheme, spineless.DefaultNetConfig())
		if err != nil {
			tb.Fatal(err)
		}
		if !telemetry {
			if _, err := sim.Run(flows); err != nil {
				tb.Fatal(err)
			}
			return
		}
		rec := spineless.NewTelemetryRecorder(spineless.TelemetryConfig{})
		if _, err := rec.Attach(sim, len(flows)); err != nil {
			tb.Fatal(err)
		}
		if _, err := sim.Run(flows); err != nil {
			tb.Fatal(err)
		}
		if rec.Snapshot().Totals.TxBytes == 0 {
			tb.Fatal("telemetry sink observed no traffic")
		}
	}
}

// BenchmarkNetsimEvents measures raw simulator throughput (events/op noted
// via ns/op on a fixed workload).
func BenchmarkNetsimEvents(b *testing.B) { benchLoop(b, netsimRun(b, false)) }

// BenchmarkNetsimEventsTelemetry is BenchmarkNetsimEvents with a telemetry
// sink attached: the delta against the plain benchmark is the per-event
// cost of the digital twin (the six hooks index preallocated ring series
// under an uncontended mutex — the alloc delta per iteration is exactly the
// fixed attach-time sink construction, nothing per event).
func BenchmarkNetsimEventsTelemetry(b *testing.B) { benchLoop(b, netsimRun(b, true)) }

// TestNetsimEventsTelemetryAllocs pins BenchmarkNetsimEventsTelemetry
// absolutely: 994 allocs and 4.38 MB when set. TestTelemetryAddsNoAllocs
// pins the per-event delta against the bare run.
func TestNetsimEventsTelemetryAllocs(t *testing.T) {
	allocPin(t, 3, 1_093, 4_820_000, netsimRun(t, true))
}

// BenchmarkFibConstruction measures Shortest-Union(2) FIB build cost at
// paper scale (80 switches, ~1k links).
func BenchmarkFibConstruction(b *testing.B) {
	fs, err := spineless.PaperFabrics(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spineless.NewShortestUnion(fs.DRing, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowsimMaxMin measures the max-min allocator alone on the largest
// Figure 5 cell shape: paper-scale DRing under Shortest-Union(2) with
// C = S = hosts/3. The C-S instance and every path are built outside the
// timer, the way fig5-flow's probe replays a cell.
func BenchmarkFlowsimMaxMin(b *testing.B) {
	fs, err := spineless.PaperFabrics(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	g := fs.DRing
	fib, err := spineless.NewShortestUnion(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := spineless.DefaultThroughputConfig()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := g.Servers() / 3
	cs, err := workload.CSModel(g, n, n, rng)
	if err != nil {
		b.Fatal(err)
	}
	pairs := workload.CSPairs(cs, cfg.FlowsPerHost*n, rng)
	flows := make([]flowsim.PathFlow, len(pairs))
	for i, p := range pairs {
		flows[i] = flowsim.PathFlow{Src: p[0], Dst: p[1], Path: fib.Path(g.RackOf(p[0]), g.RackOf(p[1]), uint64(i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowsim.MaxMin(g, flows, cfg.Link); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(flows))*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkPaperFabrics measures full-scale §5.1 trio construction.
func BenchmarkPaperFabrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := spineless.PaperFabrics(rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroburst runs the §3 microburst drain on the flat rewiring.
func BenchmarkMicroburst(b *testing.B) {
	fs := benchFabrics(b, 1)
	combo, err := spineless.NewCombo("rrg", fs.RRG, "su2")
	if err != nil {
		b.Fatal(err)
	}
	spec := spineless.DefaultBurst()
	spec.BurstBytes = 8 << 20
	spec.Fanout = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spineless.RunBurst(combo, spec, spineless.DefaultNetConfig(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Incomplete != 0 {
			b.Fatal("burst incomplete")
		}
	}
}

// BenchmarkIdealThroughput measures the fluid FPTAS on a paper-sized DRing
// with a uniform matrix (the §2 ideal-routing reference computation).
func BenchmarkIdealThroughput(b *testing.B) {
	g, err := spineless.DRing(spineless.UniformDRing(8, 2, 24))
	if err != nil {
		b.Fatal(err)
	}
	m := spineless.UniformTM(len(g.Racks()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spineless.IdealThroughput(g, m, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailureStudy runs the §7 failure sweep (structure + BGP
// reconvergence + FCT replay) on a small DRing.
func BenchmarkFailureStudy(b *testing.B) {
	g, err := spineless.DRing(spineless.UniformDRing(6, 2, 20))
	if err != nil {
		b.Fatal(err)
	}
	cfg := spineless.DefaultFailureStudyConfig()
	cfg.Fractions = []float64{0.05}
	cfg.Flows = 80
	cfg.Samples = 24
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spineless.FailureStudy(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicSchedules compares slot-averaged throughput evaluation of
// the two §7 dynamic contenders.
func benchDynamic(b *testing.B, rotor bool) {
	spec := spineless.UniformDRing(8, 2, 24)
	var sched spineless.DynamicSchedule
	var err error
	if rotor {
		sched, err = spineless.NewRotorMatchings(16, 8, 16, 24, 3)
	} else {
		sched, err = spineless.NewRotatingDRing(spec, 3)
	}
	if err != nil {
		b.Fatal(err)
	}
	g := sched.Slot(0)
	rng := rand.New(rand.NewSource(2))
	var pairs [][2]int
	for len(pairs) < 48 {
		x, y := rng.Intn(g.Servers()), rng.Intn(g.Servers())
		if g.RackOf(x) != g.RackOf(y) {
			pairs = append(pairs, [2]int{x, y})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spineless.DynamicAvgThroughput(sched, pairs, "su2", spineless.DefaultFlowConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamic_RotatingDRing(b *testing.B)  { benchDynamic(b, false) }
func BenchmarkDynamic_RotorMatchings(b *testing.B) { benchDynamic(b, true) }

// BenchmarkBGPConvergePaperScale converges the full §5.1 DRing control
// plane (80 routers × 2 VRFs, ~8.5k sessions).
func BenchmarkBGPConvergePaperScale(b *testing.B) {
	fs, err := spineless.PaperFabrics(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	net, err := spineless.BuildBGP(fs.DRing, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.Converge(); err != nil {
			b.Fatal(err)
		}
	}
}

// reconvergeRun returns the paper-scale control plane's reconvergence after
// a single link failure, seeded from the pre-failure RIB with only the
// failure-incident routers dirty.
func reconvergeRun(tb testing.TB) func() {
	fs, err := spineless.PaperFabrics(rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	net, err := spineless.BuildBGP(fs.DRing, 2)
	if err != nil {
		tb.Fatal(err)
	}
	baseRib, _, err := net.Converge()
	if err != nil {
		tb.Fatal(err)
	}
	failed := fs.DRing.Clone()
	nbr := fs.DRing.Neighbors(0)[0]
	for failed.RemoveLink(0, nbr) {
		// drop every parallel copy of the trunk, as a real failure would
	}
	failedNet, err := spineless.BuildBGP(failed, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, _, err := failedNet.ConvergeDirty(baseRib, []int{0, nbr}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkBGPReconvergeDelta reconverges the same paper-scale control
// plane after a single link failure. The ratio against
// BenchmarkBGPConvergePaperScale is the incremental-convergence win.
func BenchmarkBGPReconvergeDelta(b *testing.B) { benchLoop(b, reconvergeRun(b)) }

// TestBGPReconvergeDeltaAllocs pins BenchmarkBGPReconvergeDelta at one
// worker: 21 allocs and 713 KB when set (the benchmark's 35 on two CPUs
// include the fan-out's goroutines and per-P pools). The bound leaves three
// allocations, not two, for the RIB map's layout to differ between Go
// releases. TestConvergeAllocs pins the cold convergence.
func TestBGPReconvergeDeltaAllocs(t *testing.T) {
	allocPin(t, 3, 24, 784_000, reconvergeRun(t))
}

// bakeoffRun returns the full five-fabric bake-off matrix (7 cells: every
// fabric under SU(2) plus the two native schemes) at paper scale with the
// smoke-sized workload, on workers cell workers (0 = one per CPU).
func bakeoffRun(tb testing.TB, workers int) func() {
	cfg := spineless.BakeoffScaled(1)
	cfg.Util = 0.2
	cfg.WindowSec = 0.002
	cfg.MaxFlows = 200
	cfg.MaxPairs = 64
	cfg.LiveFlows = 120
	cfg.Workers = workers
	return func() {
		sc, err := spineless.RunBakeoff(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if len(sc.Cells) != 7 {
			tb.Fatalf("want 7 cells, got %d", len(sc.Cells))
		}
	}
}

// BenchmarkBakeoff is the cost of regenerating the cmd/bakeoff scorecard.
func BenchmarkBakeoff(b *testing.B) {
	b.ReportAllocs()
	benchLoop(b, bakeoffRun(b, 0))
}

// TestBakeoffAllocs pins BenchmarkBakeoff at one cell worker: 24.1k–24.6k
// allocs (the count moves from run to run, as collections empty the
// scratch pools) and 81.9 MB when set. The allocation bound is 5% over the
// highest count, not 10%: one extra allocation per simulated flow adds
// about 9%. Nearly all of them are slices (FIB columns, BFS, links), whose
// count does not move between Go releases.
func TestBakeoffAllocs(t *testing.T) {
	allocPin(t, 1, 25_900, 90_000_000, bakeoffRun(t, 1))
}

// BenchmarkStoreGet is one spinelessd cache hit's store lookup: a repeat
// Get of a committed ~2 KB result, which the store serves from its
// verified in-memory copy after the first read.
func BenchmarkStoreGet(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec := map[string]any{"exp": "fct", "seed": int64(1)}
	hash, err := store.Key(spec)
	if err != nil {
		b.Fatal(err)
	}
	specRaw, err := store.Canonical(spec)
	if err != nil {
		b.Fatal(err)
	}
	fct := make([]float64, 200)
	for i := range fct {
		fct[i] = float64(i) * 1.25
	}
	result, err := json.Marshal(map[string]any{"fct_us": fct})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put(hash, specRaw, result); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(hash); !ok {
			b.Fatal("miss")
		}
	}
}
