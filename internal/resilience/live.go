package resilience

import (
	"fmt"
	"math/rand"

	"spineless/internal/bgp"
	"spineless/internal/core"
	"spineless/internal/faults"
	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/parallel"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// LiveConfig parameterizes one live fault-injection run: links fail while
// the packet simulation is in flight, the stale Shortest-Union FIB serves
// (and blackholes) traffic until detection plus BGP reconvergence
// completes, then the repaired FIB takes over and live flows re-path.
type LiveConfig struct {
	// K is the Shortest-Union K used for routing and BGP (>= 2).
	K int
	// Fraction is the fraction of distinct switch pairs whose trunks fail
	// (every parallel copy of a drawn pair is cut, modeling a cable-bundle
	// failure).
	Fraction float64
	// FailAtNS is the absolute sim time of the failure.
	FailAtNS int64
	// DetectionDelayNS models session-timeout detection before
	// reconvergence starts.
	DetectionDelayNS int64
	// RoundDelayNS is the wall time ascribed to one synchronous BGP round;
	// the repair lands at FailAt + Detection + rounds × RoundDelay, with
	// rounds measured by bgp.ConvergeDirty from the pre-failure RIB.
	RoundDelayNS int64

	// FlapLinks makes the first n failed pairs flap (down/up cycles)
	// instead of staying down: FlapCycles outages of FlapDownNS separated
	// by FlapUpNS of service.
	FlapLinks  int
	FlapDownNS int64
	FlapUpNS   int64
	FlapCycles int

	// GrayLinks turns n surviving pairs gray at FailAtNS: per-packet loss
	// GrayLoss and rate scaled by GrayRateFactor, never detected and never
	// routed around.
	GrayLinks      int
	GrayLoss       float64
	GrayRateFactor float64

	// Flows and WindowNS shape the uniform workload: WindowNS should
	// extend well past the repair so the After bucket is populated.
	Flows    int
	WindowNS int64

	// PreserveConnectivity redraws cut sets that would partition racks.
	PreserveConnectivity bool

	// Net configures the packet simulator.
	Net netsim.Config
	// Seed drives failure selection, the workload and gray-loss draws.
	Seed int64
	// Workers bounds fraction-level parallelism in LiveSweep (0 = one per
	// CPU). Fractions are fully independent runs, so the sweep is
	// bit-identical at any worker count.
	Workers int
	// Observers selects how the packet simulation is watched; with
	// telemetry the outage is observable as time series (blackhole drop
	// rate, link utilization) alongside the end-of-run transient summary.
	core.Observers
}

// DefaultLiveConfig fails 5% of trunks 2 ms into a 20 ms run, with 1 ms
// detection and 0.5 ms per reconvergence round.
func DefaultLiveConfig() LiveConfig {
	return LiveConfig{
		K:                2,
		Fraction:         0.05,
		FailAtNS:         2e6,
		DetectionDelayNS: 1e6,
		RoundDelayNS:     5e5,
		FlapDownNS:       1e6,
		FlapUpNS:         1e6,
		FlapCycles:       3,
		GrayLoss:         0.05,
		GrayRateFactor:   1,
		Flows:            400,
		WindowNS:         20e6,
		Net:              netsim.DefaultConfig(),
		Seed:             1,
	}
}

// LiveResult is the measured transient of one live run.
type LiveResult struct {
	Fraction    float64
	FailedPairs int // distinct switch pairs cut (incl. flapping ones)
	FailedLinks int // physical links those pairs carried
	Flapping    int
	Gray        int

	// ReconvRounds and RepairNS are the control-plane side: BGP rounds to
	// re-settle from the pre-failure RIB and the resulting repair time.
	ReconvRounds int
	RepairNS     int64

	// MeasuredBlackholeNS spans first to last packet lost into a down
	// link — the data-plane's own measurement of the outage window.
	MeasuredBlackholeNS int64

	Blackholed   uint64
	GrayDrops    uint64
	Reroutes     uint64
	Timeouts     uint64
	FlowsWithRTO int
	Completed    int
	Incomplete   int

	Transient metrics.TransientReport
}

// RunLive executes one live fault-injection experiment on fabric g.
func RunLive(g *topology.Graph, cfg LiveConfig) (LiveResult, error) {
	if cfg.K < 2 {
		return LiveResult{}, fmt.Errorf("resilience: K must be >= 2")
	}
	if cfg.Flows <= 0 || cfg.WindowNS <= 0 {
		return LiveResult{}, fmt.Errorf("resilience: live run needs flows and a positive window")
	}
	if cfg.FailAtNS < 0 || cfg.DetectionDelayNS < 0 || cfg.RoundDelayNS < 0 {
		return LiveResult{}, fmt.Errorf("resilience: negative fault timing")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	baseFib, err := routing.NewShortestUnion(g, cfg.K)
	if err != nil {
		return LiveResult{}, err
	}
	baseNet, err := bgp.Build(g, cfg.K)
	if err != nil {
		return LiveResult{}, err
	}
	baseRib, _, err := baseNet.Converge()
	if err != nil {
		return LiveResult{}, err
	}

	failedG, pairs, removed, err := failRandomPairs(g, cfg.Fraction, rng, cfg.PreserveConnectivity)
	if err != nil {
		return LiveResult{}, err
	}
	res := LiveResult{Fraction: cfg.Fraction, FailedPairs: len(pairs), FailedLinks: removed}

	// The failed fabric differs from g only at the drawn pairs, so both the
	// FIB and the BGP reconvergence go through the incremental paths: Rebase
	// shares every unaffected per-destination column, and ConvergeDirty
	// seeds the dirty set with just the failure-incident routers. Both are
	// bit-identical (state and round counts) to the from-scratch versions.
	failedFib, err := baseFib.Rebase(failedG)
	if err != nil {
		return LiveResult{}, err
	}
	failedNet, err := bgp.Build(failedG, cfg.K)
	if err != nil {
		return LiveResult{}, err
	}
	dirty := make([]int, 0, 2*len(pairs))
	for _, p := range pairs {
		dirty = append(dirty, p.A, p.B)
	}
	rib, rounds, err := failedNet.ConvergeDirty(baseRib, dirty)
	if err != nil {
		return LiveResult{}, err
	}
	if failedG.Connected() {
		if err := bgp.VerifyTheorem1(failedNet, rib); err != nil {
			return LiveResult{}, fmt.Errorf("resilience: post-failure routing broken: %w", err)
		}
	}
	res.ReconvRounds = rounds
	res.RepairNS = cfg.FailAtNS + cfg.DetectionDelayNS + int64(rounds)*cfg.RoundDelayNS

	tv, err := routing.NewTimeVarying(
		routing.Phase{StartNS: 0, Scheme: baseFib},
		routing.Phase{StartNS: res.RepairNS, Scheme: failedFib},
	)
	if err != nil {
		return LiveResult{}, err
	}

	sched := &faults.Schedule{Seed: cfg.Seed}
	flapping := min(cfg.FlapLinks, len(pairs))
	res.Flapping = flapping
	for i, p := range pairs {
		if i < flapping && cfg.FlapCycles > 0 {
			sched.Flap(p.A, p.B, cfg.FailAtNS, cfg.FlapDownNS, cfg.FlapUpNS, cfg.FlapCycles)
		} else {
			sched.Cut(cfg.FailAtNS, p.A, p.B)
		}
	}
	grays := pickGrayPairs(failedG, cfg.GrayLinks, rng)
	res.Gray = len(grays)
	for _, p := range grays {
		sched.Gray(cfg.FailAtNS, p.A, p.B, cfg.GrayLoss, cfg.GrayRateFactor)
	}

	flows, err := workload.GenerateFlows(g, workload.Uniform(len(g.Racks())), workload.GenConfig{
		Flows:    cfg.Flows,
		Sizes:    workload.Pareto{MeanBytes: 30e3, Alpha: 1.05, Cap: 300e3},
		WindowNS: cfg.WindowNS,
	}, rng)
	if err != nil {
		return LiveResult{}, err
	}

	sim, err := netsim.New(g, tv, cfg.Net)
	if err != nil {
		return LiveResult{}, err
	}
	if err := sim.InstallFaults(sched); err != nil {
		return LiveResult{}, err
	}
	out, err := cfg.Observers.Run(sim, flows, nil)
	if err != nil {
		return LiveResult{}, fmt.Errorf("resilience: live run at fraction %.3f: %w", cfg.Fraction, err)
	}

	res.Blackholed = out.Stats.Blackholed
	res.GrayDrops = out.Stats.GrayDrops
	res.Reroutes = out.Stats.Reroutes
	res.Timeouts = out.Stats.Timeouts
	res.FlowsWithRTO = out.FlowsWithRTO
	res.Completed = out.Completed
	res.Incomplete = len(flows) - out.Completed
	if out.BlackholeFirstNS >= 0 {
		res.MeasuredBlackholeNS = out.BlackholeLastNS - out.BlackholeFirstNS
	}
	starts := make([]int64, len(flows))
	for i, f := range flows {
		starts[i] = f.StartNS
	}
	res.Transient = metrics.SummarizeTransient(starts, out.FCTNS, cfg.FailAtNS, res.RepairNS)
	return res, nil
}

// LiveSweep runs RunLive at each failure fraction, isolating trials with
// core.Trial so one pathological draw (e.g. a partitioned fabric) marks
// that fraction failed and the sweep continues. The returned error, if
// non-nil, is a core.TrialErrors listing the failed fractions; rows for
// successful fractions are always returned.
func LiveSweep(g *topology.Graph, cfg LiveConfig, fractions []float64) ([]LiveResult, error) {
	// Each fraction is a self-contained RunLive (own rng, own FIBs); slots
	// are filled by index and compacted afterwards, preserving the serial
	// semantics exactly: failed fractions contribute a TrialError and no
	// row, and both lists keep fraction order at any worker count.
	results := make([]LiveResult, len(fractions))
	errs := make([]error, len(fractions))
	_ = parallel.ForEach(cfg.Workers, len(fractions), func(i int) error {
		c := cfg
		c.Fraction = fractions[i]
		errs[i] = core.Trial(fmt.Sprintf("fraction %.3f", fractions[i]), func() error {
			var e error
			results[i], e = RunLive(g, c)
			return e
		})
		return nil
	})
	var rows []LiveResult
	var terrs core.TrialErrors
	for i, err := range errs {
		if err != nil {
			terrs = append(terrs, err.(core.TrialError))
			continue
		}
		rows = append(rows, results[i])
	}
	if len(terrs) > 0 {
		return rows, terrs
	}
	return rows, nil
}

// failRandomPairs cuts a fraction of the distinct linked switch pairs,
// removing every parallel copy of each drawn pair (a trunk failure). When
// preserve is set, draws that disconnect any rack pair are rejected and
// redrawn, deterministically consuming the rng.
func failRandomPairs(g *topology.Graph, fraction float64, rng *rand.Rand, preserve bool) (*topology.Graph, []Failure, int, error) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	pairs := distinctPairs(g)
	k := int(float64(len(pairs))*fraction + 0.5)
	if k > len(pairs) {
		k = len(pairs)
	}
	attempts := 1
	if preserve {
		attempts = 100
	}
	for try := 0; try < attempts; try++ {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		out := g.Clone()
		out.Name = fmt.Sprintf("%s-live-f%.3f", g.Name, fraction)
		removed := 0
		for _, p := range pairs[:k] {
			for out.RemoveLink(p.A, p.B) {
				removed++
			}
		}
		if preserve && !racksConnected(out) {
			continue
		}
		return out, append([]Failure(nil), pairs[:k]...), removed, nil
	}
	return nil, nil, 0, fmt.Errorf("resilience: no connectivity-preserving cut of %d pairs found", k)
}

// pickGrayPairs selects n distinct surviving linked pairs to turn gray.
func pickGrayPairs(g *topology.Graph, n int, rng *rand.Rand) []Failure {
	if n <= 0 {
		return nil
	}
	pairs := distinctPairs(g)
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if n > len(pairs) {
		n = len(pairs)
	}
	return pairs[:n]
}

func distinctPairs(g *topology.Graph) []Failure {
	var out []Failure
	seen := make(map[[2]int]bool)
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < w && !seen[[2]int{v, w}] {
				seen[[2]int{v, w}] = true
				out = append(out, Failure{A: v, B: w})
			}
		}
	}
	return out
}

// LiveTable renders a live sweep.
func LiveTable(rows []LiveResult) string {
	var t metrics.Table
	t.AddRow("fail%", "pairs", "links", "reconv", "repair ms", "blackhole ms", "blackholed",
		"gray drops", "rto flows", "rerouted", "p99 during ms", "p99 after ms", "inflation", "incomplete")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.1f%%", r.Fraction*100),
			fmt.Sprintf("%d", r.FailedPairs),
			fmt.Sprintf("%d", r.FailedLinks),
			fmt.Sprintf("%d", r.ReconvRounds),
			fmt.Sprintf("%.2f", float64(r.RepairNS)/1e6),
			fmt.Sprintf("%.2f", float64(r.MeasuredBlackholeNS)/1e6),
			fmt.Sprintf("%d", r.Blackholed),
			fmt.Sprintf("%d", r.GrayDrops),
			fmt.Sprintf("%d", r.FlowsWithRTO),
			fmt.Sprintf("%d", r.Reroutes),
			fmt.Sprintf("%.3f", r.Transient.During.P99MS),
			fmt.Sprintf("%.3f", r.Transient.After.P99MS),
			fmt.Sprintf("%.2f×", r.Transient.InflationP99),
			fmt.Sprintf("%d", r.Incomplete),
		)
	}
	return t.String()
}
