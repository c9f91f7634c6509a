package resilience

import (
	"fmt"
	"math/rand"

	"spineless/internal/bgp"
	"spineless/internal/core"
	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/parallel"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// StudyConfig parameterizes a failure sweep on one fabric.
type StudyConfig struct {
	// Fractions are the link-failure rates to sweep (e.g. 0.01, 0.05, 0.10).
	Fractions []float64
	// K is the Shortest-Union K used for routing and BGP (≥2).
	K int
	// Flows is the uniform-workload flow count for the FCT measurement
	// (0 skips the packet simulation).
	Flows int
	// Samples is the rack-pair sample count for diversity measurement.
	Samples int
	// Net configures the packet simulator.
	Net netsim.Config
	// Seed drives failure selection and workloads.
	Seed int64
	// Workers bounds fraction-level parallelism (0 = one per CPU). Every
	// fraction reseeds independently from Seed and shares only immutable
	// base state, so the sweep is bit-identical at any worker count.
	Workers int
	// Observers selects how each fraction's FCT replay is watched; an audit
	// violation fails that fraction's trial.
	core.Observers
}

// DefaultStudyConfig sweeps 1%, 5% and 10% link failures under SU(2).
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{
		Fractions: []float64{0.01, 0.05, 0.10},
		K:         2,
		Flows:     200,
		Samples:   64,
		Net:       netsim.DefaultConfig(),
		Seed:      1,
	}
}

// StudyRow is the outcome at one failure fraction.
type StudyRow struct {
	Fraction     float64
	FailedLinks  int
	Connected    bool
	Paths        PathReport
	Diversity    DiversityReport
	ReconvRounds int // BGP rounds to reconverge from the pre-failure RIB
	P99FCTms     float64
	MedianFCTms  float64
	Incomplete   int
	// Err marks a trial that failed (panic or error) while the rest of the
	// sweep continued; its metric fields are zero.
	Err error
}

// Study sweeps failure fractions on fabric g: for each fraction it fails
// links, measures path dilation and multipath degradation, reconverges the
// §4 BGP control plane from the pre-failure RIB (counting rounds), and —
// when cfg.Flows > 0 — replays a uniform workload through the packet
// simulator on the degraded fabric.
func Study(g *topology.Graph, cfg StudyConfig) ([]StudyRow, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("resilience: K must be >= 2")
	}
	baseFib, err := routing.NewShortestUnion(g, cfg.K)
	if err != nil {
		return nil, err
	}
	baseNet, err := bgp.Build(g, cfg.K)
	if err != nil {
		return nil, err
	}
	baseRib, _, err := baseNet.Converge()
	if err != nil {
		return nil, err
	}

	// Fractions are independent trials: each reseeds from cfg.Seed and
	// reads only the immutable baseFib/baseRib (ConvergeDirty never writes
	// through prev's slices). Each writes its own row slot and error
	// slot, so rows and the TrialErrors order match the serial sweep at
	// any worker count.
	rows := make([]StudyRow, len(cfg.Fractions))
	errs := make([]error, len(cfg.Fractions))
	_ = parallel.ForEach(cfg.Workers, len(cfg.Fractions), func(i int) error {
		f := cfg.Fractions[i]
		rows[i] = StudyRow{Fraction: f}
		err := core.Trial(fmt.Sprintf("fraction %.3f", f), func() error {
			return studyFraction(g, cfg, f, baseFib, baseRib, &rows[i])
		})
		if err != nil {
			// Graceful degradation: the trial failed alone; the sweep
			// continues on the remaining fractions.
			rows[i].Err = err
			errs[i] = err
		}
		return nil
	})
	var terrs core.TrialErrors
	for _, err := range errs {
		if err != nil {
			terrs = append(terrs, err.(core.TrialError))
		}
	}
	if len(terrs) > 0 {
		return rows, terrs
	}
	return rows, nil
}

// studyFraction measures one failure fraction into row. It runs inside
// core.Trial, so panics in the substrates mark the trial failed instead of
// aborting the sweep.
func studyFraction(g *topology.Graph, cfg StudyConfig, f float64, baseFib *routing.Fib, baseRib bgp.Rib, row *StudyRow) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	failed, failures, err := FailRandomLinks(g, f, rng)
	if err != nil {
		return err
	}
	row.FailedLinks = len(failures)
	row.Connected = failed.Connected()

	row.Paths, err = ComparePaths(g, failed)
	if err != nil {
		return err
	}
	if !row.Connected {
		// Partitioned fabric: routing state is still well-defined per
		// component, but the FCT replay would block forever; report the
		// structural metrics only.
		return nil
	}

	// Incremental recomputation against the immutable base state: Rebase
	// shares the unaffected FIB columns, ConvergeDirty reconverges from the
	// failure-incident routers only. Both are bit-identical to full builds.
	failedFib, err := baseFib.Rebase(failed)
	if err != nil {
		return err
	}
	row.Diversity = CompareDiversity(g, failed, baseFib, failedFib, cfg.Samples, 0, rng)

	failedNet, err := bgp.Build(failed, cfg.K)
	if err != nil {
		return err
	}
	dirty := make([]int, 0, 2*len(failures))
	for _, fl := range failures {
		dirty = append(dirty, fl.A, fl.B)
	}
	rib, rounds, err := failedNet.ConvergeDirty(baseRib, dirty)
	if err != nil {
		return err
	}
	row.ReconvRounds = rounds
	if err := bgp.VerifyTheorem1(failedNet, rib); err != nil {
		return fmt.Errorf("resilience: post-failure routing broken: %w", err)
	}

	if cfg.Flows > 0 {
		st, err := replayUniform(failed, failedFib, cfg, rng)
		if err != nil {
			return err
		}
		row.P99FCTms = st.P99MS
		row.MedianFCTms = st.MedianMS
		row.Incomplete = st.Incomplete
	}
	return nil
}

func replayUniform(g *topology.Graph, scheme routing.Scheme, cfg StudyConfig, rng *rand.Rand) (metrics.FCTStats, error) {
	flows, err := workload.GenerateFlows(g, workload.Uniform(len(g.Racks())), workload.GenConfig{
		Flows:    cfg.Flows,
		Sizes:    workload.Pareto{MeanBytes: 30e3, Alpha: 1.05, Cap: 300e3},
		WindowNS: 4e6,
	}, rng)
	if err != nil {
		return metrics.FCTStats{}, err
	}
	sim, err := netsim.New(g, scheme, cfg.Net)
	if err != nil {
		return metrics.FCTStats{}, err
	}
	res, err := cfg.Observers.Run(sim, flows, nil)
	if err != nil {
		return metrics.FCTStats{}, err
	}
	return metrics.SummarizeFCT(res.FCTNS), nil
}

// Table renders a failure study. Failed trials render as a single-cell
// error row so partial sweeps stay legible.
func Table(rows []StudyRow) string {
	var t metrics.Table
	t.AddRow("fail%", "links", "connected", "dilation(mean)", "dilation(max)",
		"paths before", "paths after", "min paths", "reconv rounds", "p99 FCT ms")
	for _, r := range rows {
		if r.Err != nil {
			t.AddRow(fmt.Sprintf("%.1f%%", r.Fraction*100), "FAILED: "+r.Err.Error())
			continue
		}
		t.AddRow(
			fmt.Sprintf("%.1f%%", r.Fraction*100),
			fmt.Sprintf("%d", r.FailedLinks),
			fmt.Sprintf("%v", r.Connected),
			fmt.Sprintf("%.3f", r.Paths.MeanDilation),
			fmt.Sprintf("%.2f", r.Paths.MaxDilation),
			fmt.Sprintf("%.1f", r.Diversity.MeanPathsBefore),
			fmt.Sprintf("%.1f", r.Diversity.MeanPathsAfter),
			fmt.Sprintf("%d", r.Diversity.MinPathsAfter),
			fmt.Sprintf("%d", r.ReconvRounds),
			fmt.Sprintf("%.3f", r.P99FCTms),
		)
	}
	return t.String()
}
