package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/parallel"
	"spineless/internal/routing"
	"spineless/internal/workload"
)

// FCTConfig parameterizes a Figure 4-style flow-completion-time experiment.
type FCTConfig struct {
	// Util is the offered load as a fraction of the reference leaf-spine's
	// spine capacity (the paper uses 0.30, §6.1).
	Util float64
	// WindowSec is the arrival window over which flows start.
	WindowSec float64
	// Sizes is the flow-size distribution (§5.2's Pareto by default).
	Sizes workload.SizeDist
	// Net is the packet-level simulator configuration.
	Net netsim.Config
	// MaxFlows caps the generated flow count (0 = uncapped) so scaled-down
	// studies stay tractable.
	MaxFlows int
	// Seed drives all sampling.
	Seed int64
	// Trials repeats the experiment over independently seeded arrival
	// windows and pools the per-flow FCTs (0 or 1 = the classic single
	// window driven directly by Seed). Trial t derives its seed as
	// parallel.DeriveSeed(Seed, t), never by sharing a rand.Rand, so the
	// pooled result is bit-identical at any worker count.
	Trials int
	// Workers bounds trial-level parallelism (0 = one per CPU). A pure
	// throughput knob: it never affects results.
	Workers int
	// CapacityBps overrides the reference capacity the offered load is
	// scaled against. 0 derives it from the fabric set's leaf-spine spec
	// (the paper's spine-utilization rule).
	CapacityBps float64
	// KeepFlows retains the generated flow set and raw per-flow FCTs in the
	// result (for CSV export); off by default to keep results small.
	KeepFlows bool
	// Observers selects how every trial window's simulation is watched.
	Observers
	// Ctx, when non-nil, cancels the experiment between trials: no new
	// trial window starts after Ctx is done and RunFCT returns Ctx's error
	// (unless an earlier trial already failed — the lowest-index error
	// still wins). Trials already in flight run to completion, so a
	// cancelled experiment never returns a partial pool. Nil means never
	// cancel. Like Workers, Ctx never affects the results of a run that
	// completes.
	Ctx context.Context
	// OnTrial, when non-nil, is called after each trial completes with the
	// monotonically increasing number of finished trials and the total —
	// the progress feed consumed by the spinelessd job layer. It may be
	// called concurrently from trial workers (the done counter itself is
	// monotone); it must not block for long and must not mutate experiment
	// state. Single-window runs report (1, 1) on completion.
	OnTrial func(done, total int)
	// JobClasses, when non-empty, replaces the cfg.Sizes uniform-start
	// workload with the Poisson-arrival job-class mix
	// (workload.GenerateClassedFlows): per-class sizes and arrival shares,
	// per-class FCT attribution in FCTResult.Classes, and — with Telemetry
	// whose Config.Classes covers the mix — per-class goodput series.
	JobClasses []workload.Class
}

// DefaultFCTConfig mirrors §5/§6: 30% spine load, Pareto(100KB, 1.05)
// flows, 10 Gbps TCP fabric.
func DefaultFCTConfig() FCTConfig {
	return FCTConfig{
		Util:      0.30,
		WindowSec: 0.02,
		Sizes:     workload.PaperFlowSizes(),
		Net:       netsim.DefaultConfig(),
		Seed:      1,
	}
}

// FCTResult is one (combo, workload) cell of Figure 4. With
// FCTConfig.Trials > 1 it is the pool of all trials: Flows and SimStats sum,
// Stats summarizes the concatenated per-flow FCTs.
type FCTResult struct {
	Combo    string
	TM       TMKind
	Flows    int
	Stats    metrics.FCTStats
	SimStats netsim.Stats
	// Classes is the per-class FCT/SLA attribution, present only when
	// FCTConfig.JobClasses ran the job-class workload. Under Trials > 1 it
	// re-attributes the concatenated per-flow FCTs of every trial.
	Classes []workload.ClassFCT `json:",omitempty"`
	// RawFlows and RawFCTNS are populated only when FCTConfig.KeepFlows is
	// set, for per-flow export via the trace package. Under Trials > 1 they
	// concatenate the trials in trial order. RawClassOf parallels RawFCTNS
	// with flow→class attributions on job-class runs.
	RawFlows   []workload.Flow
	RawFCTNS   []int64
	RawClassOf []uint8 `json:",omitempty"`
}

// RunFCT generates the workload on the combo's fabric, scales it to the
// reference utilization (with the §6.1 participation scale-down for R2R and
// C-S patterns), and measures flow completion times in the packet simulator.
//
// The reference capacity comes from fs.LeafSpineSpec so every fabric in the
// set sees the identical offered load, exactly as the paper applies one TM
// across topologies. When cfg.CapacityBps is set it is the reference
// instead, and fs may be nil.
//
// With cfg.Trials > 1 the experiment repeats over independently seeded
// arrival windows — in parallel across cfg.Workers — and the result pools
// every trial's flows.
func RunFCT(fs *FabricSet, combo Combo, kind TMKind, cfg FCTConfig) (FCTResult, error) {
	res, err := runTrials(cfg, combo, func(seed int64) (FCTResult, error) {
		rng := rand.New(rand.NewSource(seed))
		m, placement, err := BuildTM(kind, combo.Fabric, rng)
		if err != nil {
			return FCTResult{}, err
		}
		return runFCT(fs, combo, m, placement, cfg, rng)
	})
	if err != nil {
		return FCTResult{}, err
	}
	res.TM = kind
	return res, nil
}

// RunFCTMatrix is RunFCT with an explicit rack-level matrix (e.g. an
// operator trace imported via the trace package) instead of a built-in
// workload kind.
func RunFCTMatrix(fs *FabricSet, combo Combo, m *workload.Matrix, cfg FCTConfig) (FCTResult, error) {
	res, err := runTrials(cfg, combo, func(seed int64) (FCTResult, error) {
		rng := rand.New(rand.NewSource(seed))
		return runFCT(fs, combo, m, nil, cfg, rng)
	})
	if err != nil {
		return FCTResult{}, err
	}
	res.TM = TMKind(m.Name)
	return res, nil
}

// runTrials executes one seeded trial body per trial and pools the results.
// Trials <= 1 reproduces the pre-trials engine exactly: one window seeded
// directly by cfg.Seed. Otherwise each trial's seed is derived from its
// index, the shared combo is pre-warmed (lazily-built scheme state would
// serialize workers on a mutex), and trial t's result lands in slot t — so
// the pooled output is byte-identical from workers=1 to workers=N.
func runTrials(cfg FCTConfig, combo Combo, one func(seed int64) (FCTResult, error)) (FCTResult, error) {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Trials <= 1 {
		if err := ctx.Err(); err != nil {
			return FCTResult{}, err
		}
		res, err := one(cfg.Seed)
		if err != nil {
			return FCTResult{}, err
		}
		if !cfg.KeepFlows {
			res.RawFlows, res.RawFCTNS, res.RawClassOf = nil, nil, nil
		}
		if cfg.OnTrial != nil {
			cfg.OnTrial(1, 1)
		}
		return res, nil
	}
	if parallel.Workers(cfg.Workers) > 1 {
		if pw, ok := combo.Scheme.(routing.Prewarmer); ok {
			pw.Prewarm()
		}
	}
	trials := make([]FCTResult, cfg.Trials)
	var done atomic.Int64
	err := parallel.ForEachCtx(ctx, cfg.Workers, cfg.Trials, func(t int) error {
		r, err := one(parallel.DeriveSeed(cfg.Seed, t))
		if err != nil {
			return fmt.Errorf("core: trial %d: %w", t, err)
		}
		trials[t] = r
		if cfg.OnTrial != nil {
			cfg.OnTrial(int(done.Add(1)), cfg.Trials)
		}
		return nil
	})
	if err != nil {
		return FCTResult{}, err
	}
	return mergeTrials(cfg, trials)
}

// mergeTrials pools per-trial results in trial order: counts and simulator
// stats sum, the FCT distribution is re-summarized over the concatenation
// of every trial's per-flow FCTs, and job-class runs re-attribute the
// concatenation per class (percentiles cannot be pooled from summaries).
func mergeTrials(cfg FCTConfig, trials []FCTResult) (FCTResult, error) {
	out := FCTResult{Combo: trials[0].Combo}
	var all []int64
	var allClass []uint8
	for _, r := range trials {
		out.Flows += r.Flows
		out.SimStats.Accumulate(r.SimStats)
		all = append(all, r.RawFCTNS...)
		allClass = append(allClass, r.RawClassOf...)
		if cfg.KeepFlows {
			out.RawFlows = append(out.RawFlows, r.RawFlows...)
		}
	}
	out.Stats = metrics.SummarizeFCT(all)
	if len(cfg.JobClasses) > 0 {
		classes, err := workload.ClassAttribution(cfg.JobClasses, allClass, all)
		if err != nil {
			return FCTResult{}, fmt.Errorf("core: pooling class attribution: %w", err)
		}
		out.Classes = classes
	}
	if cfg.KeepFlows {
		out.RawFCTNS = all
		out.RawClassOf = allClass
	}
	return out, nil
}

// runFCT measures one arrival window. It always records the raw per-flow
// FCTs in the result — runTrials needs them to pool trials — and the caller
// strips them when KeepFlows is off.
func runFCT(fs *FabricSet, combo Combo, m *workload.Matrix, placement []int, cfg FCTConfig, rng *rand.Rand) (FCTResult, error) {
	if cfg.Sizes == nil {
		cfg.Sizes = workload.PaperFlowSizes()
	}
	capacity := cfg.CapacityBps
	if capacity <= 0 {
		capacity = workload.SpineCapacityBps(fs.LeafSpineSpec, cfg.Net.LinkRateBps)
	}
	// §6.1: patterns where only a few racks participate are scaled down by
	// sendingRacks/totalRacks. For full-participation matrices (A2A, the FB
	// workloads) the factor is exactly 1, so applying it unconditionally
	// reproduces the paper's rule.
	load := cfg.Util * workload.ParticipationScale(m)
	meanBytes := cfg.Sizes.Mean()
	if len(cfg.JobClasses) > 0 {
		meanBytes = workload.ClassMean(cfg.JobClasses)
	}
	count := workload.FlowCountForLoad(capacity, load, meanBytes, cfg.WindowSec)
	if count < 1 {
		count = 1
	}
	if cfg.MaxFlows > 0 && count > cfg.MaxFlows {
		count = cfg.MaxFlows
	}
	var flows []workload.Flow
	var classOf []uint8
	var err error
	if len(cfg.JobClasses) > 0 {
		flows, classOf, err = workload.GenerateClassedFlows(combo.Fabric, m, workload.ClassedConfig{
			Classes:   cfg.JobClasses,
			Flows:     count,
			WindowNS:  int64(cfg.WindowSec * 1e9),
			Placement: placement,
		}, rng)
	} else {
		flows, err = workload.GenerateFlows(combo.Fabric, m, workload.GenConfig{
			Flows:     count,
			Sizes:     cfg.Sizes,
			WindowNS:  int64(cfg.WindowSec * 1e9),
			Placement: placement,
		}, rng)
	}
	if err != nil {
		return FCTResult{}, err
	}
	sim, err := netsim.New(combo.Fabric, combo.Scheme, cfg.Net)
	if err != nil {
		return FCTResult{}, err
	}
	res, err := cfg.Observers.Run(sim, flows, classOf)
	if err != nil {
		return FCTResult{}, fmt.Errorf("core: %s: %w", combo.Label, err)
	}
	out := FCTResult{
		Combo:      combo.Label,
		Flows:      len(flows),
		Stats:      metrics.SummarizeFCT(res.FCTNS),
		SimStats:   res.Stats,
		RawFlows:   flows,
		RawFCTNS:   res.FCTNS,
		RawClassOf: classOf,
	}
	if classOf != nil {
		out.Classes, err = workload.ClassAttribution(cfg.JobClasses, classOf, res.FCTNS)
		if err != nil {
			return FCTResult{}, err
		}
	}
	return out, nil
}
