package jobs

import (
	"context"
	"fmt"
	"math/rand"

	"spineless/internal/core"
	"spineless/internal/netsim"
	"spineless/internal/resilience"
	"spineless/internal/telemetry"
	"spineless/internal/topology"
)

// Result is the JSON document a job commits to the store: exactly one of
// the per-kind payloads, tagged by the kind that produced it.
type Result struct {
	Kind string                 `json:"kind"`
	FCT  *core.FCTResult        `json:"fct,omitempty"`
	Live *resilience.LiveResult `json:"live,omitempty"`
}

// SimEvents reports how many packet-simulator events the run processed —
// the raw material of the /metrics event-throughput gauge. Live results do
// not expose a raw event counter and report zero.
func (r Result) SimEvents() uint64 {
	if r.FCT != nil {
		return r.FCT.SimStats.Events
	}
	return 0
}

// Execute runs a normalized, validated spec to completion. workers bounds
// trial-level parallelism (0 = one per CPU); rec, when non-nil, is a
// telemetry recorder attached to the run's simulators, write-only for the
// run and read concurrently by streamers; onTrial receives monotonic
// progress from the trial loop; ctx cancels between trials. None of
// workers, rec, onTrial or ctx can affect the result of a run that
// completes — that is the determinism contract the result cache relies on,
// and observation is the one side effect it permits.
func Execute(ctx context.Context, sp Spec, workers int, rec *telemetry.Recorder, onTrial func(done, total int)) (Result, error) {
	switch sp.Kind {
	case "fct":
		res, err := executeFCT(ctx, sp, workers, rec, onTrial)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: sp.Kind, FCT: res}, nil
	case "live":
		res, err := executeLive(ctx, sp, rec, onTrial)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: sp.Kind, Live: res}, nil
	}
	return Result{}, fmt.Errorf("jobs: unknown kind %q", sp.Kind)
}

func executeFCT(ctx context.Context, sp Spec, workers int, rec *telemetry.Recorder, onTrial func(done, total int)) (*core.FCTResult, error) {
	fs, err := core.TrioFabrics(sp.Topo.Paper, sp.Topo.Scale, rand.New(rand.NewSource(sp.Seed)))
	if err != nil {
		return nil, err
	}
	// Flat fabrics are seeded from the spec, so the wiring is part of the
	// cell identity.
	fabric, err := fs.Fabric(sp.Fabric, sp.Seed)
	if err != nil {
		return nil, err
	}
	combo, err := core.NewCombo(sp.Fabric+" ("+sp.Scheme+")", fabric, sp.Scheme)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultFCTConfig()
	cfg.Util = sp.Util
	cfg.WindowSec = sp.WindowSec
	cfg.Seed = sp.Seed
	cfg.Trials = sp.Trials
	cfg.MaxFlows = sp.MaxFlows
	cfg.Workers = workers
	cfg.Ctx = ctx
	cfg.OnTrial = onTrial
	cfg.Telemetry = rec
	res, err := core.RunFCT(fs, combo, core.TMKind(sp.TM), cfg)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

func executeLive(ctx context.Context, sp Spec, rec *telemetry.Recorder, onTrial func(done, total int)) (*resilience.LiveResult, error) {
	// RunLive is a single indivisible trial: honor cancellation at the
	// boundary and report one unit of progress on completion.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dr, err := topology.DRing(topology.Uniform(sp.Topo.Supernodes, sp.Topo.Tors, sp.Topo.Ports))
	if err != nil {
		return nil, err
	}
	g, err := core.OnDRing(sp.Fabric, dr, rand.New(rand.NewSource(sp.Seed)))
	if err != nil {
		return nil, err
	}
	f := sp.Faults
	cfg := resilience.DefaultLiveConfig()
	cfg.K = f.K
	cfg.Fraction = f.Fraction
	cfg.FailAtNS = f.FailAtNS
	cfg.DetectionDelayNS = f.DetectionDelayNS
	cfg.RoundDelayNS = f.RoundDelayNS
	cfg.FlapLinks = f.FlapLinks
	cfg.FlapDownNS = f.FlapDownNS
	cfg.FlapUpNS = f.FlapUpNS
	cfg.FlapCycles = f.FlapCycles
	cfg.GrayLinks = f.GrayLinks
	cfg.GrayLoss = f.GrayLoss
	cfg.GrayRateFactor = f.GrayRateFactor
	cfg.Flows = f.Flows
	cfg.WindowNS = f.WindowNS
	cfg.PreserveConnectivity = f.PreserveConnectivity
	cfg.Net = netsim.DefaultConfig()
	cfg.Seed = sp.Seed
	cfg.Telemetry = rec
	res, err := resilience.RunLive(g, cfg)
	if err != nil {
		return nil, err
	}
	if onTrial != nil {
		onTrial(1, 1)
	}
	return &res, nil
}

// defaultFaults exposes resilience's defaults to spec normalization.
func defaultFaults() resilience.LiveConfig { return resilience.DefaultLiveConfig() }
