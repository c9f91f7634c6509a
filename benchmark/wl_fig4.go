package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"

	"spineless/internal/core"
	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/telemetry"
	"spineless/internal/workload"
)

// fig4-packet: the §5.1 paper-scale trio, the five Figure 4 combos, a uniform
// and a skewed matrix — ten core.RunFCT cells a round on the serial engine.
// The uniform and the skewed matrix load the same engine differently (traffic
// spread over every rack pair against a few hot racks).
var fig4Packet = &workloadDef{
	name:      "fig4-packet",
	workUnit:  "simulated events",
	setupReps: 150,
	setup:     setupFig4,
}

// buildTrio builds the §5.1 fabric set: paper scale, or the 1/4 scale-down
// for the smoke variant.
func buildTrio(seed int64, small bool) (*core.FabricSet, error) {
	rng := rand.New(rand.NewSource(seed))
	if small {
		return core.ScaledFabrics(4, rng)
	}
	return core.PaperFabrics(rng)
}

// fctDigest is what a cell contributes to result_digest.
type fctDigest struct {
	Combo string
	TM    core.TMKind
	Flows int
	Stats metrics.FCTStats
	Sim   netsim.Stats
	FCT   string // hash of the per-flow completion times
}

// fig4Cell is one step's fixed inputs.
type fig4Cell struct {
	fs    *core.FabricSet
	combo core.Combo
	tm    core.TMKind
	cfg   core.FCTConfig
	sizes *dealtSizes
	// withTelemetry marks the one cell a round that is also replayed with a
	// telemetry sink attached.
	withTelemetry bool
	// last is the most recent round's output, for the simulated quantities
	// the traced run reports.
	last core.FCTResult
}

func setupFig4(opt options, st *setupTimer) (*instance, error) {
	seed, small := opt.seed, opt.small
	var fs *core.FabricSet
	var combos []core.Combo
	err := st.step("build fabrics", func() (err error) {
		fs, err = buildTrio(seed, small)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = st.step("build schemes", func() (err error) {
		combos, err = core.PaperCombos(fs)
		return err
	})
	if err != nil {
		return nil, err
	}
	flows := 500
	if small {
		flows = 60
	}
	var cells []*fig4Cell
	inst := &instance{close: func() error { return nil }}
	inst.layers = func(v *traceView) map[string]float64 {
		out := fig4Layers(v)
		last := make([]core.FCTResult, len(cells))
		for i, c := range cells {
			last[i] = c.last
		}
		simulated(out, last)
		return out
	}
	for ti, tm := range []core.TMKind{core.TMA2A, core.TMFBSkewed} {
		for ci, combo := range combos {
			cellSeed := subSeed(seed, 100+ti*len(combos)+ci)
			cfg := core.DefaultFCTConfig()
			cfg.Util = 0.30
			cfg.WindowSec = 0.002
			cfg.MaxFlows = flows
			cfg.Workers = 1
			cfg.Seed = cellSeed
			cfg.KeepFlows = true // hands the probes the exact flow set; costs nothing extra
			sizes := newDealtSizes(flows, cellSeed)
			cfg.Sizes = sizes
			c := &fig4Cell{fs: fs, combo: combo, tm: tm, cfg: cfg, sizes: sizes,
				withTelemetry: ti == 0 && ci == 1}
			cells = append(cells, c)
			inst.steps = append(inst.steps, step{
				name:  fmt.Sprintf("%s / %s", tm, combo.Label),
				span:  "core.RunFCT",
				run:   c.run,
				probe: c.probe,
			})
		}
	}
	return inst, nil
}

func (c *fig4Cell) run(ref) (stepResult, error) {
	c.sizes.reset()
	res, err := core.RunFCT(c.fs, c.combo, c.tm, c.cfg)
	if err != nil {
		return stepResult{}, err
	}
	if res.Stats.Count <= 0 || res.Stats.Incomplete != 0 {
		return stepResult{}, fmt.Errorf("%d flows completed, %d did not", res.Stats.Count, res.Stats.Incomplete)
	}
	for _, v := range []float64{res.Stats.MedianMS, res.Stats.P99MS, res.Stats.MeanMS, res.Stats.MaxMS} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return stepResult{}, fmt.Errorf("non-finite or non-positive FCT statistic %v", v)
		}
	}
	c.last = res
	return stepResult{
		digest: fctDigest{res.Combo, res.TM, res.Flows, res.Stats, res.SimStats, hashInt64s(res.RawFCTNS)},
		work:   int64(res.SimStats.Events),
		keep:   res,
	}, nil
}

// probe replays the cell layer by layer: workload generation, netsim
// construction and run (with the routing lookups the run makes replayed under
// it), and the metric reduction — each must reproduce what RunFCT returned.
func (c *fig4Cell) probe(sp ref, out stepResult) error {
	res := out.keep.(core.FCTResult)
	g := c.combo.Fabric

	gen := sp.child("workload.gen")
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	m, placement, err := core.BuildTM(c.tm, g, rng)
	if err != nil {
		return err
	}
	capacity := workload.SpineCapacityBps(c.fs.LeafSpineSpec, c.cfg.Net.LinkRateBps)
	load := c.cfg.Util * workload.ParticipationScale(m)
	count := workload.FlowCountForLoad(capacity, load, c.sizes.Mean(), c.cfg.WindowSec)
	if count > c.cfg.MaxFlows {
		count = c.cfg.MaxFlows
	}
	c.sizes.reset()
	flows, err := workload.GenerateFlows(g, m, workload.GenConfig{
		Flows: count, Sizes: c.sizes, WindowNS: int64(c.cfg.WindowSec * 1e9), Placement: placement,
	}, rng)
	gen.end(int64(len(flows)))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(flows, res.RawFlows) {
		return fmt.Errorf("replayed workload generation gave a different flow set (%d vs %d flows)", len(flows), len(res.RawFlows))
	}

	mk := sp.childMem("netsim.new")
	sim, err := netsim.New(g, c.combo.Scheme, c.cfg.Net)
	mk.end(0)
	if err != nil {
		return err
	}
	run := sp.childMem("netsim.run")
	got, err := sim.Run(res.RawFlows)
	run.end(int64(got.Stats.Events))
	if err != nil {
		return err
	}
	if got.Stats != res.SimStats || !reflect.DeepEqual(got.FCTNS, res.RawFCTNS) {
		return fmt.Errorf("replayed netsim run differs: %d events vs %d", got.Stats.Events, res.SimStats.Events)
	}

	// The simulator asks the scheme for one path per flow when the flow
	// starts; replay those lookups under the run's span.
	look := run.child("routing.lookup")
	hops := 0
	for _, f := range res.RawFlows {
		hops += len(c.combo.Scheme.Path(g.RackOf(f.Src), g.RackOf(f.Dst), f.ID))
	}
	look.end(int64(len(res.RawFlows)))
	if hops < len(res.RawFlows) {
		return fmt.Errorf("routing returned an empty path")
	}

	red := sp.child("metrics.reduce")
	stats := metrics.SummarizeFCT(got.FCTNS)
	red.end(int64(len(got.FCTNS)))
	if !reflect.DeepEqual(stats, res.Stats) {
		return fmt.Errorf("replayed metric reduction differs: %+v vs %+v", stats, res.Stats)
	}

	if c.withTelemetry {
		// Not a child of the step: it is extra work the step never did.
		tel := sp.t.open(ref{}, "telemetry.attached_run", true)
		sim, err := netsim.New(g, c.combo.Scheme, c.cfg.Net)
		if err != nil {
			return err
		}
		rec := telemetry.NewRecorder(telemetry.Config{})
		if _, err := rec.Attach(sim, len(res.RawFlows)); err != nil {
			return err
		}
		seen, err := sim.Run(res.RawFlows)
		tel.end(int64(seen.Stats.Events))
		if err != nil {
			return err
		}
		if seen.Stats != res.SimStats {
			return fmt.Errorf("attaching telemetry changed the run: %d events vs %d", seen.Stats.Events, res.SimStats.Events)
		}
		if rec.Snapshot().Totals.TxBytes == 0 {
			return fmt.Errorf("telemetry sink observed no traffic")
		}
	}
	return nil
}

func fig4Layers(v *traceView) map[string]float64 {
	out := netsimLayers(v, "core.RunFCT")
	out["core.self_ms"] = (v.quietNS("core.RunFCT") - v.quietNS("workload.gen", "netsim.new", "netsim.run", "metrics.reduce")) / 1e6

	// The telemetry cell: the attached run against the plain replay of the
	// same cell (construction + run), both as quiet times.
	for _, s := range v.spans {
		if s.Name == "telemetry.attached_run" {
			plain := v.quietStepNS(s.Step, "netsim.new", "netsim.run")
			if plain > 0 {
				out["telemetry.attach_overhead_pct"] = 100 * (v.quietStepNS(s.Step, "telemetry.attached_run") - plain) / plain
			}
			var plainBytes float64
			for _, p := range v.spans {
				if p.Round == s.Round && p.Step == s.Step && (p.Name == "netsim.new" || p.Name == "netsim.run") {
					plainBytes += float64(p.Bytes)
				}
			}
			out["telemetry.attach_mb"] = (float64(s.Bytes) - plainBytes) / 1e6
			break
		}
	}
	return out
}

// netsimLayers reduces the probe spans every packet-simulation step records
// (fig4-packet cells, svc-mix cold jobs); roundSpans name the spans that make
// up the quiet round the shares are taken of.
func netsimLayers(v *traceView, roundSpans ...string) map[string]float64 {
	out := map[string]float64{}
	round := v.quietNS(roundSpans...)
	runNS, newNS := v.quietNS("netsim.run"), v.quietNS("netsim.new")
	events := v.count("netsim.run")
	out["workload.gen_ms"] = v.quietNS("workload.gen") / 1e6
	out["workload.flows"] = v.count("workload.gen")
	out["netsim.new_ms"] = newNS / 1e6
	out["netsim.run_ms"] = runNS / 1e6
	out["netsim.events"] = events
	if events > 0 {
		out["netsim.ns_per_event"] = runNS / events
	}
	if cells := v.spansPerRound("netsim.run"); cells > 0 {
		out["netsim.allocs_per_cell"] = v.allocs("netsim.new", "netsim.run") / cells
	}
	if round > 0 {
		out["netsim.share"] = (runNS + newNS) / round
	}
	if lookups := v.count("routing.lookup"); lookups > 0 {
		out["routing.lookups"] = lookups
		out["routing.lookup_ns"] = v.quietNS("routing.lookup") / lookups
	}
	out["metrics.reduce_us"] = v.quietNS("metrics.reduce") / 1e3
	return out
}

// simulated adds the simulated quantities of a round's cells — exact for a
// seed — to a layer map: drops, retransmits and FCT percentiles pooled over
// every cell.
func simulated(out map[string]float64, cells []core.FCTResult) {
	var fct []float64
	var drops, rtx uint64
	for _, c := range cells {
		drops += c.SimStats.Drops
		rtx += c.SimStats.Retransmits
		for _, ns := range c.RawFCTNS {
			if ns >= 0 {
				fct = append(fct, float64(ns)/1e3)
			}
		}
	}
	out["netsim.drops"] = float64(drops)
	out["netsim.retransmits"] = float64(rtx)
	if len(fct) > 0 {
		sort.Float64s(fct)
		out["netsim.fct_p50_us"] = quantile(fct, 0.50)
		out["netsim.fct_p99_us"] = quantile(fct, 0.99)
	}
}
