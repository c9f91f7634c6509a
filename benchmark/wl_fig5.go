package main

import (
	"fmt"
	"math"
	"math/rand"

	"spineless/internal/core"
	"spineless/internal/flowsim"
	"spineless/internal/metrics"
	"spineless/internal/workload"
)

// fig5-flow: two Figure 5 panels on the paper-scale trio — DRing under ecmp
// and under shortest-union(2), each over leaf-spine ecmp — with client and
// server ticks at hosts/16, /8, /4 and /3. A step is one heatmap row (one
// client tick against the four server ticks): eight steps, 32 cells a round.
var fig5Flow = &workloadDef{
	name:      "fig5-flow",
	workUnit:  "heatmap cells",
	setupReps: 200,
	setup:     setupFig5,
}

// fig5Row is one step's fixed inputs.
type fig5Row struct {
	num, den core.Combo
	clients  int
	servers  []int
	cfg      core.ThroughputConfig
}

type rowDigest struct {
	Panel   string
	Clients int
	Cells   []float64
}

func setupFig5(opt options, st *setupTimer) (*instance, error) {
	seed, small := opt.seed, opt.small
	var fs *core.FabricSet
	err := st.step("build fabrics", func() (err error) {
		fs, err = buildTrio(seed, small)
		return err
	})
	if err != nil {
		return nil, err
	}
	var ls, drECMP, drSU2 core.Combo
	err = st.step("build schemes", func() (err error) {
		if ls, err = core.NewCombo("leaf-spine (ecmp)", fs.LeafSpine, "ecmp"); err != nil {
			return err
		}
		if drECMP, err = core.NewCombo("DRing (ecmp)", fs.DRing, "ecmp"); err != nil {
			return err
		}
		drSU2, err = core.NewCombo("DRing (shortest-union(2))", fs.DRing, "su2")
		return err
	})
	if err != nil {
		return nil, err
	}
	// Both fabrics must hold every C-S instance, so ticks come from the
	// smaller host count.
	hosts := min(fs.LeafSpine.Servers(), fs.DRing.Servers())
	ticks := []int{hosts / 16, hosts / 8, hosts / 4, hosts / 3}
	inst := &instance{close: func() error { return nil }, layers: fig5Layers}
	for pi, num := range []core.Combo{drECMP, drSU2} {
		for ci, c := range ticks {
			cfg := core.DefaultThroughputConfig()
			cfg.Workers = 1
			cfg.Seed = subSeed(seed, 200+pi*len(ticks)+ci)
			row := &fig5Row{num: num, den: ls, clients: c, servers: ticks, cfg: cfg}
			inst.steps = append(inst.steps, step{
				name:  fmt.Sprintf("%s / C=%d", num.Label, c),
				span:  "core.CSRatioHeatmap",
				run:   row.run,
				probe: row.probe,
			})
		}
	}
	return inst, nil
}

func (r *fig5Row) run(ref) (stepResult, error) {
	h, err := core.CSRatioHeatmap(r.num, r.den, []int{r.clients}, r.servers, r.cfg)
	if err != nil {
		return stepResult{}, err
	}
	cells := h.Cells[0]
	for i, v := range cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return stepResult{}, fmt.Errorf("cell C=%d S=%d is %v", r.clients, r.servers[i], v)
		}
	}
	return stepResult{
		digest: rowDigest{r.num.Label, r.clients, cells},
		work:   int64(len(cells)),
		keep:   cells,
	}, nil
}

// probe recomputes every cell of the row from the layers below core: the C-S
// instance and its host pairs (workload), one path per pair (routing, as a
// reader of a built FIB) and the max-min allocation (flowsim).
func (r *fig5Row) probe(sp ref, out stepResult) error {
	cells := out.keep.([]float64)
	for xi, s := range r.servers {
		var agg [2]float64
		for side, combo := range []core.Combo{r.num, r.den} {
			g := combo.Fabric
			gen := sp.child("workload.gen")
			rng := rand.New(rand.NewSource(r.cfg.Seed))
			cs, err := workload.CSModel(g, r.clients, s, rng)
			if err != nil {
				return err
			}
			pairs := workload.CSPairs(cs, r.cfg.FlowsPerHost*max(r.clients, s), rng)
			gen.end(int64(len(pairs)))

			look := sp.child("routing.lookup")
			flows := make([]flowsim.PathFlow, len(pairs))
			for i, p := range pairs {
				path := combo.Scheme.Path(g.RackOf(p[0]), g.RackOf(p[1]), uint64(i))
				if path == nil {
					return fmt.Errorf("no path for pair %d", i)
				}
				flows[i] = flowsim.PathFlow{Src: p[0], Dst: p[1], Path: path}
			}
			look.end(int64(len(pairs)))

			mm := sp.childMem("flowsim.maxmin")
			rates, err := flowsim.MaxMin(g, flows, r.cfg.Link)
			mm.end(int64(len(flows)))
			if err != nil {
				return err
			}
			for _, x := range rates {
				agg[side] += x
			}
		}
		got := metrics.Ratio(agg[0], agg[1])
		if math.Float64bits(got) != math.Float64bits(cells[xi]) {
			return fmt.Errorf("replayed cell C=%d S=%d is %v, the heatmap says %v", r.clients, s, got, cells[xi])
		}
	}
	return nil
}

func fig5Layers(v *traceView) map[string]float64 {
	out := map[string]float64{}
	round := v.quietNS("core.CSRatioHeatmap")
	gen, look, mm := v.quietNS("workload.gen"), v.quietNS("routing.lookup"), v.quietNS("flowsim.maxmin")
	out["workload.gen_ms"] = gen / 1e6
	out["workload.flows"] = v.count("workload.gen")
	if n := v.count("routing.lookup"); n > 0 {
		out["routing.lookups"] = n
		out["routing.lookup_ns"] = look / n
	}
	out["flowsim.maxmin_ms"] = mm / 1e6
	if n := v.count("flowsim.maxmin"); n > 0 {
		out["flowsim.flows"] = n
		out["flowsim.us_per_flow"] = mm / 1e3 / n
	}
	if round > 0 {
		out["flowsim.share"] = mm / round
	}
	out["core.self_ms"] = (round - gen - look - mm) / 1e6
	return out
}
