// Command fig5 regenerates Figure 5 of "Spineless Data Centers": heatmaps
// of throughput(DRing)/throughput(leaf-spine) across the C-S model, for
// small and large C/S values and for both ECMP and Shortest-Union(2)
// routing (four panels), using the max-min fair flow-level model with
// long-running flows (§6.2).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"spineless/internal/audit"
	"spineless/internal/cli"
	"spineless/internal/core"
	"spineless/internal/flowsim"
	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/store"
	"spineless/internal/viz"
	"spineless/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fig5: ")
	var (
		paper   = flag.Bool("paper", false, "full-scale §5.1 fabrics (C,S up to 1400 as in the paper)")
		scale   = flag.Int("scale", 4, "scale-down factor for the default run")
		density = flag.Int("flows", 2, "long-running flows per host (sampling density)")
		csv     = flag.Bool("csv", false, "emit CSV instead of ASCII heatmaps")
		svgOut  = flag.String("svg", "", "write fig5a..fig5d SVG heatmaps into this directory")
		shared  = cli.Register(flag.CommandLine, "seed", "audit", "workers", "store", "cpuprofile", "memprofile")
	)
	flag.Parse()

	run, err := shared.Start("fig5")
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()
	if *svgOut != "" {
		if err := os.MkdirAll(*svgOut, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	fs, err := core.TrioFabrics(*paper, *scale, rand.New(rand.NewSource(shared.Seed)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fabrics: %v vs %v (seed=%d)\n\n", fs.DRing, fs.LeafSpine, shared.Seed)

	if shared.Audit {
		// Figure 5 is computed entirely in the flow-level model, so its
		// audit is differential: on each fabric × scheme the heatmap uses,
		// check netsim (under the invariant auditor), flowsim, and the
		// fluid FPTAS bound agree on a shared workload within the declared
		// tolerance bands.
		if err := auditModels(fs); err != nil {
			log.Fatal(err)
		}
		log.Printf("audit: netsim/flowsim/fluid agree on every fabric × scheme combination")
	}

	// Tick grids: the paper sweeps 20..260 (small) and 200..1400 (large) at
	// full scale; scaled runs shrink proportionally to the server count.
	// C and S must pack into disjoint rack sets, so their sum stays below
	// the host count with rack-granularity slack (the paper's 1400+1400
	// against 2988 servers leaves the same margin).
	hostCap := min(fs.DRing.Servers(), fs.LeafSpine.Servers())
	small := gridTicks(hostCap/150+1, hostCap/12, 5)
	large := gridTicks(hostCap/15, hostCap*45/100, 5)

	cfg := core.DefaultThroughputConfig()
	cfg.Seed = shared.Seed
	cfg.FlowsPerHost = *density
	cfg.Workers = shared.Workers

	panels := []struct {
		name   string
		file   string
		scheme string
		ticks  []int
	}{
		{"(a) small values, ECMP", "fig5a.svg", "ecmp", small},
		{"(b) small values, shortest-union(2)", "fig5b.svg", "su2", small},
		{"(c) large values, ECMP", "fig5c.svg", "ecmp", large},
		{"(d) large values, shortest-union(2)", "fig5d.svg", "su2", large},
	}
	for _, p := range panels {
		dr, err := core.NewCombo("DRing", fs.DRing, p.scheme)
		if err != nil {
			log.Fatal(err)
		}
		ls, err := core.NewCombo("leaf-spine", fs.LeafSpine, "ecmp")
		if err != nil {
			log.Fatal(err)
		}
		spec := fig5Panel{
			V: 1, Paper: *paper, Scale: *scale, Scheme: p.scheme,
			Ticks: p.ticks, Seed: shared.Seed, FlowsPerHost: *density,
		}
		h, _, err := store.Memoize(run.Cache, p.name, spec, func() (*metrics.Heatmap, error) {
			return core.CSRatioHeatmap(dr, ls, p.ticks, p.ticks, cfg)
		})
		if err != nil {
			log.Fatal(err)
		}
		h.Title = fmt.Sprintf("%s — throughput(DRing %s)/throughput(leaf-spine ecmp)", p.name, p.scheme)
		if *csv {
			fmt.Printf("# %s\n%s\n", h.Title, h.CSV())
		} else {
			fmt.Println(h.String())
		}
		if *svgOut != "" {
			svg, err := viz.HeatmapSVG(h.Title, h.XLabel, h.YLabel, h.XTicks, h.YTicks, h.Cells)
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(*svgOut, p.file), []byte(svg), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *svgOut != "" {
		log.Printf("wrote fig5a..d SVGs to %s", *svgOut)
	}
}

// auditModels runs the differential harness on every fabric × scheme
// combination the heatmaps use, with a simultaneous-start, equal-size
// workload spanning both host halves.
func auditModels(fs *core.FabricSet) error {
	combos := []struct{ label, scheme string }{
		{"DRing", "ecmp"}, {"DRing", "su2"}, {"leaf-spine", "ecmp"},
	}
	for _, c := range combos {
		fabric := fs.DRing
		if c.label == "leaf-spine" {
			fabric = fs.LeafSpine
		}
		combo, err := core.NewCombo(c.label, fabric, c.scheme)
		if err != nil {
			return err
		}
		half := fabric.Servers() / 2
		n := min(2*half, 48)
		flows := make([]workload.Flow, n)
		for i := range flows {
			flows[i] = workload.Flow{
				ID: uint64(i), Src: i % half, Dst: half + (i+1)%half, SizeBytes: 300e3,
			}
		}
		rep, err := audit.Differential(fabric, combo.Scheme, flows, audit.DiffConfig{
			Net:  netsim.DefaultConfig(),
			Link: flowsim.DefaultConfig(),
		})
		if err != nil {
			return fmt.Errorf("audit %s × %s: %w", c.label, c.scheme, err)
		}
		if err := rep.Err(); err != nil {
			return fmt.Errorf("audit %s × %s: %w", c.label, c.scheme, err)
		}
		log.Printf("audit %s × %s: netsim %.2f Gbps, flowsim %.2f Gbps, fluid λ %.2f Gbps/flow",
			c.label, c.scheme, rep.NetsimBps/1e9, rep.FlowsimBps/1e9, rep.FluidLambdaBps/1e9)
	}
	return nil
}

// fig5Panel is the cache key for one heatmap panel: everything the panel
// depends on (fabric scale, routing scheme, tick grid, seed, sampling
// density) and nothing result-neutral (workers, audit, output format).
type fig5Panel struct {
	V            int    `json:"v"`
	Paper        bool   `json:"paper,omitempty"`
	Scale        int    `json:"scale,omitempty"`
	Scheme       string `json:"scheme"`
	Ticks        []int  `json:"ticks"`
	Seed         int64  `json:"seed"`
	FlowsPerHost int    `json:"flows_per_host"`
}

// gridTicks returns n evenly spaced integers in [lo, hi].
func gridTicks(lo, hi, n int) []int {
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		hi = lo + n
	}
	out := make([]int, n)
	for i := range out {
		out[i] = lo + (hi-lo)*i/(n-1)
	}
	return out
}
