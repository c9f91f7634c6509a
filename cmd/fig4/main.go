// Command fig4 regenerates Figure 4 of "Spineless Data Centers": median and
// 99th-percentile flow completion times for the seven §5.2 traffic matrices
// across the five fabric × routing combinations, measured in the
// packet-level TCP simulator at 30% spine load.
//
// By default it runs a proportionally scaled-down trio (leaf-spine(12,4))
// so a laptop regenerates the figure in minutes; -paper runs the full §5.1
// configuration (leaf-spine(48,16), 3072 servers), which takes much longer.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spineless/internal/cli"
	"spineless/internal/core"
	"spineless/internal/metrics"
	"spineless/internal/parallel"
	"spineless/internal/store"
	"spineless/internal/trace"
	"spineless/internal/viz"
	"spineless/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fig4: ")
	var (
		paper    = flag.Bool("paper", false, "run the full-scale §5.1 configuration (slow)")
		scale    = flag.Int("scale", 4, "scale-down factor for the default run (divides 48 and 16)")
		util     = flag.Float64("util", 0.30, "offered load as a fraction of spine capacity")
		window   = flag.Float64("window", 0.01, "flow arrival window, seconds")
		maxFlows = flag.Int("maxflows", 0, "cap on generated flows per cell (0 = uncapped)")
		claim    = flag.Bool("claim", false, "also check the §6.1 'up to 7× lower FCT' claim on FB-skewed")
		dump     = flag.String("dump", "", "write per-flow FCT CSVs for every cell into this directory")
		svgOut   = flag.String("svg", "", "write fig4a.svg and fig4b.svg into this directory")
		extra    = flag.String("extra", "", "comma-separated bake-off fabrics to append as extra columns: xpander, debruijn, rng (each with its native scheme)")
		trials   = flag.Int("trials", 1, "independently seeded arrival windows pooled per cell")
		shared   = cli.Register(flag.CommandLine, "seed", "audit", "telemetry", "workers", "store", "cpuprofile", "memprofile")
	)
	flag.Parse()

	run, err := shared.Start("fig4")
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()

	fs, err := core.TrioFabrics(*paper, *scale, rand.New(rand.NewSource(shared.Seed)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fabrics: %v | %v | %v\n", fs.LeafSpine, fs.RRG, fs.DRing)
	fmt.Printf("seed=%d util=%.2f window=%.3fs flow sizes: Pareto(mean=100KB, alpha=1.05)\n\n", shared.Seed, *util, *window)

	combos, err := core.PaperCombos(fs)
	if err != nil {
		log.Fatal(err)
	}
	if *extra != "" {
		for _, name := range strings.Split(*extra, ",") {
			name = strings.TrimSpace(name)
			g, err := fs.Fabric(name, shared.Seed)
			if err != nil {
				log.Fatal(err)
			}
			scheme := core.NativeScheme(name)
			c, err := core.NewCombo(fmt.Sprintf("%s (%s)", name, scheme), g, scheme)
			if err != nil {
				log.Fatal(err)
			}
			combos = append(combos, c)
			fmt.Printf("extra fabric: %v\n", g)
		}
	}
	cfg := core.DefaultFCTConfig()
	cfg.Util = *util
	cfg.WindowSec = *window
	cfg.Seed = shared.Seed
	cfg.MaxFlows = *maxFlows
	cfg.Trials = *trials
	cfg.Workers = shared.Workers
	cfg.Sizes = workload.PaperFlowSizes()
	cfg.Audit = shared.Audit
	cfg.Telemetry = run.Telemetry
	cfg.KeepFlows = *dump != ""
	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	cache := run.Cache
	if cache != nil && cfg.KeepFlows {
		// Per-flow dumps would bloat cache entries by orders of magnitude;
		// run fresh instead.
		log.Printf("-dump requested: result cache bypassed for this run")
		cache = nil
	}

	var median, p99 metrics.Table
	header := []string{"TM"}
	for _, c := range combos {
		header = append(header, c.Label)
	}
	median.AddRow(header...)
	p99.AddRow(header...)

	results := map[core.TMKind][]core.FCTResult{}
	for _, kind := range core.AllTMKinds() {
		start := time.Now()
		row, err := cachedFig4Row(cache, fs, combos, kind, cfg, *paper, *scale)
		if err != nil {
			log.Fatal(err)
		}
		results[kind] = row
		if *dump != "" {
			if err := dumpRow(*dump, kind, row); err != nil {
				log.Fatal(err)
			}
		}
		mcells, pcells := []string{string(kind)}, []string{string(kind)}
		for _, r := range row {
			mcells = append(mcells, fmt.Sprintf("%.3f", r.Stats.MedianMS))
			pcells = append(pcells, fmt.Sprintf("%.3f", r.Stats.P99MS))
			if r.Stats.Incomplete > 0 {
				log.Printf("warning: %s × %s left %d flows incomplete", r.Combo, kind, r.Stats.Incomplete)
			}
		}
		median.AddRow(mcells...)
		p99.AddRow(pcells...)
		log.Printf("%-14s done in %v (%d flows per combo)", kind, time.Since(start).Round(time.Millisecond), row[0].Flows)
	}

	fmt.Println("(a) Median FCT (ms)")
	fmt.Println(median.String())
	fmt.Println("(b) 99th percentile FCT (ms)")
	fmt.Println(p99.String())

	if run.Telemetry != nil {
		// Cells span three differently shaped fabrics, so the merged
		// snapshot is totals-only (Mixed) by construction.
		fmt.Println(run.Telemetry.Snapshot().Digest(5))
	}

	if *svgOut != "" {
		if err := os.MkdirAll(*svgOut, 0o755); err != nil {
			log.Fatal(err)
		}
		labels := make([]string, len(combos))
		for i, c := range combos {
			labels[i] = c.Label
		}
		for _, panel := range []struct {
			file, title string
			pick        func(core.FCTResult) float64
		}{
			{"fig4a.svg", "(a) Median FCT (ms)", func(r core.FCTResult) float64 { return r.Stats.MedianMS }},
			{"fig4b.svg", "(b) 99th percentile FCT (ms)", func(r core.FCTResult) float64 { return r.Stats.P99MS }},
		} {
			var groups []viz.BarGroup
			for _, kind := range core.AllTMKinds() {
				g := viz.BarGroup{Label: string(kind)}
				for _, r := range results[kind] {
					g.Values = append(g.Values, panel.pick(r))
				}
				groups = append(groups, g)
			}
			svg, err := viz.GroupedBars(panel.title, "FCT (ms)", labels, groups)
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(*svgOut, panel.file), []byte(svg), 0o644); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("wrote fig4a.svg and fig4b.svg to %s", *svgOut)
	}

	if *claim {
		ls := results[core.TMFBSkewed][0].Stats
		best := results[core.TMFBSkewed][1].Stats // DRing su2
		if rrg := results[core.TMFBSkewed][2].Stats; rrg.P99MS < best.P99MS {
			best = rrg
		}
		fmt.Printf("§6.1 claim check (FB-skewed, p99): leaf-spine %.3fms vs best flat %.3fms → %.2f× lower\n",
			ls.P99MS, best.P99MS, ls.P99MS/best.P99MS)
	}
	// No os.Exit here: the deferred profile flush must run.
}

// fig4Cell is the cache key for one (TM × combo) cell: every knob the
// cell's result depends on, and nothing else (workers, audit and profiling
// flags never change results, so they must not fragment the cache).
type fig4Cell struct {
	V         int     `json:"v"`
	Paper     bool    `json:"paper,omitempty"`
	Scale     int     `json:"scale,omitempty"`
	Combo     string  `json:"combo"`
	TM        string  `json:"tm"`
	Util      float64 `json:"util"`
	WindowSec float64 `json:"window_sec"`
	Seed      int64   `json:"seed"`
	Trials    int     `json:"trials,omitempty"`
	MaxFlows  int     `json:"max_flows,omitempty"`
}

// cachedFig4Row runs one workload across all combos — one group of bars in
// Figure 4 — and returns results in combo order. Combos run in parallel on
// cfg.Workers goroutines, each through a per-cell result cache (looked up,
// and on a miss computed and committed, independently). Cells are
// independent because every RunFCT reseeds from cfg.Seed, so the output
// matches a serial loop bit for bit.
func cachedFig4Row(cache *store.Cache, fs *core.FabricSet, combos []core.Combo, kind core.TMKind, cfg core.FCTConfig, paper bool, scale int) ([]core.FCTResult, error) {
	out := make([]core.FCTResult, len(combos))
	err := parallel.ForEach(cfg.Workers, len(combos), func(i int) error {
		spec := fig4Cell{
			V: 1, Paper: paper, Scale: scale, Combo: combos[i].Label,
			TM: string(kind), Util: cfg.Util, WindowSec: cfg.WindowSec,
			Seed: cfg.Seed, Trials: cfg.Trials, MaxFlows: cfg.MaxFlows,
		}
		label := fmt.Sprintf("%s × %s", combos[i].Label, kind)
		r, _, err := store.Memoize(cache, label, spec, func() (core.FCTResult, error) {
			return core.RunFCT(fs, combos[i], kind, cfg)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dumpRow writes one per-flow FCT CSV per combo for a workload.
func dumpRow(dir string, kind core.TMKind, row []core.FCTResult) error {
	for _, r := range row {
		name := fmt.Sprintf("%s_%s.csv", kind, sanitize(r.Combo))
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := trace.WriteFCTs(f, r.RawFlows, r.RawFCTNS); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		case r == ' ', r == '(', r == ')':
			// dropped
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
