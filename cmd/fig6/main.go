// Command fig6 regenerates Figure 6 of "Spineless Data Centers": the
// effect of scale on the DRing. For each supernode count it builds the
// §6.3 DRing (6 ToRs per supernode, 60-port switches, 36 server links) and
// an equipment-matched RRG, runs uniform traffic through the packet
// simulator, and reports p99FCT(DRing)/p99FCT(RRG) — the ratio that climbs
// above 1 as the ring grows.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spineless/internal/cli"
	"spineless/internal/core"
	"spineless/internal/metrics"
	"spineless/internal/parallel"
	"spineless/internal/store"
	"spineless/internal/viz"
	"spineless/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fig6: ")
	var (
		sweep  = flag.String("supernodes", "7,9,11,13,15", "comma-separated supernode counts (paper: 42..90 racks)")
		tors   = flag.Int("tors", 6, "ToRs per supernode (§6.3 uses 6)")
		ports  = flag.Int("ports", 60, "switch radix (§6.3 uses 60)")
		scheme = flag.String("scheme", "ecmp", "routing scheme for both fabrics (ecmp, su2, ...)")
		topo   = flag.String("topo", "dring", "numerator fabric: dring (paper), xpander, debruijn or rng (same equipment budget; denominator RRG is matched to it)")
		util   = flag.Float64("util", 0.5, "offered load per server as a fraction of half its NIC rate")
		window = flag.Float64("window", 0.004, "flow arrival window, seconds")
		flows  = flag.Int("maxflows", 0, "cap on flows per point (0 = uncapped; capping skews per-server load across the sweep)")
		svgOut = flag.String("svg", "", "write fig6.svg into this directory")
		shared = cli.Register(flag.CommandLine, "seed", "audit", "workers", "store", "cpuprofile", "memprofile")
	)
	flag.Parse()

	run, err := shared.Start("fig6")
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()

	counts, err := parseInts(*sweep)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultScaleConfig()
	cfg.TorsPerSupernode = *tors
	cfg.Ports = *ports
	cfg.Scheme = *scheme
	cfg.Topology = *topo
	cfg.FCT.Util = *util
	cfg.FCT.WindowSec = *window
	cfg.FCT.Seed = shared.Seed
	cfg.FCT.MaxFlows = *flows
	cfg.FCT.Sizes = workload.PaperFlowSizes()
	cfg.FCT.Audit = shared.Audit
	cfg.Workers = shared.Workers

	var t metrics.Table
	t.AddRow("supernodes", "racks", "servers", fmt.Sprintf("p99 FCT(%s)/FCT(RRG)", *topo), "median ratio")
	var xs, p99s, medians []float64
	start := time.Now()
	// Sweep points run in parallel across -workers and are cached one at a
	// time: each is independent and reseeds from the config, so a per-point
	// sweep is bit-identical to one ScaleSweep call over every count.
	pts := make([]core.ScalePoint, len(counts))
	err = parallel.ForEach(cfg.Workers, len(counts), func(i int) error {
		spec := fig6Point{
			V: 2, Topo: *topo, Supernodes: counts[i], Tors: *tors, Ports: *ports,
			Scheme: *scheme, Util: *util, WindowSec: *window,
			Seed: shared.Seed, MaxFlows: *flows,
		}
		label := fmt.Sprintf("%d supernodes", counts[i])
		p, _, err := store.Memoize(run.Cache, label, spec, func() (core.ScalePoint, error) {
			one, err := core.ScaleSweep(counts[i:i+1], cfg)
			if err != nil {
				return core.ScalePoint{}, err
			}
			return one[0], nil
		})
		if err != nil {
			return err
		}
		pts[i] = p
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		t.AddRow(
			strconv.Itoa(p.Supernodes),
			strconv.Itoa(p.Racks),
			strconv.Itoa(p.Servers),
			fmt.Sprintf("%.3f", p.Ratio),
			fmt.Sprintf("%.3f", p.MedianRatio),
		)
		xs = append(xs, float64(p.Racks))
		p99s = append(p99s, p.Ratio)
		medians = append(medians, p.MedianRatio)
	}
	log.Printf("%d points done in %v", len(pts), time.Since(start).Round(time.Millisecond))
	// Printed only now: core rejects an unknown -topo at the first point,
	// and a failed sweep leaves stdout empty.
	fmt.Printf("%s(%d ToRs/supernode, %d ports) vs equipment-matched RRG, uniform traffic, %s routing, seed=%d\n\n",
		*topo, *tors, *ports, *scheme, shared.Seed)
	fmt.Println(t.String())
	fmt.Printf("ratio > 1 means the %s's tail FCT is worse than the expander's (§6.3).\n", *topo)

	if *svgOut != "" {
		if err := os.MkdirAll(*svgOut, 0o755); err != nil {
			log.Fatal(err)
		}
		svg, err := viz.Lines("Effect of scale: DRing vs equivalent RRG (uniform traffic)",
			"racks", "FCT(DRing)/FCT(RRG)", []viz.Series{
				{Name: "p99", X: xs, Y: p99s},
				{Name: "median", X: xs, Y: medians},
			})
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*svgOut, "fig6.svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
}

// fig6Point is the cache key for one sweep point: the numerator topology,
// its geometry, routing scheme, workload knobs and seed; nothing
// result-neutral. V bumped to 2 when the topology joined the key.
type fig6Point struct {
	V          int     `json:"v"`
	Topo       string  `json:"topo"`
	Supernodes int     `json:"supernodes"`
	Tors       int     `json:"tors"`
	Ports      int     `json:"ports"`
	Scheme     string  `json:"scheme"`
	Util       float64 `json:"util"`
	WindowSec  float64 `json:"window_sec"`
	Seed       int64   `json:"seed"`
	MaxFlows   int     `json:"max_flows,omitempty"`
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad supernode count %q", f)
		}
		if v < 5 {
			return nil, fmt.Errorf("supernode count %d < 5", v)
		}
		out = append(out, v)
	}
	return out, nil
}
