// Command spineless is the general driver for the reproduction: it
// inspects topologies (§5.1), reports the flatness analysis (§3.1), and
// dumps path sets under the routing schemes (§4).
//
// Subcommands:
//
//	spineless topo    [-paper] [-scale N] [-dot dir]          fabric inventory + path stats
//	spineless udf     [-x N -y N]                             §3.1 NSR/UDF table
//	spineless paths   [-scheme ...] -src A -dst B             admissible path sets
//	spineless cabling [-paper]                                §1 wiring & lifecycle comparison
//	spineless fct     [-fabric ...] [-tm KIND|@file.csv]      ad-hoc FCT experiment
//	spineless burst   [-mb N] [-fanout N]                     §3 microburst drain
//	spineless jobclass [-fabric ...] [-trials N]              Poisson job-class mix + SLA + telemetry
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"spineless/internal/core"
	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/routing"
	"spineless/internal/telemetry"
	"spineless/internal/topology"
	"spineless/internal/trace"
	"spineless/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spineless: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "topo":
		cmdTopo(os.Args[2:])
	case "udf":
		cmdUDF(os.Args[2:])
	case "paths":
		cmdPaths(os.Args[2:])
	case "cabling":
		cmdCabling(os.Args[2:])
	case "fct":
		cmdFCT(os.Args[2:])
	case "burst":
		cmdBurst(os.Args[2:])
	case "jobclass":
		cmdJobClass(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spineless {topo|udf|paths|cabling|fct|burst|jobclass} [flags]")
	os.Exit(2)
}

// cmdJobClass runs the Poisson-arrival job-class workload — the
// training/batch/latency tiers a flat fabric multiplexes onto one layer —
// with a classed telemetry recorder attached, and reports per-class FCT
// percentiles, SLA attainment, and the twin's per-class goodput totals.
func cmdJobClass(args []string) {
	fl := flag.NewFlagSet("jobclass", flag.ExitOnError)
	fabric := fl.String("fabric", "dring", "fabric on the trio's equipment budget: leafspine, dring, rrg, xpander, debruijn or rng")
	scheme := fl.String("scheme", "su2", "routing: ecmp, suK, kspK, vlb")
	scale := fl.Int("scale", 4, "scale-down factor")
	paper := fl.Bool("paper", false, "full-scale §5.1 fabrics")
	window := fl.Float64("window", 0.005, "arrival window, seconds")
	util := fl.Float64("util", 0.3, "offered load fraction")
	seed := fl.Int64("seed", 1, "random seed")
	maxFlows := fl.Int("maxflows", 0, "expected flow cap (0 = derived from util)")
	trials := fl.Int("trials", 1, "independently seeded arrival windows pooled into one result")
	workers := fl.Int("workers", 0, "parallel trial workers (0 = one per CPU); results are identical at any value")
	_ = fl.Parse(args)

	fs, err := core.TrioFabrics(*paper, *scale, rand.New(rand.NewSource(*seed)))
	if err != nil {
		log.Fatal(err)
	}
	g, err := fs.Fabric(*fabric, *seed)
	if err != nil {
		log.Fatal(err)
	}
	combo, err := core.NewCombo(*fabric+" "+*scheme, g, *scheme)
	if err != nil {
		log.Fatal(err)
	}
	classes := workload.ThreeTier()
	cfg := core.DefaultFCTConfig()
	cfg.WindowSec = *window
	cfg.Util = *util
	cfg.Seed = *seed
	cfg.MaxFlows = *maxFlows
	cfg.Trials = *trials
	cfg.Workers = *workers
	cfg.JobClasses = classes
	rec := telemetry.NewRecorder(telemetry.Config{Classes: len(classes)})
	cfg.Telemetry = rec

	res, err := core.RunFCT(fs, combo, core.TMA2A, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %v: Poisson job-class mix, %d flows over %d trial(s)\n\n",
		combo.Scheme.Name(), g, res.Flows, *trials)
	fmt.Println(workload.ClassTable(res.Classes))
	fmt.Println("SLA attained counts incomplete flows as misses.")
	fmt.Println()
	fmt.Print(rec.Snapshot().Digest(5))
}

// cmdFCT runs an ad-hoc FCT experiment: any built-in workload, or an
// operator-supplied rack-level matrix CSV (see internal/trace), on any
// fabric × scheme combo.
func cmdFCT(args []string) {
	fl := flag.NewFlagSet("fct", flag.ExitOnError)
	fabric := fl.String("fabric", "dring", "fabric on the trio's equipment budget: leafspine, dring, rrg, xpander, debruijn or rng")
	scheme := fl.String("scheme", "su2", "routing: ecmp, suK, kspK, vlb")
	tmKind := fl.String("tm", "A2A", "workload kind (A2A, R2R, CS-skewed, FB-skewed, ...) or @file.csv for a matrix")
	scale := fl.Int("scale", 4, "scale-down factor")
	paper := fl.Bool("paper", false, "full-scale §5.1 fabrics")
	window := fl.Float64("window", 0.005, "arrival window, seconds")
	util := fl.Float64("util", 0.3, "offered load fraction")
	seed := fl.Int64("seed", 1, "random seed")
	maxFlows := fl.Int("maxflows", 0, "flow cap (0 = uncapped)")
	trials := fl.Int("trials", 1, "independently seeded arrival windows pooled into one result")
	workers := fl.Int("workers", 0, "parallel trial workers (0 = one per CPU); results are identical at any value")
	dctcp := fl.Bool("dctcp", false, "use DCTCP-style ECN transport instead of plain TCP")
	_ = fl.Parse(args)

	fs, err := core.TrioFabrics(*paper, *scale, rand.New(rand.NewSource(*seed)))
	if err != nil {
		log.Fatal(err)
	}
	g, err := fs.Fabric(*fabric, *seed)
	if err != nil {
		log.Fatal(err)
	}
	combo, err := core.NewCombo(*fabric+" "+*scheme, g, *scheme)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultFCTConfig()
	cfg.WindowSec = *window
	cfg.Util = *util
	cfg.Seed = *seed
	cfg.MaxFlows = *maxFlows
	cfg.Trials = *trials
	cfg.Workers = *workers
	if *dctcp {
		cfg.Net = cfg.Net.WithDCTCP()
	}

	var res core.FCTResult
	if strings.HasPrefix(*tmKind, "@") {
		f, err := os.Open(strings.TrimPrefix(*tmKind, "@"))
		if err != nil {
			log.Fatal(err)
		}
		m, err := trace.ReadMatrix(f, *tmKind)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		res, err = core.RunFCTMatrix(fs, combo, m, cfg)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		res, err = core.RunFCT(fs, combo, core.TMKind(*tmKind), cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%s on %v, workload %s: %d flows\n", combo.Scheme.Name(), g, *tmKind, res.Flows)
	fmt.Printf("median %.3f ms, p99 %.3f ms, mean %.3f ms, max %.3f ms (%d incomplete)\n",
		res.Stats.MedianMS, res.Stats.P99MS, res.Stats.MeanMS, res.Stats.MaxMS, res.Stats.Incomplete)
	fmt.Printf("sim: %+v\n", res.SimStats)
}

// cmdBurst runs the §3 microburst drain experiment across the trio.
func cmdBurst(args []string) {
	fl := flag.NewFlagSet("burst", flag.ExitOnError)
	scale := fl.Int("scale", 4, "scale-down factor")
	paper := fl.Bool("paper", false, "full-scale §5.1 fabrics")
	mb := fl.Int64("mb", 32, "burst volume, MiB")
	fanout := fl.Int("fanout", 6, "destination racks")
	fpd := fl.Int("flows-per-dest", 6, "parallel flows per destination rack (the §3 claim needs moderate multiplexing: enough flows to balance links, few enough that TCP can open its window)")
	dctcp := fl.Bool("dctcp", false, "DCTCP-style ECN transport (keeps queues controlled so the fabric, not loss recovery, is the bottleneck)")
	seed := fl.Int64("seed", 1, "random seed")
	_ = fl.Parse(args)

	fs, err := core.TrioFabrics(*paper, *scale, rand.New(rand.NewSource(*seed)))
	if err != nil {
		log.Fatal(err)
	}
	spec := workload.DefaultBurst()
	spec.BurstBytes = *mb << 20
	spec.Fanout = *fanout
	spec.FlowsPerDest = *fpd
	net := netsim.DefaultConfig()
	if *dctcp {
		net = net.WithDCTCP()
	}

	fmt.Printf("microburst: %d MiB from one rack to %d racks (§3)\n\n", *mb, *fanout)
	var t metrics.Table
	t.AddRow("combo", "drain (ms)", "burst p99 (ms)", "drops")
	for _, c := range []struct {
		label  string
		g      *topology.Graph
		scheme string
	}{
		{"leaf-spine (ecmp)", fs.LeafSpine, "ecmp"},
		{"RRG (su2)", fs.RRG, "su2"},
		{"DRing (su2)", fs.DRing, "su2"},
	} {
		combo, err := core.NewCombo(c.label, c.g, c.scheme)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.RunBurst(combo, spec, net, *seed)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(c.label,
			fmt.Sprintf("%.2f", res.DrainMS),
			fmt.Sprintf("%.2f", res.BurstP99MS),
			fmt.Sprintf("%d", res.Stats.Drops))
	}
	fmt.Println(t.String())
	fmt.Println("flat ToRs evacuate the burst over all their network links (§3).")
}

// cmdCabling compares physical wiring and lifecycle complexity across the
// equipment-matched trio — the §1 deployment concern (wiring complexity
// blocked expander adoption) made measurable.
func cmdCabling(args []string) {
	fl := flag.NewFlagSet("cabling", flag.ExitOnError)
	paper := fl.Bool("paper", false, "full-scale §5.1 fabrics")
	scale := fl.Int("scale", 2, "scale-down factor")
	seed := fl.Int64("seed", 1, "random seed")
	_ = fl.Parse(args)

	fs, err := core.TrioFabrics(*paper, *scale, rand.New(rand.NewSource(*seed)))
	if err != nil {
		log.Fatal(err)
	}
	group := fs.DRingSpec.Sizes[0]
	type row struct {
		g *topology.Graph
		p topology.Placement
	}
	rows := []row{
		{fs.LeafSpine, topology.LeafSpinePlacement(fs.LeafSpineSpec)},
		{fs.RRG, topology.RowPlacement(fs.RRG)},
		{fs.DRing, topology.RowPlacement(fs.DRing)},
	}
	var t metrics.Table
	t.AddRow("fabric", "links", "mean len", "max len", "long-haul", "trunks", "max trunk", "roles")
	for _, r := range rows {
		rep, err := topology.Cabling(r.g, r.p)
		if err != nil {
			log.Fatal(err)
		}
		trunks, maxTrunk, err := topology.GroupedBundles(r.g, r.p, group)
		if err != nil {
			log.Fatal(err)
		}
		life := topology.Lifecycle(r.g)
		t.AddRow(r.g.Name,
			fmt.Sprintf("%d", rep.Links),
			fmt.Sprintf("%.2f", rep.MeanLength),
			fmt.Sprintf("%d", rep.MaxLength),
			fmt.Sprintf("%d", rep.LongHaul),
			fmt.Sprintf("%d", trunks),
			fmt.Sprintf("%d", maxTrunk),
			fmt.Sprintf("%d", life.SwitchRoles),
		)
	}
	fmt.Printf("rack-row layout, trunking at supernode width %d (§1 wiring complexity)\n\n", group)
	fmt.Println(t.String())
	if life, err := topology.LifecycleDRing(fs.DRingSpec); err == nil {
		fmt.Printf("DRing expansion touches %d pre-existing switches per added supernode (seam-local).\n", life.ExpansionUnit)
	}
}

func cmdTopo(args []string) {
	fl := flag.NewFlagSet("topo", flag.ExitOnError)
	paper := fl.Bool("paper", false, "full-scale §5.1 fabrics")
	scale := fl.Int("scale", 4, "scale-down factor")
	seed := fl.Int64("seed", 1, "random seed")
	trials := fl.Int("bisection-trials", 4, "random bisection samples (0 = skip)")
	dot := fl.String("dot", "", "also write Graphviz DOT files for the trio into this directory")
	_ = fl.Parse(args)

	rng := rand.New(rand.NewSource(*seed))
	fs, err := core.TrioFabrics(*paper, *scale, rng)
	if err != nil {
		log.Fatal(err)
	}
	var t metrics.Table
	t.AddRow("fabric", "switches", "racks", "servers", "links", "diameter", "mean path", "NSR", "bisection(est)")
	for _, g := range []*topology.Graph{fs.LeafSpine, fs.RRG, fs.DRing} {
		st, err := topology.RackPathStats(g)
		if err != nil {
			log.Fatal(err)
		}
		nsr, err := topology.NSR(g)
		if err != nil {
			log.Fatal(err)
		}
		bis := "-"
		if *trials > 0 {
			bis = fmt.Sprintf("%d", topology.BisectionEstimate(g, *trials, rng))
		}
		t.AddRow(g.Name,
			fmt.Sprintf("%d", g.N()),
			fmt.Sprintf("%d", len(g.Racks())),
			fmt.Sprintf("%d", g.Servers()),
			fmt.Sprintf("%d", g.Links()),
			fmt.Sprintf("%d", st.Diameter),
			fmt.Sprintf("%.3f", st.Mean),
			fmt.Sprintf("%.3f", nsr.Mean),
			bis,
		)
	}
	fmt.Println(t.String())
	if *dot != "" {
		if err := os.MkdirAll(*dot, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, g := range []*topology.Graph{fs.LeafSpine, fs.RRG, fs.DRing} {
			f, err := os.Create(filepath.Join(*dot, sanitizeName(g.Name)+".dot"))
			if err != nil {
				log.Fatal(err)
			}
			if err := topology.WriteDOT(f, g); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}
		fmt.Printf("wrote DOT files to %s\n", *dot)
	}
}

func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func cmdUDF(args []string) {
	fl := flag.NewFlagSet("udf", flag.ExitOnError)
	x := fl.Int("x", 48, "servers per leaf")
	y := fl.Int("y", 16, "spines")
	seed := fl.Int64("seed", 1, "random seed")
	_ = fl.Parse(args)

	specs := []topology.LeafSpineSpec{
		{X: *x, Y: *y},
		{X: *x / 2, Y: *y / 2},
		{X: *x, Y: *y / 2},
		{X: *x / 2, Y: *y},
	}
	var valid []topology.LeafSpineSpec
	for _, s := range specs {
		if s.Validate() == nil {
			valid = append(valid, s)
		}
	}
	rows, err := core.UDFStudy(valid, rand.New(rand.NewSource(*seed)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("§3.1: UDF(leaf-spine) = 2 for every (x, y); flat rewirings measured below.")
	fmt.Println(core.UDFTable(rows))
}

func cmdPaths(args []string) {
	fl := flag.NewFlagSet("paths", flag.ExitOnError)
	m := fl.Int("supernodes", 6, "dring supernodes")
	n := fl.Int("tors", 2, "dring ToRs per supernode")
	ports := fl.Int("ports", 24, "switch radix")
	scheme := fl.String("scheme", "su2", "routing scheme: ecmp, suK, kspK, vlb")
	src := fl.Int("src", 0, "source ToR")
	dst := fl.Int("dst", 1, "destination ToR")
	maxN := fl.Int("max", 20, "max paths to print")
	_ = fl.Parse(args)

	g, err := topology.DRing(topology.Uniform(*m, *n, *ports))
	if err != nil {
		log.Fatal(err)
	}
	combo, err := core.NewCombo("cli", g, *scheme)
	if err != nil {
		log.Fatal(err)
	}
	paths := combo.Scheme.PathSet(*src, *dst, *maxN)
	fmt.Printf("%s on %v: %d admissible path(s) %d→%d (showing ≤%d)\n",
		combo.Scheme.Name(), g, len(paths), *src, *dst, *maxN)
	for _, p := range paths {
		fmt.Printf("  %v (%d hops)\n", p, routing.PathLen(p))
	}
	disjoint := routing.GreedyDisjoint(paths)
	fmt.Printf("link-disjoint subset: %d (§4 claims ≥ n+1 = %d for DRing + SU(2))\n",
		len(disjoint), *n+1)
}
