// Command bakeoff races the flat-topology field — DRing, RRG, Xpander,
// De Bruijn and the AWS-style random neighbor graph — on one equipment
// budget and prints the ranked scorecard: UDF, median/p99 FCT, per-class
// SLA attainment, max-min throughput and live fault resilience per
// (fabric, routing scheme) cell, with per-metric winners and a spec hash
// that reproduces every byte.
//
// The default -scalex 2 runs at twice the paper's §6.3 scale (160 ToRs).
// -smoke runs the whole matrix at paper scale with a tiny workload and
// verifies the subsystem's contracts: byte-identical scorecards on 1 and 4
// cell workers, no non-finite numbers, and an audited De Bruijn
// self-routing run — the gate wired into `make check` and CI.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"spineless/internal/bakeoff"
	"spineless/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bakeoff: ")
	var (
		scalex    = flag.Int("scalex", 2, "scale multiplier on the paper's §6.3 geometry (80 ToRs, 12 supernodes per unit)")
		ports     = flag.Int("ports", 64, "switch radix")
		topos     = flag.String("topos", "", "comma-separated fabric subset (default: all of dring,rrg,xpander,debruijn,rng)")
		schemes   = flag.String("schemes", "", "comma-separated routing schemes for every fabric (default: su2 everywhere plus each fabric's native scheme)")
		util      = flag.Float64("util", 0.30, "offered load as a fraction of half the aggregate server bandwidth")
		window    = flag.Float64("window", 0.004, "flow arrival window, seconds")
		maxflows  = flag.Int("maxflows", 5000, "cap on FCT flows per cell (0 = uncapped)")
		trials    = flag.Int("trials", 0, "independently seeded FCT arrival windows pooled per cell (0 or 1 = single window)")
		maxpairs  = flag.Int("maxpairs", 512, "cap on long flows in the throughput cell (0 = one per server)")
		liveflows = flag.Int("liveflows", 0, "flows in the resilience cell (0 = resilience default)")
		csvOut    = flag.String("csv", "", "write the scorecard CSV to this file")
		smoke     = flag.Bool("smoke", false, "run the CI smoke gate (tiny matrix; verifies worker-count invariance, completeness and an audited self-routing run) and exit")
		shared    = cli.Register(flag.CommandLine, "seed", "workers", "audit", "store", "cpuprofile", "memprofile")
	)
	flag.Parse()

	// bakeoff.Run opens the cell cache itself (library callers set StoreDir
	// too), so the directory is handed to it and Start holds no second
	// handle on it.
	storeDir := shared.Store
	shared.Store = ""
	run, err := shared.Start("bakeoff")
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()

	if *smoke {
		runSmoke()
		return
	}

	cfg := bakeoff.Scaled(*scalex)
	cfg.Ports = *ports
	cfg.Topos = splitList(*topos)
	cfg.Schemes = splitList(*schemes)
	cfg.Util = *util
	cfg.WindowSec = *window
	cfg.MaxFlows = *maxflows
	cfg.Trials = *trials
	cfg.MaxPairs = *maxpairs
	cfg.LiveFlows = *liveflows
	cfg.Seed = shared.Seed
	cfg.Workers = shared.Workers
	cfg.Audit = shared.Audit
	cfg.StoreDir = storeDir
	cfg.Logf = log.Printf

	start := time.Now()
	sc, err := bakeoff.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d cells done in %v", len(sc.Cells), time.Since(start).Round(time.Millisecond))
	fmt.Print(sc.Table())
	if err := sc.CheckComplete(); err != nil {
		log.Fatal(err)
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, []byte(sc.CSV()), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *csvOut)
	}
}

// runSmoke is the CI gate: the full five-fabric matrix at paper scale with
// a tiny workload, checked for worker-count invariance and completeness,
// plus an audited De Bruijn self-routing cell.
func runSmoke() {
	cfg := bakeoff.Scaled(1)
	cfg.Util = 0.2
	cfg.WindowSec = 0.002
	cfg.MaxFlows = 200
	cfg.MaxPairs = 64
	cfg.LiveFlows = 120

	start := time.Now()
	cfg.Workers = 1
	one, err := bakeoff.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Workers = 4
	four, err := bakeoff.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if one.Table() != four.Table() || one.CSV() != four.CSV() {
		log.Fatal("smoke: scorecard differs between -workers 1 and -workers 4")
	}
	if err := one.CheckComplete(); err != nil {
		log.Fatalf("smoke: %v", err)
	}
	if len(one.Cells) != 7 {
		log.Fatalf("smoke: want 7 cells (5 fabrics + 2 native schemes), got %d", len(one.Cells))
	}

	// De Bruijn self-routing under the runtime invariant auditor:
	// shift-register routing with no FIB must be audit-clean.
	cfg.Audit = true
	cfg.Topos = []string{"debruijn"}
	cfg.Schemes = []string{"selfroute"}
	if _, err := bakeoff.Run(cfg); err != nil {
		log.Fatalf("smoke: audited self-routing run: %v", err)
	}

	fmt.Print(one.Table())
	fmt.Printf("smoke OK: %d cells byte-identical across worker counts, audited self-routing clean (%v)\n",
		len(one.Cells), time.Since(start).Round(time.Millisecond))
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
