package core

import (
	"fmt"
	"math/rand"

	"spineless/internal/flowsim"
	"spineless/internal/metrics"
	"spineless/internal/parallel"
	"spineless/internal/routing"
	"spineless/internal/workload"
)

// ThroughputConfig parameterizes a Figure 5-style C-S throughput study.
type ThroughputConfig struct {
	// FlowsPerHost controls sampling density: the number of long-running
	// flows is FlowsPerHost × max(C, S).
	FlowsPerHost int
	Link         flowsim.Config
	Seed         int64
	// Workers bounds cell-level parallelism in CSRatioHeatmap (0 = one per
	// CPU). Every cell reseeds independently from Seed, so the heatmap is
	// bit-identical at any worker count.
	Workers int
}

// DefaultThroughputConfig uses 10 Gbps links and 2 flows per host.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{FlowsPerHost: 2, Link: flowsim.DefaultConfig(), Seed: 1}
}

// CSThroughput measures aggregate max-min throughput of a C-S pattern with
// C clients and S servers on one combo.
func CSThroughput(combo Combo, c, s int, cfg ThroughputConfig) (float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cs, err := workload.CSModel(combo.Fabric, c, s, rng)
	if err != nil {
		return 0, err
	}
	nf := cfg.FlowsPerHost * max(c, s)
	if nf < 1 {
		nf = 1
	}
	pairs := workload.CSPairs(cs, nf, rng)
	_, agg, err := flowsim.Throughput(combo.Fabric, combo.Scheme, pairs, cfg.Link)
	return agg, err
}

// CSRatioHeatmap fills one Figure 5 panel: for every (C, S) tick pair it
// computes throughput(numerator combo)/throughput(denominator combo) — the
// paper plots DRing/leaf-spine. Both sides see the same seeds, so the C-S
// packings are sampled identically.
//
// Cells are independent (each CSThroughput reseeds from cfg.Seed) and write
// disjoint heatmap slots, so they run in parallel across cfg.Workers with
// output identical to the serial double loop. Lazily-built scheme state is
// pre-warmed first so workers never contend on a cache mutex.
func CSRatioHeatmap(num, den Combo, clients, servers []int, cfg ThroughputConfig) (*metrics.Heatmap, error) {
	h := metrics.NewHeatmap(
		fmt.Sprintf("throughput(%s) / throughput(%s)", num.Label, den.Label),
		"#servers", "#clients", servers, clients)
	if parallel.Workers(cfg.Workers) > 1 {
		for _, combo := range []Combo{num, den} {
			if pw, ok := combo.Scheme.(routing.Prewarmer); ok {
				pw.Prewarm()
			}
		}
	}
	err := parallel.ForEach(cfg.Workers, len(clients)*len(servers), func(i int) error {
		yi, xi := i/len(servers), i%len(servers)
		c, s := clients[yi], servers[xi]
		a, err := CSThroughput(num, c, s, cfg)
		if err != nil {
			return fmt.Errorf("core: %s C=%d S=%d: %w", num.Label, c, s, err)
		}
		b, err := CSThroughput(den, c, s, cfg)
		if err != nil {
			return fmt.Errorf("core: %s C=%d S=%d: %w", den.Label, c, s, err)
		}
		h.Set(xi, yi, metrics.Ratio(a, b))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}
