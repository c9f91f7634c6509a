package bakeoff

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// tinyConfig is the paper-scale geometry with a workload small enough for
// unit tests: the fabric construction is the real thing, the simulations
// are capped.
func tinyConfig() Config {
	cfg := Scaled(1)
	cfg.Util = 0.2
	cfg.WindowSec = 0.002
	cfg.MaxFlows = 120
	cfg.MaxPairs = 32
	cfg.LiveFlows = 80
	return cfg
}

// TestRunWorkerInvariance is the subsystem's core contract: the scorecard —
// every float, the ranking, the spec hash — is byte-identical at every
// worker count.
func TestRunWorkerInvariance(t *testing.T) {
	cfg := tinyConfig()
	cfg.Topos = []string{"dring", "debruijn", "rng"}

	cfg.Workers = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	four, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.CheckComplete(); err != nil {
		t.Fatal(err)
	}
	if got, want := four.Table(), one.Table(); got != want {
		t.Fatalf("scorecard differs between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", want, got)
	}
	if four.CSV() != one.CSV() {
		t.Fatalf("CSV differs between 1 and 4 workers")
	}
	if four.SpecHash != one.SpecHash {
		t.Fatalf("spec hash differs between 1 and 4 workers: %s vs %s", one.SpecHash, four.SpecHash)
	}
	if len(one.Cells) != 5 { // dring, debruijn×2 schemes, rng×2 schemes
		t.Fatalf("want 5 cells, got %d", len(one.Cells))
	}
	if len(one.Winners) != len(scoredMetrics) {
		t.Fatalf("want %d winners, got %d", len(scoredMetrics), len(one.Winners))
	}
	if one.SpecHash == "" {
		t.Fatal("empty spec hash")
	}
}

// TestRunCacheRoundTrip pins that a cached rerun reproduces the scorecard
// bytes (the store path decodes cells instead of recomputing them).
func TestRunCacheRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	cfg.Topos = []string{"dring"}
	cfg.StoreDir = t.TempDir()

	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "hit") {
			hits++
		}
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("second run never hit the cell cache")
	}
	if first.Table() != second.Table() || first.CSV() != second.CSV() {
		t.Fatal("cached rerun changed the scorecard")
	}
}

func TestConfigRejects(t *testing.T) {
	cfg := tinyConfig()
	cfg.Topos = []string{"mesh"}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), `"mesh"`) {
		t.Fatalf("unknown topology: got %v", err)
	}

	cfg = tinyConfig()
	cfg.Switches = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero switches accepted")
	}

	// A scheme the fabric cannot support fails with the routing layer's
	// error, not a panic or a silent skip.
	cfg = tinyConfig()
	cfg.Topos = []string{"rrg"}
	cfg.Schemes = []string{"selfroute"}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "not a De Bruijn fabric") {
		t.Fatalf("selfroute on rrg: got %v", err)
	}
}

// TestScoreRanking pins the rank-based composite on synthetic cells:
// per-metric ranks average into Score, ties resolve by the canonical
// (topology, scheme) order, winners follow the fixed metric order.
func TestScoreRanking(t *testing.T) {
	mk := func(topo, scheme string, udf, med, p99, sla, tput, bh float64) Cell {
		return Cell{
			Topo: topo, Scheme: scheme, Flows: 1,
			UDF: udf, MedianMS: med, P99MS: p99,
			SLAMin: sla, TputNorm: tput, BlackholeMS: bh,
		}
	}
	sc := &Scorecard{Cells: []Cell{
		// good wins everything; tied and tied2 are equal on every metric,
		// so canonical order (rng before its lexicographically later
		// scheme) must break the tie deterministically.
		mk("rng", "su2", 1, 2, 2, 0.5, 0.5, 2),
		mk("rng", "spvlb", 1, 2, 2, 0.5, 0.5, 2),
		mk("dring", "su2", 2, 1, 1, 1.0, 1.0, 1),
	}}
	sc.score()

	if sc.Cells[0].Topo != "dring" || sc.Cells[0].Rank != 1 {
		t.Fatalf("winner = %s/%s rank %d, want dring/su2 rank 1",
			sc.Cells[0].Topo, sc.Cells[0].Scheme, sc.Cells[0].Rank)
	}
	if sc.Cells[0].Score != 1 {
		t.Fatalf("winner score = %v, want 1 (best on every metric)", sc.Cells[0].Score)
	}
	// The tied pair keeps canonical scheme order: spvlb < su2.
	if sc.Cells[1].Scheme != "spvlb" || sc.Cells[2].Scheme != "su2" {
		t.Fatalf("tie-break order: got %s then %s, want spvlb then su2",
			sc.Cells[1].Scheme, sc.Cells[2].Scheme)
	}
	for i, m := range scoredMetrics {
		if sc.Winners[i].Metric != m.name {
			t.Fatalf("winner %d = %s, want %s", i, sc.Winners[i].Metric, m.name)
		}
		if sc.Winners[i].Topo != "dring" {
			t.Fatalf("metric %s winner = %s, want dring", m.name, sc.Winners[i].Topo)
		}
	}
	// Rank-sum check for the tied pair: rank 2 and 3 on every metric, but
	// which cell gets 2 is the canonical order, identically per metric —
	// spvlb ranks 2 everywhere, su2 ranks 3 everywhere.
	if sc.Cells[1].Score != 2 || sc.Cells[2].Score != 3 {
		t.Fatalf("tied scores = %v, %v; want 2, 3", sc.Cells[1].Score, sc.Cells[2].Score)
	}
}

func TestServerPairsNeverSelfPair(t *testing.T) {
	pairs := serverPairs(9, 5, rand.New(rand.NewSource(7)))
	if len(pairs) != 5 {
		t.Fatalf("want 5 pairs, got %d", len(pairs))
	}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatalf("self pair %v", p)
		}
	}
	uncapped := serverPairs(9, 0, rand.New(rand.NewSource(7)))
	if len(uncapped) != 9 {
		t.Fatalf("want one pair per server, got %d", len(uncapped))
	}
}
