// Package bakeoff runs the flat-topology bake-off: every candidate fabric
// built on one equipment budget — the paper's DRing, its equipment-matched
// RRG, an Xpander, a De Bruijn fabric and an AWS-style random neighbor
// graph — measured under the same workloads and faults and ranked into a
// scorecard. Per cell (fabric × routing scheme) it reports:
//
//   - UDF — the §3.1 uplink-to-downlink factor of the fabric's mean NSR
//     against the paper's leaf-spine(48,16) baseline (analytic NSR = 1/3);
//   - FCT — median and p99 flow completion time under the three-tier
//     job-class mix on the packet simulator (Figure 4 methodology);
//   - SLA — per-class SLA attainment from the same classed run, scored on
//     the worst class;
//   - throughput — mean max-min fair rate of a seeded random permutation
//     of long flows, as a fraction of the NIC rate (§6.2 methodology);
//   - resilience — blackhole window and flow completion under the
//     live fault-injection schedule (SU(K) routing, like cmd/failures).
//
// Every number replays byte-identically from the seed at any worker
// count: netsim, flowsim and the topology metrics are deterministic, cells
// are independent and reseed from Seed, and the cells are cached through
// internal/store keyed by their full spec. The package is in spinelint's
// SimulatorScope, so wall-clock and global-rand use is rejected at lint
// time.
package bakeoff

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"spineless/internal/core"
	"spineless/internal/flowsim"
	"spineless/internal/parallel"
	"spineless/internal/resilience"
	"spineless/internal/store"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// specVersion is bumped whenever the cell computation changes meaning, so
// stale cached cells from older code are never reused.
const specVersion = 1

// AllTopologies is the canonical bake-off field, in scorecard order.
var AllTopologies = []string{"dring", "rrg", "xpander", "debruijn", "rng"}

// Config parameterizes one bake-off. The equipment budget is a DRing
// geometry (Switches ToRs of Ports ports in Supernodes supernodes); every
// other fabric is built on the same switch count, radix and server total,
// mirroring the paper's §5.1 equipment-matching rule.
type Config struct {
	// Switches, Supernodes and Ports set the equipment budget. Scaled(x)
	// gives the paper's §6.3 proportions at x times paper scale.
	Switches   int
	Supernodes int
	Ports      int

	// Topos is the fabric subset to race (nil = AllTopologies). Order is
	// ignored: cells always appear in canonical AllTopologies order.
	Topos []string
	// Schemes overrides the per-topology scheme list (nil = the fabric's
	// core.NativeScheme, then "su2" if that differs). A scheme a fabric
	// cannot support — e.g. selfroute on a non-De-Bruijn graph — fails the
	// run with the routing layer's error.
	Schemes []string

	// Util, WindowSec, MaxFlows and Trials parameterize the classed FCT
	// run exactly as in core.FCTConfig; offered load is scaled against
	// half the fabric's aggregate server bandwidth so every cell sees the
	// same per-server load regardless of its switch count.
	Util      float64
	WindowSec float64
	MaxFlows  int
	Trials    int

	// MaxPairs caps the long-flow count of the max-min throughput cell
	// (0 = one flow per server).
	MaxPairs int
	// LiveFlows is the flow count of the resilience cell (0 = the
	// resilience package default).
	LiveFlows int

	// Seed drives all sampling: fabric construction, workloads, faults.
	Seed int64
	// Workers bounds cell-level parallelism (0 = one per CPU). A pure
	// throughput knob — cells are independent and reseed from Seed.
	Workers int
	// Audit runs every packet simulation under the runtime invariant
	// auditor; violations fail the run.
	Audit bool

	// StoreDir, when non-empty, caches finished cells content-addressed by
	// their spec hash; repeated runs reuse them. Logf, when non-nil,
	// receives cache hit/miss lines.
	StoreDir string
	Logf     func(format string, args ...any)
}

// Scaled returns the bake-off configuration at x times paper scale: the
// §6.3 DRing proportions (80 ToRs in 12 supernodes at x=1) on 64-port
// switches, the paper's 30% offered load over a 4 ms window capped at
// 5000 flows, and one throughput flow per server up to 512.
func Scaled(x int) Config {
	return Config{
		Switches:   80 * x,
		Supernodes: 12 * x,
		Ports:      64,
		Util:       0.30,
		WindowSec:  0.004,
		MaxFlows:   5000,
		MaxPairs:   512,
		Seed:       1,
	}
}

// Validate rejects inconsistent configurations with layer-tagged errors.
func (c Config) Validate() error {
	if c.Switches <= 0 || c.Supernodes <= 0 || c.Ports <= 0 {
		return fmt.Errorf("bakeoff: need positive switches/supernodes/ports, have %d/%d/%d",
			c.Switches, c.Supernodes, c.Ports)
	}
	for _, topo := range c.Topos {
		if !slices.Contains(AllTopologies, topo) {
			return fmt.Errorf("bakeoff: unknown topology %q (want %s)", topo, strings.Join(AllTopologies, ", "))
		}
	}
	if c.Util <= 0 || c.WindowSec <= 0 {
		return fmt.Errorf("bakeoff: need positive util and window, have %g/%g", c.Util, c.WindowSec)
	}
	return nil
}

// topos resolves the requested subset into canonical order, deduplicated.
func (c Config) topos() []string {
	if len(c.Topos) == 0 {
		return AllTopologies
	}
	var out []string
	for _, t := range AllTopologies {
		for _, want := range c.Topos {
			if want == t {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

func (c Config) schemesFor(topo string) []string {
	if len(c.Schemes) > 0 {
		return c.Schemes
	}
	// Every fabric runs the paper's SU(2); De Bruijn and RNG also run their
	// native scheme, listed first.
	if native := core.NativeScheme(topo); native != "su2" {
		return []string{native, "su2"}
	}
	return []string{"su2"}
}

// Cell is one scored (topology, scheme) row of the scorecard.
type Cell struct {
	Topo   string `json:"topo"`
	Scheme string `json:"scheme"`

	Switches int `json:"switches"`
	Servers  int `json:"servers"`
	Degree   int `json:"degree"` // max network degree

	UDF float64 `json:"udf"`

	Flows    int                 `json:"flows"`
	MedianMS float64             `json:"median_ms"`
	P99MS    float64             `json:"p99_ms"`
	Classes  []workload.ClassFCT `json:"classes"`
	SLAMin   float64             `json:"sla_min"`

	TputNorm float64 `json:"tput_norm"`

	BlackholeMS    float64 `json:"blackhole_ms"`
	LiveCompleted  int     `json:"live_completed"`
	LiveIncomplete int     `json:"live_incomplete"`

	// Score is the mean across scored metrics of this cell's rank (1 =
	// best); Rank orders cells by Score. Both are assigned by the
	// scorecard assembly, never cached.
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
}

// cellSpec is the cache key of one cell: everything result-affecting and
// nothing else (worker counts never change bytes).
type cellSpec struct {
	V          int     `json:"v"`
	Switches   int     `json:"switches"`
	Supernodes int     `json:"supernodes"`
	Ports      int     `json:"ports"`
	Topo       string  `json:"topo"`
	Scheme     string  `json:"scheme"`
	Util       float64 `json:"util"`
	WindowSec  float64 `json:"window_sec"`
	MaxFlows   int     `json:"max_flows"`
	Trials     int     `json:"trials"`
	MaxPairs   int     `json:"max_pairs"`
	LiveFlows  int     `json:"live_flows"`
	Seed       int64   `json:"seed"`
}

func (c Config) cellSpec(topo, scheme string) cellSpec {
	return cellSpec{
		V: specVersion, Switches: c.Switches, Supernodes: c.Supernodes,
		Ports: c.Ports, Topo: topo, Scheme: scheme, Util: c.Util,
		WindowSec: c.WindowSec, MaxFlows: c.MaxFlows, Trials: c.Trials,
		MaxPairs: c.MaxPairs, LiveFlows: c.LiveFlows, Seed: c.Seed,
	}
}

// SpecHash is the reproducibility stamp printed on the scorecard: the
// content hash of the full resolved matrix spec. Two runs with equal
// hashes produce byte-identical scorecards.
func (c Config) SpecHash() (string, error) {
	type matrixSpec struct {
		Cells []cellSpec `json:"cells"`
	}
	var m matrixSpec
	for _, topo := range c.topos() {
		for _, scheme := range c.schemesFor(topo) {
			m.Cells = append(m.Cells, c.cellSpec(topo, scheme))
		}
	}
	return store.Key(m)
}

// buildFabric constructs one bake-off fabric on the config's equipment
// budget: the DRing geometry is the reference, and core.OnDRing matches
// every other topology to it.
func buildFabric(cfg Config, topo string) (*topology.Graph, error) {
	dspec := topology.BalancedDRing(cfg.Switches, cfg.Supernodes, cfg.Ports)
	if err := dspec.Validate(); err != nil {
		return nil, fmt.Errorf("bakeoff: dring budget: %w", err)
	}
	dr, err := topology.DRing(dspec)
	if err != nil {
		return nil, fmt.Errorf("bakeoff: dring: %w", err)
	}
	g, err := core.OnDRing(topo, dr, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("bakeoff: %s: %w", topo, err)
	}
	return g, nil
}

// udfOf scores the fabric's mean NSR against the paper's leaf-spine(48,16)
// analytic baseline (§3.1): UDF 2 means twice the per-server network
// capacity of the reference leaf-spine.
func udfOf(g *topology.Graph) (float64, error) {
	nsr, err := topology.NSR(g)
	if err != nil {
		return 0, err
	}
	base, _, _ := topology.UDFLeafSpineAnalytic(topology.PaperLeafSpine)
	return nsr.Mean / base, nil
}

// serverPairs pairs servers along a seeded random permutation ring, so
// src != dst always and every server sources at most one flow.
func serverPairs(servers, maxPairs int, rng *rand.Rand) [][2]int {
	perm := rng.Perm(servers)
	n := servers
	if maxPairs > 0 && maxPairs < n {
		n = maxPairs
	}
	pairs := make([][2]int, n)
	for i := 0; i < n; i++ {
		pairs[i] = [2]int{perm[i], perm[(i+1)%servers]}
	}
	return pairs
}

// measureCell computes one cell's numbers on an already-built fabric.
func measureCell(cfg Config, topo, scheme string, g *topology.Graph) (Cell, error) {
	cell := Cell{
		Topo: topo, Scheme: scheme,
		Switches: g.N(), Servers: g.Servers(),
	}
	for v := 0; v < g.N(); v++ {
		if d := g.NetworkDegree(v); d > cell.Degree {
			cell.Degree = d
		}
	}

	udf, err := udfOf(g)
	if err != nil {
		return Cell{}, fmt.Errorf("bakeoff: %s udf: %w", topo, err)
	}
	cell.UDF = udf

	combo, err := core.NewCombo(topo+"/"+scheme, g, scheme)
	if err != nil {
		return Cell{}, fmt.Errorf("bakeoff: %s: %w", topo, err)
	}

	// One classed packet-simulator run yields both the FCT distribution
	// and the per-class SLA attainment. The capacity reference is half the
	// fabric's aggregate server bandwidth (the Figure 6 rule), so cells
	// with different switch counts see the same per-server offered load.
	fct := core.DefaultFCTConfig()
	fct.Util = cfg.Util
	fct.WindowSec = cfg.WindowSec
	fct.Seed = cfg.Seed
	fct.MaxFlows = cfg.MaxFlows
	fct.Trials = cfg.Trials
	fct.Audit = cfg.Audit
	fct.JobClasses = workload.ThreeTier()
	fct.CapacityBps = float64(g.Servers()) * fct.Net.LinkRateBps / 2
	res, err := core.RunFCT(nil, combo, core.TMA2A, fct)
	if err != nil {
		return Cell{}, fmt.Errorf("bakeoff: %s/%s fct: %w", topo, scheme, err)
	}
	cell.Flows = res.Flows
	cell.MedianMS = res.Stats.MedianMS
	cell.P99MS = res.Stats.P99MS
	cell.Classes = res.Classes
	cell.SLAMin = math.Inf(1)
	for _, cl := range res.Classes {
		cell.SLAMin = math.Min(cell.SLAMin, cl.SLAAttained)
	}

	// Max-min fair throughput of long flows over a seeded random
	// permutation of servers (§6.2 methodology), normalized to the NIC
	// rate so 1.0 means every flow runs at line rate.
	fcfg := flowsim.DefaultConfig()
	pairs := serverPairs(g.Servers(), cfg.MaxPairs, rand.New(rand.NewSource(cfg.Seed)))
	_, agg, err := flowsim.Throughput(g, combo.Scheme, pairs, fcfg)
	if err != nil {
		return Cell{}, fmt.Errorf("bakeoff: %s/%s throughput: %w", topo, scheme, err)
	}
	cell.TputNorm = agg / (float64(len(pairs)) * fcfg.LinkRateBps)

	// Live fault injection with the resilience defaults. Reroutes come
	// from SU(K) path diversity inside the resilience package for every
	// fabric — self-routing has no reroute story, so the resilience score
	// is a property of the topology, shared by its schemes.
	lc := resilience.DefaultLiveConfig()
	lc.Seed = cfg.Seed
	lc.Audit = cfg.Audit
	if cfg.LiveFlows > 0 {
		lc.Flows = cfg.LiveFlows
	}
	live, err := resilience.RunLive(g, lc)
	if err != nil {
		return Cell{}, fmt.Errorf("bakeoff: %s resilience: %w", topo, err)
	}
	cell.BlackholeMS = float64(live.MeasuredBlackholeNS) / 1e6
	cell.LiveCompleted = live.Completed
	cell.LiveIncomplete = live.Incomplete

	return cell, nil
}

// Run executes the bake-off matrix and returns the ranked scorecard.
// Cells run in parallel across cfg.Workers and are cached one at a time
// through cfg.StoreDir; results are byte-identical at any worker count.
func Run(cfg Config) (*Scorecard, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cache, err := store.OpenCache(cfg.StoreDir, "bakeoff", cfg.Logf)
	if err != nil {
		return nil, err
	}
	defer cache.Close()

	type cellKey struct{ topo, scheme string }
	var keys []cellKey
	fabrics := make(map[string]*topology.Graph)
	for _, topo := range cfg.topos() {
		g, err := buildFabric(cfg, topo)
		if err != nil {
			return nil, err
		}
		fabrics[topo] = g
		for _, scheme := range cfg.schemesFor(topo) {
			keys = append(keys, cellKey{topo, scheme})
		}
	}

	cells := make([]Cell, len(keys))
	err = parallel.ForEach(cfg.Workers, len(keys), func(i int) error {
		k := keys[i]
		label := k.topo + "/" + k.scheme
		cell, _, err := store.Memoize(cache, label, cfg.cellSpec(k.topo, k.scheme), func() (Cell, error) {
			return measureCell(cfg, k.topo, k.scheme, fabrics[k.topo])
		})
		if err != nil {
			return err
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}

	hash, err := cfg.SpecHash()
	if err != nil {
		return nil, err
	}
	sc := &Scorecard{
		SpecHash:   hash,
		Switches:   cfg.Switches,
		Supernodes: cfg.Supernodes,
		Ports:      cfg.Ports,
		Cells:      cells,
	}
	sc.score()
	return sc, nil
}

// sortCanonical orders cells topology-first in AllTopologies order, then
// by scheme name — the total order used for every tie-break.
func sortCanonical(cells []Cell) {
	topoIdx := func(name string) int {
		for i, t := range AllTopologies {
			if t == name {
				return i
			}
		}
		return len(AllTopologies)
	}
	sort.SliceStable(cells, func(i, j int) bool {
		if a, b := topoIdx(cells[i].Topo), topoIdx(cells[j].Topo); a != b {
			return a < b
		}
		return cells[i].Scheme < cells[j].Scheme
	})
}
