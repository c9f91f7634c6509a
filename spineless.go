// Package spineless reproduces "Spineless Data Centers" (Harsh, Abdu
// Jyothi, Godfrey — HotNets '20): flat topologies for moderate-scale data
// centers (the DRing and Jellyfish-style RRG rewirings of leaf-spine
// equipment), the Shortest-Union(K) oblivious routing scheme and its
// BGP/VRF realization, and the packet- and flow-level simulators needed to
// regenerate every figure in the paper's evaluation.
//
// This root package is a facade over the implementation packages; it
// re-exports the types a downstream user needs so that
//
//	import "spineless"
//
// is enough for the common workflows:
//
//	rng := rand.New(rand.NewSource(1))
//	fs, _ := spineless.BuildFabrics(spineless.LeafSpineSpec{X: 12, Y: 4}, 0, rng)
//	combo, _ := spineless.NewCombo("DRing su2", fs.DRing, "su2")
//	res, _ := spineless.RunFCT(fs, combo, spineless.TMFBSkewed, spineless.DefaultFCTConfig())
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-versus-measured results.
package spineless

import (
	"math/rand"
	"time"

	"spineless/internal/audit"
	"spineless/internal/bakeoff"
	"spineless/internal/bgp"
	"spineless/internal/core"
	"spineless/internal/dynamic"
	"spineless/internal/flowsim"
	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/ospf"
	"spineless/internal/resilience"
	"spineless/internal/routing"
	"spineless/internal/telemetry"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// Topology construction (§3, §5.1).
type (
	// Graph is a switch-level fabric with servers attached to ToRs.
	Graph = topology.Graph
	// LeafSpineSpec describes a leaf-spine(x, y) network.
	LeafSpineSpec = topology.LeafSpineSpec
	// DRingSpec describes a DRing supergraph (§3.2).
	DRingSpec = topology.DRingSpec
)

// Routing (§4).
type (
	// Scheme selects switch-level paths between racks.
	Scheme = routing.Scheme
	// Fib is ECMP or Shortest-Union(K) forwarding state.
	Fib = routing.Fib
)

// Simulation substrates (§5.3).
type (
	// NetConfig parameterizes the packet-level TCP simulator.
	NetConfig = netsim.Config
	// FlowConfig parameterizes the max-min throughput model.
	FlowConfig = flowsim.Config
)

// Auditor checks simulator invariants through the simulator's tracer hooks
// (DESIGN.md §9).
type Auditor = audit.Auditor

// Telemetry (DESIGN.md §14).
type (
	// TelemetryConfig sizes a telemetry sink: bucket width, ring
	// retention, flow-class count.
	TelemetryConfig = telemetry.Config
	// TelemetryRecorder rolls Tracer events into a live fabric digital
	// twin; thread it through FCTConfig.Telemetry or attach it directly.
	TelemetryRecorder = telemetry.Recorder
)

// Workloads (§5.2).
type (
	// Matrix is a rack-level traffic matrix.
	Matrix = workload.Matrix
	// Flow is one host-to-host transfer.
	Flow = workload.Flow
	// CSSets is a C-S model instance.
	CSSets = workload.CSSets
)

// Experiments (§6).
type (
	// FabricSet is the §5.1 equipment-matched trio.
	FabricSet = core.FabricSet
	// Combo pairs a fabric with a routing scheme.
	Combo = core.Combo
	// TMKind names a Figure 4 workload.
	TMKind = core.TMKind
	// FCTConfig parameterizes Figure 4-style studies.
	FCTConfig = core.FCTConfig
	// FCTResult is one Figure 4 cell.
	FCTResult = core.FCTResult
	// FCTStats summarizes flow completion times.
	FCTStats = metrics.FCTStats
	// ScalePoint is one Figure 6 x-position.
	ScalePoint = core.ScalePoint
	// Heatmap is a Figure 5 panel.
	Heatmap = metrics.Heatmap
	// BGPNetwork is the §4 VRF/BGP session graph.
	BGPNetwork = bgp.Network
)

// Workload kind names (Figure 4, left to right).
const (
	TMA2A         = core.TMA2A
	TMR2R         = core.TMR2R
	TMCSSkewed    = core.TMCSSkewed
	TMFBSkewed    = core.TMFBSkewed
	TMFBUniform   = core.TMFBUniform
	TMFBSkewedRP  = core.TMFBSkewedRP
	TMFBUniformRP = core.TMFBUniformRP
)

// LeafSpine builds a leaf-spine fabric.
func LeafSpine(spec LeafSpineSpec) (*Graph, error) { return topology.LeafSpine(spec) }

// DRing builds a DRing fabric.
func DRing(spec DRingSpec) (*Graph, error) { return topology.DRing(spec) }

// UniformDRing returns a spec with m supernodes of n ToRs on `ports`-port
// switches.
func UniformDRing(m, n, ports int) DRingSpec { return topology.Uniform(m, n, ports) }

// Flatten builds the flat rewiring F(T) of a baseline fabric (§3.1).
func Flatten(base *Graph, rng *rand.Rand) (*Graph, error) { return topology.Flatten(base, rng) }

// NewECMP builds shortest-path ECMP forwarding state.
func NewECMP(g *Graph) *Fib { return routing.NewECMP(g) }

// NewShortestUnion builds Shortest-Union(K) forwarding state (§4).
func NewShortestUnion(g *Graph, k int) (*Fib, error) { return routing.NewShortestUnion(g, k) }

// UDF computes the Uplink-to-Downlink Factor of baseline vs flat (§3.1).
func UDF(baseline, flat *Graph) (float64, error) { return topology.UDF(baseline, flat) }

// BuildFabrics constructs the equipment-matched trio; supernodes <= 0
// auto-selects the server-count-matching ring size.
func BuildFabrics(spec LeafSpineSpec, supernodes int, rng *rand.Rand) (*FabricSet, error) {
	return core.BuildFabrics(spec, supernodes, rng)
}

// PaperFabrics builds the exact §5.1 trio at full scale.
func PaperFabrics(rng *rand.Rand) (*FabricSet, error) { return core.PaperFabrics(rng) }

// ScaledFabrics builds a proportionally scaled-down trio (factor divides 48
// and 16) for fast experimentation.
func ScaledFabrics(factor int, rng *rand.Rand) (*FabricSet, error) {
	return core.ScaledFabrics(factor, rng)
}

// NewCombo pairs a fabric with a scheme by name: "ecmp", "su2".."su9",
// "ksp1".."ksp9", or "vlb".
func NewCombo(label string, g *Graph, scheme string) (Combo, error) {
	return core.NewCombo(label, g, scheme)
}

// PaperCombos returns the five Figure 4 fabric × routing combinations.
func PaperCombos(fs *FabricSet) ([]Combo, error) { return core.PaperCombos(fs) }

// DefaultFCTConfig mirrors the paper's §5/§6 settings.
func DefaultFCTConfig() FCTConfig { return core.DefaultFCTConfig() }

// RunFCT runs one Figure 4 cell: a workload on a combo, measured in the
// packet-level simulator.
func RunFCT(fs *FabricSet, combo Combo, kind TMKind, cfg FCTConfig) (FCTResult, error) {
	return core.RunFCT(fs, combo, kind, cfg)
}

// CSThroughput measures aggregate max-min throughput of a C-S pattern.
func CSThroughput(combo Combo, c, s int, cfg core.ThroughputConfig) (float64, error) {
	return core.CSThroughput(combo, c, s, cfg)
}

// DefaultThroughputConfig returns the Figure 5 defaults.
func DefaultThroughputConfig() core.ThroughputConfig { return core.DefaultThroughputConfig() }

// CSRatioHeatmap fills one Figure 5 panel.
func CSRatioHeatmap(num, den Combo, clients, servers []int, cfg core.ThroughputConfig) (*Heatmap, error) {
	return core.CSRatioHeatmap(num, den, clients, servers, cfg)
}

// ScaleSweep runs the Figure 6 DRing-vs-RRG scale study.
func ScaleSweep(supernodeCounts []int, cfg core.ScaleConfig) ([]ScalePoint, error) {
	return core.ScaleSweep(supernodeCounts, cfg)
}

// DefaultScaleConfig returns the §6.3 sweep defaults.
func DefaultScaleConfig() core.ScaleConfig { return core.DefaultScaleConfig() }

// BuildBGP constructs the §4 VRF/BGP session graph for Shortest-Union(K).
func BuildBGP(g *Graph, k int) (*BGPNetwork, error) { return bgp.Build(g, k) }

// BGPRib is the converged routing state of a BGP network.
type BGPRib = bgp.Rib

// VerifyTheorem1 checks §4 Theorem 1 against a converged RIB.
func VerifyTheorem1(n *BGPNetwork, rib BGPRib) error { return bgp.VerifyTheorem1(n, rib) }

// CrossCheckBGPFib verifies the converged protocol next hops against the
// directly computed Shortest-Union(K) FIB (strict equality for K=2).
func CrossCheckBGPFib(n *BGPNetwork, rib BGPRib, fib *Fib, strict bool) error {
	return bgp.CrossCheckFib(n, rib, fib, strict)
}

// NewSimulator builds a packet-level TCP simulator over a fabric.
func NewSimulator(g *Graph, scheme Scheme, cfg NetConfig) (*netsim.Simulator, error) {
	return netsim.New(g, scheme, cfg)
}

// DefaultNetConfig returns the §5.3 packet-simulator defaults.
func DefaultNetConfig() NetConfig { return netsim.DefaultConfig() }

// AttachAuditor installs the runtime invariant auditor on a simulator
// before Run; Finish(results) reports every violation (DESIGN.md §9). A
// simulator has one tracer slot: attaching a telemetry recorder to the same
// simulator afterwards is an error, not a silent replacement.
func AttachAuditor(sim *netsim.Simulator, flows []Flow) (*Auditor, error) {
	return audit.Attach(sim, flows)
}

// NewTelemetryRecorder builds a telemetry recorder; zero-value cfg fields
// take the package defaults (100µs buckets, 512-bucket window, 1 class).
func NewTelemetryRecorder(cfg TelemetryConfig) *TelemetryRecorder {
	return telemetry.NewRecorder(cfg)
}

// SummarizeFCT converts per-flow nanosecond FCTs into statistics.
func SummarizeFCT(fctNS []int64) FCTStats { return metrics.SummarizeFCT(fctNS) }

// GenerateFlows draws flows from a rack-level matrix (§5.2).
func GenerateFlows(g *Graph, m *Matrix, cfg workload.GenConfig, rng *rand.Rand) ([]Flow, error) {
	return workload.GenerateFlows(g, m, cfg, rng)
}

// UniformTM returns the uniform/A2A matrix over n racks.
func UniformTM(n int) *Matrix { return workload.Uniform(n) }

// GenFlowConfig is a convenience constructor for flow generation with the
// paper's flow-size distribution: n flows arriving uniformly over a window.
func GenFlowConfig(n int, window time.Duration) workload.GenConfig {
	return workload.GenConfig{Flows: n, Sizes: workload.PaperFlowSizes(), WindowNS: int64(window)}
}

// ParetoSizes returns a Pareto flow-size distribution with the given mean,
// shape and cap (bytes); cap 0 defaults to 10000× the mean.
func ParetoSizes(meanBytes, alpha float64, capBytes int64) workload.SizeDist {
	return workload.Pareto{MeanBytes: meanBytes, Alpha: alpha, Cap: capBytes}
}

// --- §7 future-work extensions, built out ---

// FailureStudyConfig parameterizes the link-failure sweep.
type FailureStudyConfig = resilience.StudyConfig

// FailureStudyRow is one failure-fraction outcome.
type FailureStudyRow = resilience.StudyRow

// DefaultFailureStudyConfig sweeps 1%, 5%, 10% link failures under SU(2).
func DefaultFailureStudyConfig() FailureStudyConfig { return resilience.DefaultStudyConfig() }

// FailureStudy measures path dilation, diversity loss, BGP reconvergence
// and FCT degradation under random link failures (§7 "Impact of failures").
func FailureStudy(g *Graph, cfg FailureStudyConfig) ([]FailureStudyRow, error) {
	return resilience.Study(g, cfg)
}

// IdealThroughput computes the fluid-model maximum concurrent throughput of
// a rack-level matrix on a fabric (the §2 ideal-routing reference [13,22]).
// eps is the FPTAS accuracy (0 → 0.1).
func IdealThroughput(g *Graph, m *Matrix, eps float64) (float64, error) {
	return core.IdealThroughput(g, m, eps)
}

// PlanMigration orders the §5.1 rewiring (e.g. leaf-spine → flat) as single
// cable moves that never partition the fabric.
func PlanMigration(from, to *Graph) (topology.MigrationPlan, error) {
	return topology.PlanMigration(from, to)
}

// NewOSPF builds an OSPF domain — a link-state control plane over a fabric
// (§2's "OSPF with ECMP" baseline); call Flood to converge it.
func NewOSPF(g *Graph) *ospf.Domain { return ospf.New(g) }

// CSModel draws a §5.2 C-S instance: nClients hosts packed into the fewest
// racks, nServers hosts packed into the fewest remaining racks.
func CSModel(g *Graph, nClients, nServers int, rng *rand.Rand) (CSSets, error) {
	return workload.CSModel(g, nClients, nServers, rng)
}

// CSMatrix converts a C-S instance to a rack-level matrix on g.
func CSMatrix(g *Graph, cs CSSets) *Matrix { return workload.CSMatrix(g, cs) }

// DynamicSchedule is a time-slotted reconfigurable fabric (§7).
type DynamicSchedule = dynamic.Schedule

// StaticSchedule wraps a fixed fabric as a one-slot schedule.
func StaticSchedule(g *Graph) DynamicSchedule { return dynamic.Static{G: g} }

// NewRotatingDRing builds the §7 "reconfigure into another flat network"
// schedule; slots <= 0 selects full supernode-pair coverage.
func NewRotatingDRing(spec DRingSpec, slots int) (DynamicSchedule, error) {
	return dynamic.NewRotatingDRing(spec, slots)
}

// NewRotorMatchings builds a RotorNet-style rotating-matching schedule.
func NewRotorMatchings(tors, degree, serversPerTor, ports, slots int) (DynamicSchedule, error) {
	return dynamic.NewRotorMatchings(tors, degree, serversPerTor, ports, slots)
}

// DynamicAvgThroughput slot-averages max-min throughput over a schedule.
func DynamicAvgThroughput(s DynamicSchedule, pairs [][2]int, scheme string, cfg FlowConfig) (float64, []float64, error) {
	return dynamic.AvgThroughput(s, pairs, scheme, cfg)
}

// DynamicAvgPathLength slot-averages the mean rack-to-rack hop distance.
func DynamicAvgPathLength(s DynamicSchedule) (float64, error) {
	return dynamic.AvgPathLength(s)
}

// DefaultFlowConfig returns the 10 Gbps flow-level defaults.
func DefaultFlowConfig() FlowConfig { return flowsim.DefaultConfig() }

// RunBurst fires the §3 microburst at a combo and measures drain time.
func RunBurst(combo Combo, spec workload.BurstSpec, net NetConfig, seed int64) (core.BurstResult, error) {
	return core.RunBurst(combo, spec, net, seed)
}

// DefaultBurst is a 64 MB burst fanned out to 8 racks.
func DefaultBurst() workload.BurstSpec { return workload.DefaultBurst() }

// BakeoffScaled returns the flat-topology bake-off configuration at x times
// the paper's §6.3 scale: every candidate fabric on one equipment budget,
// measured and ranked (cmd/bakeoff).
func BakeoffScaled(x int) bakeoff.Config { return bakeoff.Scaled(x) }

// RunBakeoff executes the bake-off matrix and returns the ranked scorecard
// with per-metric winners and the spec hash that reproduces it;
// byte-identical at any worker count.
func RunBakeoff(cfg bakeoff.Config) (*bakeoff.Scorecard, error) { return bakeoff.Run(cfg) }
