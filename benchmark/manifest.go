package main

// This file is the single source of the benchmark's names: BENCHMARK.json at
// the repository root is `-manifest` output, and a test fails when the two
// drift apart.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 24

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// e2eInfo and layerInfo fix the exact key sets BENCHMARK.json requires (a
// per-layer metric has no bound key at all).
type e2eInfo struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerInfo struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var workloadInfos = []workloadInfo{
	{"fig4-packet", "Fig. 4 FCT cells on the paper-scale trio: netsim's event loop is over 80% of the round, so a packet-simulator change shows here and almost nowhere else."},
	{"fig5-flow", "Fig. 5 C-S heatmap rows: flowsim.MaxMin dominates and netsim does nothing, so it is the control for netsim changes; it reads built FIBs one Path per flow."},
	{"fabric-build", "Builds every fabric, FIB, path set and the BGP control plane from nothing each round: topology/routing/bgp as writers, where a faster-to-build FIB must not look up slower."},
	{"svc-mix", "spinelessd in process over loopback HTTP: cold fct jobs (store writes) beside Zipf-ordered cache hits (store reads); the only workload where serve, jobs and store do the work."},
}

// endToEnd is reported by every workload's untraced run. The bounds are the
// share of the parent's median by which a metric may worsen.
var endToEnd = []e2eInfo{
	{"round_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"allocs_per_round", "count", "lower", 0.02},
	{"alloc_mb_per_round", "MB", "lower", 0.12},
	{"rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by every workload's traced run; a layer a workload
// never enters reads 0 there, which is itself the prediction ("no change on
// this workload") made checkable.
var perLayer = []layerInfo{
	{Name: "topology.build_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.build_allocs", Unit: "count", Better: "lower"},
	{Name: "topology.links", Unit: "count", Better: "higher"},

	{Name: "routing.fib_build_ms", Unit: "ms", Better: "lower"},
	{Name: "routing.fib_build_allocs", Unit: "count", Better: "lower"},
	{Name: "routing.ksp_pathset_us", Unit: "us", Better: "lower"},
	{Name: "routing.native_path_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.paths", Unit: "count", Better: "higher"},
	{Name: "routing.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.lookups", Unit: "count", Better: "lower"},

	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.flows", Unit: "count", Better: "higher"},

	{Name: "netsim.new_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "netsim.events", Unit: "count", Better: "higher"},
	{Name: "netsim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netsim.allocs_per_cell", Unit: "count", Better: "lower"},
	{Name: "netsim.share", Unit: "ratio", Better: "lower"},
	{Name: "netsim.drops", Unit: "count", Better: "lower"},
	{Name: "netsim.retransmits", Unit: "count", Better: "lower"},
	{Name: "netsim.fct_p50_us", Unit: "us", Better: "lower"},
	{Name: "netsim.fct_p99_us", Unit: "us", Better: "lower"},

	{Name: "telemetry.attach_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "telemetry.attach_mb", Unit: "MB", Better: "lower"},

	{Name: "flowsim.maxmin_ms", Unit: "ms", Better: "lower"},
	{Name: "flowsim.flows", Unit: "count", Better: "higher"},
	{Name: "flowsim.us_per_flow", Unit: "us", Better: "lower"},
	{Name: "flowsim.share", Unit: "ratio", Better: "lower"},

	{Name: "metrics.reduce_us", Unit: "us", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},

	{Name: "bgp.build_ms", Unit: "ms", Better: "lower"},
	{Name: "bgp.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "bgp.converge_rounds", Unit: "count", Better: "lower"},
	{Name: "bgp.reconverge_ms", Unit: "ms", Better: "lower"},
	{Name: "bgp.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "bgp.allocs", Unit: "count", Better: "lower"},

	{Name: "store.key_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "jobs.submit_hit_us", Unit: "us", Better: "lower"},
	{Name: "jobs.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.retained", Unit: "count", Better: "lower"},

	{Name: "serve.warm_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.warm_hi_us", Unit: "us", Better: "lower"},
	{Name: "serve.warm_hi_pct", Unit: "%", Better: "higher"},
	{Name: "serve.warm_hi_n", Unit: "count", Better: "higher"},
	{Name: "serve.fetch_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.non2xx", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []e2eInfo      `json:"end_to_end"`
	PerLayer   []layerInfo    `json:"per_layer"`
}

func buildManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadInfos,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
