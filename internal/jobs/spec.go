// Package jobs is spinelessd's execution layer: a bounded job queue over
// the deterministic experiment engine (internal/core, internal/resilience)
// with per-job cancellation, singleflight deduplication of identical specs,
// monotonic progress published from the trial loop, and a content-addressed
// result cache (internal/store) whose hits are periodically re-executed to
// audit the determinism contract the cache depends on.
//
// The package-scope determinism exemption above is deliberate and narrow:
// the job layer measures wall-clock latency and timestamps job lifecycles,
// which is operational telemetry, not simulation state. Everything a job
// *computes* flows through the simulator packages, which remain fully
// locked down — a spec and seed still replay byte-identically.
//
//lint:allowpkg determinism
package jobs

import (
	"fmt"

	"spineless/internal/core"
	"spineless/internal/store"
)

// SpecVersion identifies the spec schema; it is part of the hash preimage,
// so bumping it (on any semantics change) retires every cached result.
const SpecVersion = 1

// Spec is the full description of one experiment: everything the run
// depends on — topology, fabric/routing combo, workload, fault schedule,
// seed, trials — and nothing it doesn't (worker counts and audit flags are
// deliberately absent: they never affect results, so they must not
// fragment the cache). Its canonical JSON encoding is the store key.
type Spec struct {
	// Version pins the spec schema (must be SpecVersion).
	Version int `json:"v"`
	// Kind selects the experiment: "fct" (a Figure 4-style cell) or
	// "live" (a PR-1 live fault-injection run).
	Kind string `json:"kind"`
	// Topo shapes the fabric.
	Topo TopoSpec `json:"topo"`
	// Fabric picks the substrate by core.(*FabricSet).Fabric name: the
	// §5.1 trio "leafspine", "rrg" or "dring", or a bake-off flat fabric
	// "xpander", "debruijn" or "rng" built on the trio's equipment budget.
	// Live runs take "dring" or its equipment-matched "rrg" (core.OnDRing).
	Fabric string `json:"fabric"`
	// Scheme is the routing scheme name (core.NewCombo syntax: "ecmp",
	// "su2", "wcmp", "vlb", "ksp3", ...; "selfroute" only on "debruijn"),
	// checked at submit by core.CheckCombo. Live runs use
	// Shortest-Union(K) from Faults.K instead.
	Scheme string `json:"scheme,omitempty"`
	// TM names the traffic matrix for fct runs (core.AllTMKinds).
	TM string `json:"tm,omitempty"`
	// Util is the offered load for fct runs (fraction of spine capacity).
	Util float64 `json:"util,omitempty"`
	// WindowSec is the fct flow-arrival window in seconds.
	WindowSec float64 `json:"window_sec,omitempty"`
	// Seed drives all sampling.
	Seed int64 `json:"seed"`
	// Trials pools this many independently seeded arrival windows.
	Trials int `json:"trials,omitempty"`
	// MaxFlows caps generated flows per window (0 = uncapped).
	MaxFlows int `json:"max_flows,omitempty"`
	// Telemetry attaches a live telemetry recorder to the run and publishes
	// it on /v1/telemetry while the job executes. Purely observational: it
	// never affects results, so — like worker counts — it is exempt from the
	// store key. A cache hit executes nothing and therefore streams nothing.
	Telemetry bool `json:"telemetry,omitempty"`
	// Faults is the live-run fault schedule (required iff Kind == "live").
	Faults *FaultSpec `json:"faults,omitempty"`
}

// TopoSpec shapes the fabric. For fct runs it selects the §5.1 trio:
// Paper, or the proportionally scaled-down trio at Scale. For live runs it
// is the standalone uniform DRing geometry (Supernodes × Tors switches of
// Ports ports) that cmd/failures uses, with Fabric choosing the DRing
// itself or its equipment-matched RRG.
type TopoSpec struct {
	Paper      bool `json:"paper,omitempty"`
	Scale      int  `json:"scale,omitempty"`
	Supernodes int  `json:"supernodes,omitempty"`
	Tors       int  `json:"tors,omitempty"`
	Ports      int  `json:"ports,omitempty"`
}

// FaultSpec is the live fault schedule (mirrors resilience.LiveConfig; see
// PR 1). Zero-valued timing fields inherit resilience.DefaultLiveConfig.
type FaultSpec struct {
	K                    int     `json:"k,omitempty"`
	Fraction             float64 `json:"fraction"`
	FailAtNS             int64   `json:"fail_at_ns,omitempty"`
	DetectionDelayNS     int64   `json:"detection_delay_ns,omitempty"`
	RoundDelayNS         int64   `json:"round_delay_ns,omitempty"`
	FlapLinks            int     `json:"flap_links,omitempty"`
	FlapDownNS           int64   `json:"flap_down_ns,omitempty"`
	FlapUpNS             int64   `json:"flap_up_ns,omitempty"`
	FlapCycles           int     `json:"flap_cycles,omitempty"`
	GrayLinks            int     `json:"gray_links,omitempty"`
	GrayLoss             float64 `json:"gray_loss,omitempty"`
	GrayRateFactor       float64 `json:"gray_rate_factor,omitempty"`
	Flows                int     `json:"flows,omitempty"`
	WindowNS             int64   `json:"window_ns,omitempty"`
	PreserveConnectivity bool    `json:"preserve_connectivity,omitempty"`
}

// Normalized returns the spec with defaults filled in, so that a spec
// submitted with and without an explicit default value hashes identically.
// Hashing always happens on the normalized form.
func (s Spec) Normalized() Spec {
	s.Version = SpecVersion
	if s.Kind == "" {
		s.Kind = "fct"
	}
	switch s.Kind {
	case "fct":
		if !s.Topo.Paper && s.Topo.Scale == 0 {
			s.Topo.Scale = 4
		}
		if s.Topo.Paper {
			s.Topo.Scale = 0
		}
		s.Topo.Supernodes, s.Topo.Tors, s.Topo.Ports = 0, 0, 0
		if s.Fabric == "" {
			s.Fabric = "dring"
		}
		if s.Scheme == "" {
			s.Scheme = "su2"
		}
		if s.TM == "" {
			s.TM = string(core.TMA2A)
		}
		// Exact-zero means "omitted from the JSON spec", not a tolerance.
		if s.Util == 0 { //lint:allow floateq
			s.Util = 0.30
		}
		if s.WindowSec == 0 { //lint:allow floateq
			s.WindowSec = 0.01
		}
		if s.Trials <= 1 {
			s.Trials = 0
		}
		s.Faults = nil
	case "live":
		if s.Topo.Supernodes == 0 {
			s.Topo.Supernodes = 8
		}
		if s.Topo.Tors == 0 {
			s.Topo.Tors = 2
		}
		if s.Topo.Ports == 0 {
			s.Topo.Ports = 24
		}
		s.Topo.Paper, s.Topo.Scale = false, 0
		if s.Fabric == "" {
			s.Fabric = "dring"
		}
		s.Scheme, s.TM, s.Util, s.WindowSec, s.Trials, s.MaxFlows = "", "", 0, 0, 0, 0
		if s.Faults != nil {
			f := *s.Faults
			d := defaultFaults()
			if f.K == 0 {
				f.K = d.K
			}
			if f.FailAtNS == 0 {
				f.FailAtNS = d.FailAtNS
			}
			if f.DetectionDelayNS == 0 {
				f.DetectionDelayNS = d.DetectionDelayNS
			}
			if f.RoundDelayNS == 0 {
				f.RoundDelayNS = d.RoundDelayNS
			}
			if f.FlapDownNS == 0 {
				f.FlapDownNS = d.FlapDownNS
			}
			if f.FlapUpNS == 0 {
				f.FlapUpNS = d.FlapUpNS
			}
			if f.FlapCycles == 0 {
				f.FlapCycles = d.FlapCycles
			}
			// As above: exact zero marks an omitted JSON field.
			if f.GrayLoss == 0 { //lint:allow floateq
				f.GrayLoss = d.GrayLoss
			}
			if f.GrayRateFactor == 0 { //lint:allow floateq
				f.GrayRateFactor = d.GrayRateFactor
			}
			if f.Flows == 0 {
				f.Flows = d.Flows
			}
			if f.WindowNS == 0 {
				f.WindowNS = d.WindowNS
			}
			s.Faults = &f
		}
	}
	return s
}

// Validate rejects specs the runner cannot execute. It operates on the
// normalized form.
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("jobs: unsupported spec version %d (want %d)", s.Version, SpecVersion)
	}
	switch s.Kind {
	case "fct":
		if err := core.CheckCombo(s.Fabric, s.Scheme); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		if !s.Topo.Paper {
			f := s.Topo.Scale
			if f < 1 || 48%f != 0 || 16%f != 0 {
				return fmt.Errorf("jobs: scale %d must divide 48 and 16", f)
			}
		}
		if !validTM(s.TM) {
			return fmt.Errorf("jobs: unknown traffic matrix %q", s.TM)
		}
		if s.Util <= 0 || s.Util > 10 {
			return fmt.Errorf("jobs: util %v out of range (0, 10]", s.Util)
		}
		if s.WindowSec <= 0 || s.WindowSec > 10 {
			return fmt.Errorf("jobs: window %vs out of range (0, 10]", s.WindowSec)
		}
		if s.Trials < 0 {
			return fmt.Errorf("jobs: negative trials %d", s.Trials)
		}
		if s.MaxFlows < 0 {
			return fmt.Errorf("jobs: negative max_flows %d", s.MaxFlows)
		}
	case "live":
		switch s.Fabric {
		case "rrg", "dring":
		default:
			return fmt.Errorf("jobs: live runs support fabric dring or rrg, not %q", s.Fabric)
		}
		if s.Topo.Supernodes < 5 {
			return fmt.Errorf("jobs: live supernodes %d < 5", s.Topo.Supernodes)
		}
		if s.Topo.Tors < 1 || s.Topo.Ports < 4*s.Topo.Tors {
			return fmt.Errorf("jobs: infeasible live geometry %d ToRs × %d ports", s.Topo.Tors, s.Topo.Ports)
		}
		if s.Faults == nil {
			return fmt.Errorf("jobs: live spec needs a fault schedule")
		}
		if s.Faults.Fraction < 0 || s.Faults.Fraction > 1 {
			return fmt.Errorf("jobs: fault fraction %v out of [0, 1]", s.Faults.Fraction)
		}
	default:
		return fmt.Errorf("jobs: unknown kind %q (want fct or live)", s.Kind)
	}
	return nil
}

// Hash returns the spec's store key (normalizing first). Telemetry is
// exempt from the preimage: observation never changes what a run computes,
// so an observed and an unobserved run must share one cache entry.
func (s Spec) Hash() (string, error) {
	return store.Key(s.HashForm())
}

// HashForm returns the normalized spec with the hash exemption applied —
// the exact preimage of Hash. Store writers must commit this form, not the
// submitted spec: store.Put verifies the spec it archives hashes to the
// entry key, so an exempted field left in place (a telemetry run) would
// fail the write and silently leave the result uncached.
func (s Spec) HashForm() Spec {
	n := s.Normalized()
	n.Telemetry = false
	return n
}

func validTM(tm string) bool {
	for _, k := range core.AllTMKinds() {
		if string(k) == tm {
			return true
		}
	}
	return false
}
