package audit

import (
	"fmt"
	"sort"

	"spineless/internal/flowsim"
	"spineless/internal/fluid"
	"spineless/internal/netsim"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// DiffConfig declares the tolerance bands for the differential harness.
type DiffConfig struct {
	// Net configures the packet-level run.
	Net netsim.Config
	// Link sets the flow-level models' rates; LinkRateBps must match
	// Net.LinkRateBps for the comparison to be meaningful.
	Link flowsim.Config
	// Epsilon is the fluid FPTAS accuracy knob (default 0.1; must stay
	// below 1/3 so the (1−3ε) guarantee is meaningful).
	Epsilon float64
	// GoodputBand brackets the acceptable ratio of netsim aggregate goodput
	// to the flowsim max-min aggregate. The band is declared, not derived:
	// packet effects (TCP inefficiency, queueing, unlucky hashing) push the
	// ratio below 1; flows that finish early and free capacity push it
	// above. Default [0.35, 1.35], calibrated for simultaneous-start,
	// near-equal-size workloads.
	GoodputBand [2]float64
	// Slack is the relative tolerance on the flowsim-vs-fluid bound,
	// absorbing FPTAS and float rounding (default 0.01).
	Slack float64
}

func (c *DiffConfig) defaults() {
	if c.Epsilon <= 0 || c.Epsilon >= 1.0/3 {
		c.Epsilon = 0.1
	}
	if c.GoodputBand[0] <= 0 && c.GoodputBand[1] <= 0 {
		c.GoodputBand = [2]float64{0.35, 1.35}
	}
	if c.Slack <= 0 {
		c.Slack = 0.01
	}
}

// DiffReport holds the three models' throughput figures for one workload
// plus every tolerance-band violation found.
type DiffReport struct {
	// NetsimBps is the packet-level aggregate goodput: Σ SizeBytes·8/FCT
	// over completed flows.
	NetsimBps float64
	// FlowsimBps and FlowsimMinBps are the max-min fair aggregate and
	// minimum per-flow rate on the same pairs and routing scheme.
	FlowsimBps    float64
	FlowsimMinBps float64
	// FluidLambdaBps is the fluid model's feasible per-flow rate under
	// optimal fractional routing (0 when the workload has no inter-rack
	// flows); FluidUpperBps = λ/(1−3ε) is the FPTAS upper bound on the
	// optimum, which no oblivious scheme's max-min minimum may exceed.
	FluidLambdaBps float64
	FluidUpperBps  float64
	// Violations lists every band breach; empty means the three models
	// agree within the declared tolerances.
	Violations []string
}

// Err returns an error enumerating the report's violations, nil when clean.
func (r DiffReport) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("audit: differential violation(s): %v", r.Violations)
}

// Differential cross-validates the packet simulator against the flow-level
// and fluid models on one shared workload:
//
//   - netsim runs flows under the invariant Auditor (its violations are
//     included in the report);
//   - flowsim computes the max-min fair allocation for the same host pairs
//     on the same scheme;
//   - fluid bounds what any scheme could achieve on the topology, checking
//     flowsim's minimum rate ≤ λ/(1−3ε).
//
// The netsim/flowsim comparison is only meaningful for simultaneous-start,
// near-equal-size workloads (flowsim models steady state); size flows so
// they complete within Net.MaxSimTime. The returned error covers setup and
// simulation failures; band breaches land in DiffReport.Violations.
func Differential(g *topology.Graph, scheme routing.Scheme, flows []workload.Flow, cfg DiffConfig) (DiffReport, error) {
	cfg.defaults()
	var rep DiffReport
	if len(flows) == 0 {
		return rep, fmt.Errorf("audit: differential needs at least one flow")
	}

	// Packet level, under the invariant Auditor.
	sim, err := netsim.New(g, scheme, cfg.Net)
	if err != nil {
		return rep, err
	}
	aud, err := Attach(sim, flows)
	if err != nil {
		return rep, err
	}
	res, err := sim.Run(flows)
	if err != nil {
		return rep, err
	}
	if err := aud.Finish(res); err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("netsim invariants: %v", err))
	}
	incomplete := 0
	for i, fct := range res.FCTNS {
		if fct <= 0 {
			incomplete++
			continue
		}
		rep.NetsimBps += float64(flows[i].SizeBytes) * 8e9 / float64(fct)
	}
	if incomplete > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("netsim left %d/%d flows incomplete — workload too large for MaxSimTime", incomplete, len(flows)))
	}

	// Flow level: max-min on the same pairs and scheme.
	pairs := make([][2]int, len(flows))
	for i, f := range flows {
		pairs[i] = [2]int{f.Src, f.Dst}
	}
	rates, agg, err := flowsim.Throughput(g, scheme, pairs, cfg.Link)
	if err != nil {
		return rep, err
	}
	rep.FlowsimBps = agg
	rep.FlowsimMinBps = rates[0]
	for _, r := range rates[1:] {
		if r < rep.FlowsimMinBps {
			rep.FlowsimMinBps = r
		}
	}

	// Fluid bound: aggregate inter-rack flows into rack-level demands, one
	// unit each, so λ is a per-flow rate. Intra-rack flows use no network
	// links and place no demand.
	type rackPair struct{ src, dst int }
	rp := make([]rackPair, 0, len(flows))
	for _, f := range flows {
		sr, dr := g.RackOf(f.Src), g.RackOf(f.Dst)
		if sr != dr {
			rp = append(rp, rackPair{sr, dr})
		}
	}
	sort.Slice(rp, func(i, j int) bool {
		if rp[i].src != rp[j].src {
			return rp[i].src < rp[j].src
		}
		return rp[i].dst < rp[j].dst
	})
	var demands []fluid.Demand
	for _, p := range rp {
		if n := len(demands); n > 0 && demands[n-1].Src == p.src && demands[n-1].Dst == p.dst {
			demands[n-1].Amount++
			continue
		}
		demands = append(demands, fluid.Demand{Src: p.src, Dst: p.dst, Amount: 1})
	}
	if len(demands) > 0 {
		lambda, err := fluid.MaxConcurrentFlow(g, demands, fluid.Options{
			Epsilon:      cfg.Epsilon,
			LinkCapacity: cfg.Link.LinkRateBps,
		})
		if err != nil {
			return rep, err
		}
		rep.FluidLambdaBps = lambda
		rep.FluidUpperBps = lambda / (1 - 3*cfg.Epsilon)
		// The max-min minimum is a feasible concurrent rate on pinned
		// paths, so the fluid optimum — and hence λ/(1−3ε) — dominates it.
		// (Host-link caps only lower the flowsim side, preserving the
		// direction of the bound.)
		if rep.FlowsimMinBps > rep.FluidUpperBps*(1+cfg.Slack) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("flowsim min rate %.3g bps exceeds fluid upper bound %.3g bps — one of the flow models is broken",
					rep.FlowsimMinBps, rep.FluidUpperBps))
		}
	}

	// Packet vs flow level, inside the declared band.
	if incomplete == 0 && rep.FlowsimBps > 0 {
		ratio := rep.NetsimBps / rep.FlowsimBps
		if ratio < cfg.GoodputBand[0] || ratio > cfg.GoodputBand[1] {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("netsim/flowsim aggregate goodput ratio %.3f outside band [%.2f, %.2f] (netsim %.3g, flowsim %.3g bps)",
					ratio, cfg.GoodputBand[0], cfg.GoodputBand[1], rep.NetsimBps, rep.FlowsimBps))
		}
	}
	return rep, nil
}
