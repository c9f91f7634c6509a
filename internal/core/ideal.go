package core

import (
	"spineless/internal/fluid"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// IdealThroughput computes the fluid-model maximum concurrent throughput of
// a rack-level matrix on a fabric: the largest λ (in units of link capacity)
// such that λ·W is routable by ideal fractional multipath routing. This is
// the §2 "fluid flow model with ideal routing" reference point [13, 22].
func IdealThroughput(g *topology.Graph, m *workload.Matrix, eps float64) (float64, error) {
	demands, err := fluid.MatrixDemands(g, m.W)
	if err != nil {
		return 0, err
	}
	return fluid.MaxConcurrentFlow(g, demands, fluid.Options{Epsilon: eps})
}
