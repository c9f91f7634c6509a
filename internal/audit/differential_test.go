package audit

import (
	"strings"
	"testing"

	"spineless/internal/flowsim"
	"spineless/internal/netsim"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// diffWorkload builds a simultaneous-start, equal-size workload: one flow
// from every host in rack 0's half to a partner in the other half.
func diffWorkload(g *topology.Graph, n int, size int64) []workload.Flow {
	half := g.Servers() / 2
	flows := make([]workload.Flow, 0, n)
	for i := 0; i < n; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % half, Dst: half + (i+1)%half, SizeBytes: size,
		})
	}
	return flows
}

func TestDifferentialCleanPair(t *testing.T) {
	g := topology.New("pair", 2, 6)
	for i := 0; i < 2; i++ {
		if err := g.AddLink(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	g.SetServers(0, 4)
	g.SetServers(1, 4)
	rep, err := Differential(g, routing.NewECMP(g), diffWorkload(g, 8, 500e3), DiffConfig{
		Net:  netsim.DefaultConfig(),
		Link: flowsim.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("differential violations on a healthy pair fabric: %v", err)
	}
	if rep.NetsimBps <= 0 || rep.FlowsimBps <= 0 || rep.FluidLambdaBps <= 0 {
		t.Fatalf("missing model outputs: %+v", rep)
	}
	if rep.FlowsimMinBps > rep.FluidUpperBps*1.01 {
		t.Fatalf("flowsim min %.3g above fluid bound %.3g", rep.FlowsimMinBps, rep.FluidUpperBps)
	}
}

func TestDifferentialCleanDRing(t *testing.T) {
	g, err := topology.DRing(topology.Uniform(6, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Differential(g, routing.NewECMP(g), diffWorkload(g, 24, 300e3), DiffConfig{
		Net:  netsim.DefaultConfig(),
		Link: flowsim.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("differential violations on a healthy DRing: %v", err)
	}
}

func TestDifferentialFlagsBandBreach(t *testing.T) {
	g := topology.New("pair", 2, 3)
	if err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	g.SetServers(0, 2)
	g.SetServers(1, 2)
	// A band no packet simulator can hit: any real run must breach it.
	rep, err := Differential(g, routing.NewECMP(g), diffWorkload(g, 4, 200e3), DiffConfig{
		Net:         netsim.DefaultConfig(),
		Link:        flowsim.DefaultConfig(),
		GoodputBand: [2]float64{5, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	repErr := rep.Err()
	if repErr == nil {
		t.Fatal("impossible goodput band not flagged")
	}
	if !strings.Contains(repErr.Error(), "goodput ratio") {
		t.Fatalf("expected a goodput-band violation, got: %v", repErr)
	}
}

func TestDifferentialRejectsEmptyWorkload(t *testing.T) {
	g := topology.New("pair", 2, 3)
	if err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	g.SetServers(0, 1)
	g.SetServers(1, 1)
	if _, err := Differential(g, routing.NewECMP(g), nil, DiffConfig{
		Net:  netsim.DefaultConfig(),
		Link: flowsim.DefaultConfig(),
	}); err == nil {
		t.Fatal("empty workload accepted")
	}
}
