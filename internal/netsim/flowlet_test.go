package netsim

import (
	"testing"
	"time"

	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

func TestFlowletSwitchingMovesPaths(t *testing.T) {
	// Leaf-spine with 4 spines: a paused flow should eventually re-hash
	// onto a different spine.
	g, err := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A continuous TCP stream rarely idles, so use a flowlet timeout below
	// the ack-clocking gap: with cwnd 2 the sender stalls ~an RTT between
	// windows, and every stall re-hashes the path (the packet-spray limit
	// of flowlet switching). This exercises the gap detection and re-hash
	// deterministically.
	cfg := DefaultConfig()
	cfg.FlowletTimeout = 2 * time.Microsecond
	cfg.InitCwnd = 2
	cfg.InitSsthresh = 2 // hold the window small so stalls persist
	sim, err := New(g, routing.NewECMP(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traceTx(t, sim)
	res, err := sim.Run([]workload.Flow{{ID: 1, Src: 0, Dst: 4, SizeBytes: 600e3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("flow incomplete: %+v", res.Stats)
	}
	// Gaps exist only while the window is below the BDP (once the pipe
	// fills, the stream is continuous and the flowlet never ends), so a
	// handful of early-ramp switches is the expected physics.
	if res.Stats.FlowletSwitches < 5 {
		t.Fatalf("expected several flowlet switches, got %d", res.Stats.FlowletSwitches)
	}
	// The re-hashes must spread traffic over the spines.
	used := 0
	for sp := 8; sp < 12; sp++ {
		if tr.linkTx(sim, 0, sp) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("flowlet switching never moved the flow (used %d spines)", used)
	}
}

func TestNoFlowletSwitchingStaysPinned(t *testing.T) {
	g, err := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig() // FlowletTimeout = 0: per-flow pinning
	cfg.QueueBytes = 2 * 1500
	cfg.InitCwnd = 64
	sim, err := New(g, routing.NewECMP(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traceTx(t, sim)
	res, err := sim.Run([]workload.Flow{{ID: 1, Src: 0, Dst: 4, SizeBytes: 600e3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatal("incomplete")
	}
	used := 0
	for sp := 8; sp < 12; sp++ {
		if tr.linkTx(sim, 0, sp) > 0 {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("pinned flow used %d spines, want 1", used)
	}
}

func TestFlowletDeterminism(t *testing.T) {
	g1, _ := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 2})
	g2, _ := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 2})
	cfg := DefaultConfig()
	cfg.FlowletTimeout = 100 * time.Microsecond
	var flows []workload.Flow
	for i := 0; i < 12; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % 4, Dst: 4 + (i+1)%4,
			SizeBytes: 200e3, StartNS: int64(i) * 4000,
		})
	}
	a := runFlows(t, g1, routing.NewECMP(g1), cfg, flows)
	b := runFlows(t, g2, routing.NewECMP(g2), cfg, flows)
	if a.Stats != b.Stats {
		t.Fatalf("flowlet runs diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}
