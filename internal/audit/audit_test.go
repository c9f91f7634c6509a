package audit

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"spineless/internal/faults"
	"spineless/internal/netsim"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

// pairFabric: two ToRs joined by `links` parallel links, `hosts` servers each.
func pairFabric(t *testing.T, links, hosts int) *topology.Graph {
	t.Helper()
	g := topology.New("pair", 2, links+hosts)
	for i := 0; i < links; i++ {
		if err := g.AddLink(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	g.SetServers(0, hosts)
	g.SetServers(1, hosts)
	return g
}

// triangleFabric: three ToRs in a cycle, two hosts each — the smallest
// fabric where a cut link leaves an alternate path.
func triangleFabric(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.New("triangle", 3, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		g.SetServers(r, 2)
	}
	return g
}

// auditedRun runs flows on g under a fresh Auditor and returns the auditor,
// results, and Finish error.
func auditedRun(t *testing.T, g *topology.Graph, scheme routing.Scheme, cfg netsim.Config,
	flows []workload.Flow, sched *faults.Schedule) (*Auditor, netsim.Results, error) {
	t.Helper()
	sim, err := netsim.New(g, scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InstallFaults(sched); err != nil {
		t.Fatal(err)
	}
	aud, err := Attach(sim, flows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	return aud, res, aud.Finish(res)
}

func TestAuditedCleanRun(t *testing.T) {
	g := pairFabric(t, 2, 8)
	var flows []workload.Flow
	for i := 0; i < 40; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % 8, Dst: 8 + (i+3)%8,
			SizeBytes: int64(20e3 + 1000*i), StartNS: int64(i) * 5000,
		})
	}
	_, res, err := auditedRun(t, g, routing.NewECMP(g), netsim.DefaultConfig(), flows, nil)
	if err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d/%d flows", res.Completed, len(flows))
	}
}

func TestAuditedIncastWithDrops(t *testing.T) {
	// Heavy incast forces queue drops and retransmissions; conservation must
	// still balance because every loss is classified.
	g := topology.New("incast", 5, 32)
	for r := 1; r < 5; r++ {
		if err := g.AddLink(0, r); err != nil {
			t.Fatal(err)
		}
	}
	g.SetServers(0, 1)
	for r := 1; r < 5; r++ {
		g.SetServers(r, 4)
	}
	var flows []workload.Flow
	for i := 0; i < 16; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i + 1), Src: 1 + i, Dst: 0, SizeBytes: 400e3,
		})
	}
	_, res, err := auditedRun(t, g, routing.NewECMP(g), netsim.DefaultConfig(), flows, nil)
	if err != nil {
		t.Fatalf("audited incast reported violations: %v", err)
	}
	if res.Stats.Drops == 0 {
		t.Fatal("incast produced no drops — scenario is not exercising loss accounting")
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d/%d flows", res.Completed, len(flows))
	}
}

func TestAuditedFlowletDCTCPRun(t *testing.T) {
	g := pairFabric(t, 2, 4)
	cfg := netsim.DefaultConfig().WithDCTCP()
	cfg.FlowletTimeout = 50 * time.Microsecond
	var flows []workload.Flow
	for i := 0; i < 12; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i), Src: i % 4, Dst: 4 + (i+1)%4,
			SizeBytes: 150e3, StartNS: int64(i) * 400_000,
		})
	}
	_, res, err := auditedRun(t, g, routing.NewECMP(g), cfg, flows, nil)
	if err != nil {
		t.Fatalf("audited DCTCP+flowlet run reported violations: %v", err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d/%d flows", res.Completed, len(flows))
	}
}

func TestAuditedFaultInjectionRun(t *testing.T) {
	// Cut and restore a triangle edge mid-run with a reconvergence boundary:
	// blackholes, reroutes, and RTO recovery all under audit.
	g := triangleFabric(t)
	ecmp := routing.NewECMP(g)
	cut := g.Clone()
	if !cut.RemoveLink(0, 1) {
		t.Fatal("triangle edge 0-1 missing")
	}
	tv, err := routing.NewTimeVarying(
		routing.Phase{StartNS: 0, Scheme: ecmp},
		routing.Phase{StartNS: 2_000_000, Scheme: routing.NewECMP(cut)},
		routing.Phase{StartNS: 6_000_000, Scheme: ecmp},
	)
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Seed: 7}
	sched.Cut(1_500_000, 0, 1)
	sched.Restore(5_500_000, 0, 1)
	sched.Gray(3_000_000, 1, 2, 0.01, 0.5)
	sched.Events = append(sched.Events, faults.Event{TimeNS: 5_000_000, Kind: faults.GrayClear, A: 1, B: 2})

	var flows []workload.Flow
	for i := 0; i < 18; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(i + 1), Src: i % 6, Dst: (i + 2) % 6,
			SizeBytes: 200e3, StartNS: int64(i) * 300_000,
		})
	}
	for i, f := range flows {
		if f.Src == f.Dst {
			flows[i].Dst = (f.Dst + 1) % 6
		}
	}
	_, res, err := auditedRun(t, g, tv, netsim.DefaultConfig(), flows, sched)
	if err != nil {
		t.Fatalf("audited fault-injection run reported violations: %v", err)
	}
	if res.Stats.Blackholed == 0 && res.Stats.GrayDrops == 0 {
		t.Fatal("fault schedule produced no losses — scenario is not exercising fault accounting")
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d/%d flows after repair", res.Completed, len(flows))
	}
}

func TestAuditedDRingWorkload(t *testing.T) {
	// A fig4-shaped tier-1 scenario: DRing fabric, skewed rack-level matrix,
	// Pareto sizes over a start window.
	g, err := topology.DRing(topology.Uniform(6, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	flows, err := workload.GenerateFlows(g, workload.FBSkewed(len(g.Racks()), rng), workload.GenConfig{
		Flows:    150,
		Sizes:    workload.Pareto{MeanBytes: 60e3, Alpha: 1.05},
		WindowNS: 2_000_000,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, _, finErr := auditedRun(t, g, routing.NewECMP(g), netsim.DefaultConfig(), flows, nil)
	if finErr != nil {
		t.Fatalf("audited DRing workload reported violations: %v", finErr)
	}
}

func TestAuditorDetectsConservationBreach(t *testing.T) {
	g := pairFabric(t, 1, 2)
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 2, SizeBytes: 50e3}}
	sim, err := netsim.New(g, routing.NewECMP(g), netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aud, err := Attach(sim, flows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	// Forge one extra delivery at the last hook's time: conservation must
	// catch the imbalance.
	aud.OnDeliver(aud.lastNS, 0, false, 0)
	finErr := aud.Finish(res)
	if finErr == nil {
		t.Fatal("auditor missed a forged extra delivery")
	}
	if !strings.Contains(finErr.Error(), "conservation") {
		t.Fatalf("expected a conservation violation, got: %v", finErr)
	}
}

func TestAuditorDetectsTCPInsanity(t *testing.T) {
	g := pairFabric(t, 1, 2)
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 2, SizeBytes: 50e3}}
	sim, err := netsim.New(g, routing.NewECMP(g), netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aud, err := Attach(sim, flows)
	if err != nil {
		t.Fatal(err)
	}
	aud.OnCwnd(0, 0, 0.5, 10, 5)  // cwnd < 1 and sndUna > sndNxt
	aud.OnCwnd(0, 0, 2, 0, 1<<40) // sndNxt beyond flow size
	aud.OnCwnd(0, 5, 2, 0, 0)     // flow index out of range
	v := strings.Join(aud.violations, "\n")
	for _, want := range []string{"cwnd", "sndUna", "beyond flow size", "out of range"} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q violation in:\n%s", want, v)
		}
	}
}

func TestAuditorDetectsTimeRegression(t *testing.T) {
	g := pairFabric(t, 1, 2)
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 2, SizeBytes: 50e3}}
	sim, err := netsim.New(g, routing.NewECMP(g), netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aud, err := Attach(sim, flows)
	if err != nil {
		t.Fatal(err)
	}
	aud.OnTxStart(1000, 0, 0, false, 1500)
	aud.OnTxStart(999, 0, 0, false, 1500)
	v := strings.Join(aud.violations, "\n")
	if !strings.Contains(v, "time moved backwards") {
		t.Fatalf("missing time-regression violation in:\n%s", v)
	}
}

func TestAuditorDeduplicatesViolations(t *testing.T) {
	g := pairFabric(t, 1, 2)
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 2, SizeBytes: 50e3}}
	sim, err := netsim.New(g, routing.NewECMP(g), netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aud, err := Attach(sim, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		aud.OnCwnd(0, 0, 0.5, 0, 0)
	}
	if n := len(aud.violations); n != 1 {
		t.Fatalf("identical violation recorded %d times, want 1", n)
	}
}

func TestAttachAfterRunFails(t *testing.T) {
	g := pairFabric(t, 1, 2)
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 2, SizeBytes: 10e3}}
	sim, err := netsim.New(g, routing.NewECMP(g), netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(flows); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(sim, flows); err == nil {
		t.Fatal("Attach after Run should fail")
	}
}
