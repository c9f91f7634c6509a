package spineless_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spineless"
)

// TestFacadeEndToEnd drives the README quickstart path through the public
// API only: build the trio, route it, simulate a workload, measure.
func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs, err := spineless.BuildFabrics(spineless.LeafSpineSpec{X: 6, Y: 2}, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	combo, err := spineless.NewCombo("DRing su2", fs.DRing, "su2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := spineless.DefaultFCTConfig()
	cfg.WindowSec = 0.002
	cfg.MaxFlows = 100
	cfg.Sizes = spineless.ParetoSizes(20e3, 1.05, 200e3)
	res, err := spineless.RunFCT(fs, combo, spineless.TMFBSkewed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Count == 0 || res.Stats.Incomplete != 0 {
		t.Fatalf("facade FCT run broken: %+v", res.Stats)
	}
}

func TestFacadeUDFAndTheorem1(t *testing.T) {
	base, err := spineless.LeafSpine(spineless.LeafSpineSpec{X: 6, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := spineless.Flatten(base, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	udf, err := spineless.UDF(base, flat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(udf-2) > 0.05 {
		t.Fatalf("UDF = %v", udf)
	}

	net, err := spineless.BuildBGP(flat, 2)
	if err != nil {
		t.Fatal(err)
	}
	rib, _, err := net.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if err := spineless.VerifyTheorem1(net, rib); err != nil {
		t.Fatal(err)
	}
	fib, err := spineless.NewShortestUnion(flat, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := spineless.CrossCheckBGPFib(net, rib, fib, true); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulatorAndFlows(t *testing.T) {
	g, err := spineless.DRing(spineless.UniformDRing(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	flows, err := spineless.GenerateFlows(g, spineless.UniformTM(len(g.Racks())),
		spineless.GenFlowConfig(60, time.Millisecond), rng)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := spineless.NewSimulator(g, spineless.NewECMP(g), spineless.DefaultNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The facade hands out the simulator and both observers separately, so
	// nothing above the tracer slot can stop a caller attaching both: the
	// second attach must fail and leave the auditor watching the run.
	aud, err := spineless.AttachAuditor(sim, flows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spineless.NewTelemetryRecorder(spineless.TelemetryConfig{}).Attach(sim, len(flows)); err == nil {
		t.Fatal("a telemetry sink displaced the attached auditor")
	}
	res, err := sim.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.Finish(res); err != nil {
		t.Fatal(err)
	}
	st := spineless.SummarizeFCT(res.FCTNS)
	if st.Count != len(flows) {
		t.Fatalf("completed %d of %d", st.Count, len(flows))
	}
}

func TestFacadeExtensions(t *testing.T) {
	g, err := spineless.DRing(spineless.UniformDRing(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Failure study.
	cfg := spineless.DefaultFailureStudyConfig()
	cfg.Fractions = []float64{0.05}
	cfg.Flows = 40
	cfg.Samples = 10
	rows, err := spineless.FailureStudy(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("failure study empty")
	}
	// Ideal throughput.
	lam, err := spineless.IdealThroughput(g, spineless.UniformTM(len(g.Racks())), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if lam <= 0 {
		t.Fatalf("ideal λ = %v", lam)
	}
	// Migration.
	base, err := spineless.LeafSpine(spineless.LeafSpineSpec{X: 4, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := spineless.Flatten(base, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spineless.PlanMigration(base, flat); err != nil {
		t.Fatal(err)
	}
	// OSPF.
	d := spineless.NewOSPF(g)
	d.Flood()
	if !d.Converged() {
		t.Fatal("OSPF did not converge")
	}
	// Dynamic schedules.
	sched, err := spineless.NewRotatingDRing(spineless.UniformDRing(6, 2, 20), 2)
	if err != nil {
		t.Fatal(err)
	}
	if pl, err := spineless.DynamicAvgPathLength(sched); err != nil || pl <= 0 {
		t.Fatalf("dynamic path length: %v %v", pl, err)
	}
}
