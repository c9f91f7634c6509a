package core

import (
	"reflect"
	"testing"

	"spineless/internal/telemetry"
	"spineless/internal/workload"
)

// fastClasses is the three-tier mix scaled down so tiny-fabric tests
// finish quickly while still exercising every class.
func fastClasses() []workload.Class {
	return []workload.Class{
		{Name: "training", Share: 0.10, Sizes: workload.Fixed(80e3), SLAms: 20},
		{Name: "batch", Share: 0.30, Sizes: workload.Fixed(20e3), SLAms: 8},
		{Name: "latency", Share: 0.60, Sizes: workload.Fixed(2e3), SLAms: 2},
	}
}

// TestRunFCTTelemetryAndClasses runs the Poisson job-class workload over
// two parallel trials with a telemetry recorder attached and checks that
// (a) every trial bound a sink, (b) per-class goodput and the per-class
// FCT attribution both partition the run, and (c) neither observer — the
// recorder or the invariant auditor — changes any field of the result.
func TestRunFCTTelemetryAndClasses(t *testing.T) {
	fs := tinyFabrics(t)
	combo, err := NewCombo("DRing su2", fs.DRing, "su2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastFCTConfig()
	cfg.JobClasses = fastClasses()
	cfg.Trials = 2
	cfg.Workers = 2
	cfg.MaxFlows = 80

	bare, err := RunFCT(fs, combo, TMA2A, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Observers = Observers{Audit: true}
	audited, err := RunFCT(fs, combo, TMA2A, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(audited, bare) {
		t.Fatalf("auditing changed results: %+v vs %+v", audited, bare)
	}

	rec := telemetry.NewRecorder(telemetry.Config{Classes: 3})
	cfg.Observers = Observers{Telemetry: rec}
	res, err := RunFCT(fs, combo, TMA2A, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, bare) {
		t.Fatalf("telemetry changed results: %+v vs %+v", res, bare)
	}
	if rec.Sinks() != 2 {
		t.Fatalf("%d sinks bound, want one per trial", rec.Sinks())
	}
	if len(res.Classes) != 3 {
		t.Fatalf("class attribution has %d rows: %+v", len(res.Classes), res.Classes)
	}
	var classFlows int
	for _, c := range res.Classes {
		classFlows += c.Flows
	}
	if classFlows != res.Flows {
		t.Fatalf("class attribution covers %d of %d flows", classFlows, res.Flows)
	}

	sn := rec.Snapshot()
	if got, want := len(sn.Totals.GoodputBytes), 3; got != want {
		t.Fatalf("%d goodput classes, want %d", got, want)
	}
	var goodput uint64
	for ci, g := range sn.Totals.GoodputBytes {
		if res.Classes[ci].Completed > 0 && g == 0 {
			t.Fatalf("class %d completed %d flows but earned no goodput", ci, res.Classes[ci].Completed)
		}
		goodput += g
	}
	if goodput == 0 || sn.Totals.TxBytes == 0 {
		t.Fatalf("empty telemetry totals: %+v", sn.Totals)
	}
	if workload.ClassTable(res.Classes) == "" {
		t.Fatal("empty class table")
	}
}

// TestTelemetryAuditRejected: both observers need the simulator's single
// tracer slot; silently overwriting one with the other would void either
// the audit or the series.
func TestTelemetryAuditRejected(t *testing.T) {
	fs := tinyFabrics(t)
	combo, err := NewCombo("ls", fs.LeafSpine, "ecmp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastFCTConfig()
	cfg.Audit = true
	cfg.Telemetry = telemetry.NewRecorder(telemetry.Config{})
	if _, err := RunFCT(fs, combo, TMA2A, cfg); err == nil {
		t.Fatal("Audit+Telemetry accepted — one observer would silently displace the other")
	}
}
