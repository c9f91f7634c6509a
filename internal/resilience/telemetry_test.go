package resilience

import (
	"testing"

	"spineless/internal/netsim"
	"spineless/internal/telemetry"
)

// TestLiveTelemetryDropSeriesMatchesTransient cross-checks the two
// observability paths against each other on one fault-schedule run: the
// telemetry blackhole drop-rate series must show the outage exactly inside
// the window where metrics.SummarizeTransient places it ([FailAtNS,
// RepairNS], the During bucket), and the series total must equal the
// simulator's own blackhole counter.
func TestLiveTelemetryDropSeriesMatchesTransient(t *testing.T) {
	g := ringFabric(t)
	cfg := liveTestConfig()
	rec := telemetry.NewRecorder(telemetry.Config{BucketNS: 100_000, Buckets: 1024})
	cfg.Telemetry = rec

	res, err := RunLive(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blackholed == 0 {
		t.Fatalf("no blackhole transient to cross-check: %+v", res)
	}
	if res.Transient.During.Count == 0 {
		t.Fatalf("transient During bucket empty: %+v", res.Transient)
	}

	sn := rec.Snapshot()
	if sn.Buckets() == 0 {
		t.Fatal("telemetry window empty")
	}
	reason := int(netsim.DropBlackhole)
	var total uint64
	first, last := int64(-1), int64(-1)
	for i, d := range sn.Drops[reason] {
		if d == 0 {
			continue
		}
		total += d
		b := sn.FirstBucket + int64(i)
		if first < 0 {
			first = b
		}
		last = b
	}
	if total != res.Blackholed {
		t.Fatalf("telemetry series holds %d blackhole drops, simulator counted %d", total, res.Blackholed)
	}

	// The series outage window must sit exactly where SummarizeTransient
	// puts the During bucket: nothing blackholes before the failure, and
	// nothing after the repair beyond bucket-edge rounding.
	firstNS := first * sn.BucketNS
	lastNS := (last + 1) * sn.BucketNS
	if firstNS < cfg.FailAtNS-sn.BucketNS || firstNS > cfg.FailAtNS+res.RepairNS {
		t.Fatalf("first blackhole bucket at %d ns, failure injected at %d ns", firstNS, cfg.FailAtNS)
	}
	if lastNS > res.RepairNS+sn.BucketNS {
		t.Fatalf("blackhole drops continue to %d ns, past the repair at %d ns", lastNS, res.RepairNS)
	}

	// And the series' own window width must agree with the data plane's
	// first-to-last measurement already validated against reconvergence.
	seriesSpan := (last - first + 1) * sn.BucketNS
	if res.MeasuredBlackholeNS > seriesSpan || seriesSpan-res.MeasuredBlackholeNS > 2*sn.BucketNS {
		t.Fatalf("series outage span %d ns vs measured blackhole window %d ns (bucket %d ns)",
			seriesSpan, res.MeasuredBlackholeNS, sn.BucketNS)
	}

	// Fault injection is visible in link state too.
	if sn.Totals.LinkEvents == 0 {
		t.Fatal("no link state changes recorded during a fault run")
	}
	if sn.Totals.DropsBlackhole != res.Blackholed || sn.Totals.DropsGray != res.GrayDrops {
		t.Fatalf("totals disagree with run stats: %+v vs %+v", sn.Totals, res)
	}
}

// TestLiveTelemetryAuditRejected: both observers need the simulator's
// single tracer slot on the resilience Live path.
func TestLiveTelemetryAuditRejected(t *testing.T) {
	g := ringFabric(t)
	cfg := liveTestConfig()
	cfg.Telemetry = telemetry.NewRecorder(telemetry.Config{})
	cfg.Audit = true
	if _, err := RunLive(g, cfg); err == nil {
		t.Fatal("Audit+Telemetry accepted")
	}
}

// TestStudyTelemetryAuditRejected covers the Study sweep layer.
func TestStudyTelemetryAuditRejected(t *testing.T) {
	g := ringFabric(t)
	cfg := DefaultStudyConfig()
	cfg.Flows = 50
	cfg.Telemetry = telemetry.NewRecorder(telemetry.Config{})
	cfg.Audit = true
	if _, err := Study(g, cfg); err == nil {
		t.Fatal("Audit+Telemetry accepted in Study")
	}
}

// TestStudyTelemetryBindsPerFraction: each fraction's replay gets a sink
// and the merged snapshot covers the whole sweep.
func TestStudyTelemetryBindsPerFraction(t *testing.T) {
	g := ringFabric(t)
	cfg := DefaultStudyConfig()
	cfg.Fractions = []float64{0.02, 0.05}
	cfg.Flows = 80
	rec := telemetry.NewRecorder(telemetry.Config{})
	cfg.Telemetry = rec
	rows, err := Study(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rec.Sinks() != 2 {
		t.Fatalf("%d sinks bound, want one per fraction replay", rec.Sinks())
	}
	if sn := rec.Snapshot(); sn.Totals.TxBytes == 0 {
		t.Fatal("merged study snapshot has no traffic")
	}
}
