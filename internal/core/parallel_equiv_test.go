package core

import (
	"reflect"
	"testing"

	"spineless/internal/workload"
)

// These tests pin the determinism-under-parallelism contract of every
// converted fan-out in this package: the same config run with workers=1 and
// workers=8 must produce bit-identical result structs, including simulator
// stat counters and raw per-flow data.

func TestRunFCTTrialsParallelEqualsSerial(t *testing.T) {
	fs := tinyFabrics(t)
	combo, err := NewCombo("dring", fs.DRing, "su2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastFCTConfig()
	cfg.MaxFlows = 60
	cfg.Trials = 4
	cfg.KeepFlows = true // compare raw flows and FCTs too

	cfg.Workers = 1
	serial, err := RunFCT(fs, combo, TMA2A, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := RunFCT(fs, combo, TMA2A, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("RunFCT trials: workers=8 differs from workers=1\nserial: %+v\npar:    %+v", serial, par)
	}
	if serial.Flows <= 0 || serial.SimStats.DataPackets == 0 {
		t.Fatalf("degenerate pooled result: %+v", serial)
	}
}

func TestRunFCTMatrixTrialsParallelEqualsSerial(t *testing.T) {
	fs := tinyFabrics(t)
	combo, err := NewCombo("rrg", fs.RRG, "ecmp")
	if err != nil {
		t.Fatal(err)
	}
	m := workload.Uniform(len(fs.RRG.Racks()))
	cfg := fastFCTConfig()
	cfg.MaxFlows = 60
	cfg.Trials = 3
	cfg.Workers = 1
	serial, err := RunFCTMatrix(fs, combo, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := RunFCTMatrix(fs, combo, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("RunFCTMatrix trials: workers=8 differs from workers=1")
	}
}

// TestRunFCTSingleTrialMatchesLegacy pins backward compatibility: Trials=0
// and Trials=1 must both reproduce the classic single-window result exactly,
// regardless of Workers.
func TestRunFCTSingleTrialMatchesLegacy(t *testing.T) {
	fs := tinyFabrics(t)
	combo, err := NewCombo("ls", fs.LeafSpine, "ecmp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastFCTConfig()
	cfg.MaxFlows = 60
	base, err := RunFCT(fs, combo, TMA2A, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, trials := range []int{0, 1} {
		c := cfg
		c.Trials = trials
		c.Workers = 8
		got, err := RunFCT(fs, combo, TMA2A, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Trials=%d Workers=8 differs from the legacy single window", trials)
		}
	}
}

func TestCSRatioHeatmapParallelEqualsSerial(t *testing.T) {
	fs := tinyFabrics(t)
	dr, err := NewCombo("dring", fs.DRing, "su2")
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewCombo("ls", fs.LeafSpine, "ecmp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultThroughputConfig()
	cfg.Workers = 1
	serial, err := CSRatioHeatmap(dr, ls, []int{2, 6}, []int{4, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := CSRatioHeatmap(dr, ls, []int{2, 6}, []int{4, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("CSRatioHeatmap: workers=8 differs from workers=1\nserial: %v\npar:    %v", serial.Cells, par.Cells)
	}
}

func TestScaleSweepParallelEqualsSerial(t *testing.T) {
	cfg := DefaultScaleConfig()
	cfg.TorsPerSupernode = 3
	cfg.Ports = 20
	cfg.FCT = fastFCTConfig()
	cfg.FCT.MaxFlows = 60
	cfg.Workers = 1
	serial, err := ScaleSweep([]int{5, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := ScaleSweep([]int{5, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("ScaleSweep: workers=8 differs from workers=1\nserial: %+v\npar:    %+v", serial, par)
	}
}
