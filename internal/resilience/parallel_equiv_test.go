package resilience

import (
	"reflect"
	"testing"
)

// These tests pin the determinism-under-parallelism contract of the failure
// sweeps: the same config at workers=1 and workers=8 must produce identical
// rows (and identical aggregated trial errors, in fraction order).

func TestStudyParallelEqualsSerial(t *testing.T) {
	g := ringFabric(t)
	cfg := DefaultStudyConfig()
	cfg.Fractions = []float64{0, 0.05, 0.10}
	cfg.Flows = 60
	cfg.Samples = 20

	cfg.Workers = 1
	serial, err := Study(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := Study(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("Study: workers=8 differs from workers=1\nserial: %+v\npar:    %+v", serial, par)
	}
}
