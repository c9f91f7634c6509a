package main

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spineless/internal/core"
	"spineless/internal/resilience"
	"spineless/internal/store"
	"spineless/internal/topology"
)

// liveSweep runs the live sweep on a 12-ToR ring at fractions 0.05 and 1.0.
// Fraction 1.0 cannot preserve connectivity, so that trial always fails.
func liveSweep(t *testing.T, cache *store.Cache, workers int) ([]resilience.LiveResult, error) {
	t.Helper()
	g, err := topology.DRing(topology.Uniform(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	cfg := resilience.DefaultLiveConfig()
	cfg.Flows = 120
	cfg.PreserveConnectivity = true
	base := cellSpec{
		V: 1, Mode: "live", Topo: "dring", Supernodes: 6, Tors: 2, Ports: 20,
		K: cfg.K, Flows: cfg.Flows, Seed: cfg.Seed, Preserve: true,
	}
	return cachedLiveSweep(cache, g, cfg, []float64{0.05, 1.0}, workers, base)
}

// TestCachedLiveSweepParallelEqualsSerial: a failed fraction contributes
// one TrialError and no row while the other fraction's row survives, and
// eight workers return exactly the rows and errors one worker does.
func TestCachedLiveSweepParallelEqualsSerial(t *testing.T) {
	serialRows, serialErr := liveSweep(t, nil, 1)
	parRows, parErr := liveSweep(t, nil, 8)
	for _, err := range []error{serialErr, parErr} {
		var terrs core.TrialErrors
		if !errors.As(err, &terrs) || len(terrs) != 1 {
			t.Fatalf("want 1 aggregated trial error, got %v", err)
		}
	}
	if len(serialRows) != 1 || serialRows[0].Fraction != 0.05 {
		t.Fatalf("surviving rows = %+v, want the 0.05 row alone", serialRows)
	}
	if resilience.LiveTable(serialRows) == "" {
		t.Fatal("empty live table")
	}
	if !reflect.DeepEqual(serialRows, parRows) {
		t.Fatalf("rows: workers=8 differs from workers=1\nserial: %+v\npar:    %+v", serialRows, parRows)
	}
	if serialErr.Error() != parErr.Error() {
		t.Fatalf("errors differ:\nserial: %v\npar:    %v", serialErr, parErr)
	}
}

// TestCachedLiveSweepServesHits: a second sweep on the same store serves
// the surviving fraction from the cache and returns the cold sweep's rows;
// the failed fraction was never cached and fails again.
func TestCachedLiveSweepServesHits(t *testing.T) {
	var mu sync.Mutex
	outcomes := map[string]int{}
	cache, err := store.OpenCache(t.TempDir(), "failures", func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		outcomes[strings.Fields(fmt.Sprintf(format, args...))[1]]++
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cold, coldErr := liveSweep(t, cache, 2)
	warm, warmErr := liveSweep(t, cache, 2)
	if coldErr == nil || warmErr == nil || coldErr.Error() != warmErr.Error() {
		t.Fatalf("errors: cold %v, warm %v; want the same trial error twice", coldErr, warmErr)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached rows differ from the cold rows:\ncold %+v\nwarm %+v", cold, warm)
	}
	if want := map[string]int{"miss": 1, "hit": 1}; !reflect.DeepEqual(outcomes, want) {
		t.Fatalf("cache outcomes %v, want %v", outcomes, want)
	}
}
