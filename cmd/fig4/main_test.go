package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spineless/internal/core"
	"spineless/internal/store"
	"spineless/internal/workload"
)

// testRow returns a small fabric trio's first three combos and a fast FCT
// configuration for them.
func testRow(t *testing.T) (*core.FabricSet, []core.Combo, core.FCTConfig) {
	t.Helper()
	fs, err := core.ScaledFabrics(8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	combos, err := core.PaperCombos(fs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultFCTConfig()
	cfg.WindowSec = 0.002
	cfg.MaxFlows = 60
	cfg.Sizes = workload.Pareto{MeanBytes: 20e3, Alpha: 1.05, Cap: 200e3}
	cfg.Net.MaxSimTime = 5 * time.Second
	return fs, combos[:3], cfg
}

// TestCachedFig4RowParallelEqualsSerial: one row's cells are independent,
// so eight workers return exactly what one does, in combo order.
func TestCachedFig4RowParallelEqualsSerial(t *testing.T) {
	fs, combos, cfg := testRow(t)
	cfg.Workers = 1
	serial, err := cachedFig4Row(nil, fs, combos, core.TMA2A, cfg, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(combos) {
		t.Fatalf("%d results for %d combos", len(serial), len(combos))
	}
	for i, r := range serial {
		if r.Combo != combos[i].Label {
			t.Fatalf("result %d is %q, want combo order (%q)", i, r.Combo, combos[i].Label)
		}
	}
	cfg.Workers = 8
	par, err := cachedFig4Row(nil, fs, combos, core.TMA2A, cfg, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("cachedFig4Row: workers=8 differs from workers=1")
	}
}

// TestCachedFig4RowServesHits: a second call on the same store serves every
// cell from the cache and returns the cold call's results.
func TestCachedFig4RowServesHits(t *testing.T) {
	fs, combos, cfg := testRow(t)
	var mu sync.Mutex
	outcomes := map[string]int{}
	cache, err := store.OpenCache(t.TempDir(), "fig4", func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		outcomes[strings.Fields(fmt.Sprintf(format, args...))[1]]++
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	cold, err := cachedFig4Row(cache, fs, combos, core.TMA2A, cfg, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cachedFig4Row(cache, fs, combos, core.TMA2A, cfg, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached row differs from the cold row:\ncold %+v\nwarm %+v", cold, warm)
	}
	if want := map[string]int{"miss": len(combos), "hit": len(combos)}; !reflect.DeepEqual(outcomes, want) {
		t.Fatalf("cache outcomes %v, want %v", outcomes, want)
	}
}
