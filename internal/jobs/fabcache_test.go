package jobs

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spineless/internal/core"
	"spineless/internal/store"
)

// runManaged submits sp to m, waits for it and returns its result bytes.
func runManaged(t *testing.T, m *Manager, sp Spec) []byte {
	t.Helper()
	j, cached, err := m.Submit(sp)
	if err != nil || cached {
		t.Fatalf("submit: cached=%v err=%v", cached, err)
	}
	waitTerminal(t, j)
	raw, ok := j.Result()
	if !ok {
		t.Fatalf("job %s ended %s: %s", j.ID, j.State(), j.Status().Error)
	}
	return raw
}

// TestWarmFabricMatchesCold: a job whose fabric and scheme come from a
// warm cache commits the bytes a cold Execute computes, for every golden
// spec at seeds 1–3.
func TestWarmFabricMatchesCold(t *testing.T) {
	m := New(nil, Config{Executors: 1, TrialWorkers: 2})
	defer m.Drain(context.Background())
	for seed := int64(1); seed <= 3; seed++ {
		for _, g := range goldenSpecs(seed) {
			cold := resultBytes(t, g.spec)
			runManaged(t, m, g.spec) // warms the cache
			before := m.Snapshot()
			warm := runManaged(t, m, g.spec)
			after := m.Snapshot()
			if string(warm) != string(cold) {
				t.Errorf("%s seed %d: warm result differs from a cold Execute:\nwarm %s\ncold %s", g.name, seed, warm, cold)
			}
			if g.spec.Kind == "fct" && (after.FabricHits != before.FabricHits+1 || after.FabricMisses != before.FabricMisses) {
				t.Errorf("%s seed %d: second run was no fabric hit: %d/%d hits/misses before, %d/%d after",
					g.name, seed, before.FabricHits, before.FabricMisses, after.FabricHits, after.FabricMisses)
			}
		}
	}
	// The jobs shared the cached graphs read-only: each still equals a
	// fresh build.
	m.fabrics.mu.Lock()
	entries := maps.Clone(m.fabrics.entries)
	m.fabrics.mu.Unlock()
	for k, e := range entries {
		<-e.ready
		g, _, err := core.TrioFabric(k.paper, k.scale, k.fabric, k.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.built.combo.Fabric, g) {
			t.Errorf("%+v: the cached graph no longer equals a fresh build", k)
		}
	}
}

// TestFabricCacheBuildsOnce: callers that ask for one key while its build
// runs wait for that build instead of starting their own.
func TestFabricCacheBuildsOnce(t *testing.T) {
	const callers = 8
	var c fabricCache
	sp := tinySpec().Normalized()
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() (builtFabric, error) {
		builds.Add(1)
		<-release
		return buildFabric(sp)
	}
	got := make([]builtFabric, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := c.get(fabricKeyOf(sp), build)
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}()
	}
	// Release the build once every other caller has found its entry.
	for deadline := time.Now().Add(30 * time.Second); ; {
		if hits, _, _ := c.counts(); hits == callers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("callers never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds of one key, want 1", n)
	}
	for i, b := range got {
		if b.combo.Fabric != got[0].combo.Fabric || b.combo.Scheme != got[0].combo.Scheme {
			t.Fatalf("caller %d got a different build", i)
		}
	}
	if hits, misses, _ := c.counts(); hits != callers-1 || misses != 1 {
		t.Fatalf("%d hits, %d misses; want %d and 1", hits, misses, callers-1)
	}
}

// TestManagerExecutorsShareABuild: two executors running jobs on one
// fabric key — different seeds of an unseeded fabric — build it once.
func TestManagerExecutorsShareABuild(t *testing.T) {
	m := New(nil, Config{Executors: 2, TrialWorkers: 1})
	defer m.Drain(context.Background())
	var jobs []*Job
	for seed := int64(1); seed <= 2; seed++ {
		sp := tinySpec()
		sp.Fabric, sp.Scheme, sp.Seed = "dring", "su2", seed
		j, _, err := m.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitTerminal(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %s ended %s", j.ID, j.State())
		}
	}
	if snap := m.Snapshot(); snap.FabricMisses != 1 || snap.FabricHits != 1 {
		t.Fatalf("%d fabric misses, %d hits; want 1 and 1", snap.FabricMisses, snap.FabricHits)
	}
}

// TestFabricCacheBounded sweeps seeded fabrics through the cache: it never
// holds more than fabricCacheEntries, and it drops the least recently used
// entry first.
func TestFabricCacheBounded(t *testing.T) {
	var c fabricCache
	get := func(seed int64) {
		t.Helper()
		sp := tinySpec()
		sp.Seed = seed
		sp = sp.Normalized()
		if _, err := c.get(fabricKeyOf(sp), func() (builtFabric, error) { return buildFabric(sp) }); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		n := len(c.entries)
		c.mu.Unlock()
		if n > fabricCacheEntries {
			t.Fatalf("cache holds %d entries, bound %d", n, fabricCacheEntries)
		}
	}
	const sweep = 3 * fabricCacheEntries
	for seed := int64(1); seed <= sweep; seed++ {
		get(seed)
	}
	if hits, misses, evictions := c.counts(); hits != 0 || misses != sweep || evictions != sweep-fabricCacheEntries {
		t.Fatalf("%d hits, %d misses, %d evictions after a sweep of %d seeds", hits, misses, evictions, sweep)
	}
	// The cache holds the last fabricCacheEntries seeds. Touch the oldest,
	// add one more: the second oldest goes, the touched one stays.
	oldest := int64(sweep - fabricCacheEntries + 1)
	get(oldest)
	get(sweep + 1)
	hits, misses, _ := c.counts()
	get(oldest)
	get(oldest + 1)
	if h, ms, _ := c.counts(); h != hits+1 || ms != misses+1 {
		t.Fatalf("after touching seed %d and adding seed %d: %d hits and %d misses more, want 1 and 1", oldest, sweep+1, h-hits, ms-misses)
	}
}

// TestFabricCacheKeepsNoFailure: a failed build is returned to every
// caller waiting on it and then forgotten, so the next caller builds
// again.
func TestFabricCacheKeepsNoFailure(t *testing.T) {
	var c fabricCache
	k := fabricKey{fabric: "dring", scheme: "su2", scale: 8}
	fail := func() (builtFabric, error) { return builtFabric{}, fmt.Errorf("no fabric") }
	for i := 0; i < 2; i++ {
		if _, err := c.get(k, fail); err == nil {
			t.Fatal("a failed build returned no error")
		}
	}
	if hits, misses, _ := c.counts(); hits != 0 || misses != 2 {
		t.Fatalf("%d hits, %d misses after two failed builds; want 0 and 2", hits, misses)
	}
}

// TestFabricKeySeedRule: the seed is part of the key only for fabrics
// whose wiring it draws.
func TestFabricKeySeedRule(t *testing.T) {
	for _, tc := range []struct {
		fabric string
		seeded bool
	}{{"leafspine", false}, {"dring", false}, {"debruijn", false}, {"rrg", true}, {"xpander", true}, {"rng", true}} {
		a, b := tinySpec(), tinySpec()
		a.Fabric, b.Fabric, b.Seed = tc.fabric, tc.fabric, a.Seed+1
		if differ := fabricKeyOf(a) != fabricKeyOf(b); differ != tc.seeded {
			t.Errorf("%s: keys of two seeds differ = %v, want %v", tc.fabric, differ, tc.seeded)
		}
	}
}

// TestAuditBypassesFabricCache: the audit of a cache hit re-executes with
// a fabric of its own, neither reading nor filling the fabric cache, so it
// stays independent of what the cache served.
func TestAuditBypassesFabricCache(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, Config{Executors: 1, AuditEvery: 1})
	defer m.Drain(context.Background())
	sp := tinySpec()
	runManaged(t, m, sp)
	if _, cached, err := m.Submit(sp); err != nil || !cached {
		t.Fatalf("expected a result-store hit: cached=%v err=%v", cached, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for m.Snapshot().Audits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the audit never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := m.Snapshot()
	if snap.AuditMismatch != 0 {
		t.Fatal("audit mismatch")
	}
	if snap.FabricHits != 0 || snap.FabricMisses != 1 {
		t.Fatalf("the audit touched the fabric cache: %d hits, %d misses; want 0 and 1", snap.FabricHits, snap.FabricMisses)
	}
}

// TestWarmFabricJobAllocs pins what an fct job at scale 8 allocates when
// its fabric and scheme come from the cache: the trial's workload,
// simulation and result only. It measures 27, against 148 for the same
// job building its fabric and scheme.
func TestWarmFabricJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts; CI pins this in a non-race step")
	}
	var c fabricCache
	sp := tinySpec().Normalized()
	run := func(fc *fabricCache) func() {
		return func() {
			if _, err := execute(context.Background(), sp, 1, nil, nil, fc); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(&c)()
	cold := testing.AllocsPerRun(20, run(nil))
	warm := testing.AllocsPerRun(20, run(&c))
	t.Logf("%.0f allocs cold, %.0f warm", cold, warm)
	if warm > 30 {
		t.Fatalf("a warm-cache job allocates %.0f times, want <= 30", warm)
	}
}

// fabricTraffic is the fct traffic the fabric cache is sized for, as
// sequences of specs one Manager runs in order:
//   - "svc-mix": the benchmark's cold job, one key whatever the seed;
//   - "fig4": Figure 4's cells, its five fabric/scheme combos under each of
//     the seven TMs, for two seeds: five keys per seed, cycled;
//   - "bakeoff": every registry fabric under its native scheme for four
//     seeds: six keys per seed, cycled, three of them seeded;
//   - "rrg-sweep" and "xpander-sweep": a seed sweep on a seeded fabric, a
//     new key every job;
//   - "xpander-su9": the largest entries a spec can name, more seeds than
//     the bound.
func fabricTraffic(topo TopoSpec) []struct {
	name  string
	specs []Spec
} {
	fct := func(fabric, scheme, tm string, seed int64) Spec {
		return Spec{Kind: "fct", Topo: topo, Fabric: fabric, Scheme: scheme, TM: tm,
			Util: 0.3, WindowSec: 0.002, Seed: seed, MaxFlows: 16}
	}
	var svc, fig4, bakeoff, rrgs, xps, su9 []Spec
	for s := int64(1); s <= 24; s++ {
		svc = append(svc, fct("dring", "su2", "A2A", s))
	}
	for s := int64(1); s <= 2; s++ {
		for _, tm := range []string{"A2A", "R2R", "CS-skewed", "FB-skewed", "FB-uniform", "FB-skewed-RP", "FB-uniform-RP"} {
			for _, c := range [][2]string{{"leafspine", "ecmp"}, {"dring", "su2"}, {"rrg", "su2"}, {"dring", "ecmp"}, {"rrg", "ecmp"}} {
				fig4 = append(fig4, fct(c[0], c[1], tm, s))
			}
		}
	}
	for s := int64(1); s <= 4; s++ {
		for _, f := range []string{"leafspine", "dring", "rrg", "xpander", "debruijn", "rng"} {
			bakeoff = append(bakeoff, fct(f, core.NativeScheme(f), "A2A", s))
		}
	}
	for s := int64(1); s <= 20; s++ {
		rrgs = append(rrgs, fct("rrg", "su2", "A2A", s))
		xps = append(xps, fct("xpander", "su2", "A2A", s))
	}
	for s := int64(1); s <= 12; s++ {
		su9 = append(su9, fct("xpander", "su9", "A2A", s))
	}
	return []struct {
		name  string
		specs []Spec
	}{{"svc-mix", svc}, {"fig4", fig4}, {"bakeoff", bakeoff}, {"rrg-sweep", rrgs}, {"xpander-sweep", xps}, {"xpander-su9", su9}}
}

// TestFabricCacheHoldsSweeps: the bound holds the working set of each
// sweep in fabricTraffic, so every key is built once. An LRU cache smaller
// than a sweep's cycle of keys would rebuild every one of them.
func TestFabricCacheHoldsSweeps(t *testing.T) {
	for _, tr := range fabricTraffic(TopoSpec{Paper: true}) {
		if tr.name != "fig4" && tr.name != "bakeoff" {
			continue
		}
		var c fabricCache
		keys := map[fabricKey]bool{}
		for _, sp := range tr.specs {
			k := fabricKeyOf(sp.Normalized())
			keys[k] = true
			if _, err := c.get(k, func() (builtFabric, error) { return builtFabric{}, nil }); err != nil {
				t.Fatal(err)
			}
		}
		if _, misses, _ := c.counts(); misses != uint64(len(keys)) {
			t.Errorf("%s: %d builds of %d keys over %d jobs", tr.name, misses, len(keys), len(tr.specs))
		}
	}
}

// BenchmarkFabricTraffic runs each fabricTraffic sequence at paper scale
// through a fresh Manager. One op is the whole sequence; it reports the
// share of jobs whose fabric was a cache hit, the time and bytes a job
// takes, and the heap the Manager still holds afterwards (its cache).
func BenchmarkFabricTraffic(b *testing.B) {
	for _, tr := range fabricTraffic(TopoSpec{Paper: true}) {
		b.Run(tr.name, func(b *testing.B) {
			b.ReportAllocs()
			var hits uint64
			var retained float64
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				m := New(nil, Config{Executors: 1, TrialWorkers: 1})
				for _, sp := range tr.specs {
					j, _, err := m.Submit(sp)
					if err != nil {
						b.Fatal(err)
					}
					<-j.Terminal()
					if j.State() != StateDone {
						b.Fatalf("%+v: %s", sp, j.Status().Error)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				retained = float64(after.HeapInuse) - float64(before.HeapInuse)
				hits = m.Snapshot().FabricHits
				if err := m.Drain(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(len(tr.specs))
			b.ReportMetric(float64(hits)/n, "hits/job")
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N)/n, "ms/job")
			b.ReportMetric(retained/(1<<20), "retained-MiB")
		})
	}
}
