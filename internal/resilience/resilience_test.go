package resilience

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spineless/internal/bgp"
	"spineless/internal/routing"
	"spineless/internal/topology"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(13)) }

func ringFabric(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.DRing(topology.Uniform(6, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFailRandomLinksCounts(t *testing.T) {
	g := ringFabric(t)
	before := g.Links()
	failed, fs, err := FailRandomLinks(g, 0.25, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	want := int(float64(before)*0.25 + 0.5)
	if len(fs) != want {
		t.Fatalf("failed %d links, want %d", len(fs), want)
	}
	if failed.Links() != before-want {
		t.Fatalf("remaining links = %d", failed.Links())
	}
	// Original untouched.
	if g.Links() != before {
		t.Fatal("original fabric mutated")
	}
	if err := failed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFailRandomLinksClamps(t *testing.T) {
	g := ringFabric(t)
	all, fs, err := FailRandomLinks(g, 2.0, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if all.Links() != 0 || len(fs) != g.Links() {
		t.Fatal("fraction > 1 not clamped to all links")
	}
	none, fs2, err := FailRandomLinks(g, -1, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if none.Links() != g.Links() || len(fs2) != 0 {
		t.Fatal("negative fraction not clamped to none")
	}
}

func TestFailRandomLinksQuick(t *testing.T) {
	f := func(seed int64, fRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.DRing(topology.Uniform(5, 2, 20))
		if err != nil {
			return false
		}
		frac := float64(fRaw) / 255
		failed, fs, err := FailRandomLinks(g, frac, rng)
		if err != nil {
			return false
		}
		return failed.Links()+len(fs) == g.Links() && failed.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFailRandomLinksPreserveConnectivity(t *testing.T) {
	// A 4-rack ring: any single-link cut keeps it connected, but heavy
	// fractions partition it easily without the option.
	g := topology.New("ring4", 4, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 4; v++ {
		g.SetServers(v, 1)
	}
	opt := FailOptions{PreserveConnectivity: true}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		failed, fs, err := FailRandomLinksOpt(g, 0.25, rng, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != 1 {
			t.Fatalf("seed %d: failed %d links, want 1", seed, len(fs))
		}
		if !racksConnected(failed) {
			t.Fatalf("seed %d: PreserveConnectivity returned a partitioned fabric", seed)
		}
	}
	// With a chord added, some 2-link cuts partition (isolating a rack) and
	// some don't; every accepted draw must be connected.
	chord := g.Clone()
	if err := chord.AddLink(0, 2); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		failed, fs, err := FailRandomLinksOpt(chord, 0.4, rng, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != 2 {
			t.Fatalf("seed %d: failed %d links, want 2", seed, len(fs))
		}
		if !racksConnected(failed) {
			t.Fatalf("seed %d: partitioned despite PreserveConnectivity", seed)
		}
	}
	// Impossible demand (all links) must error, not loop or partition.
	if _, _, err := FailRandomLinksOpt(g, 1.0, testRNG(), FailOptions{PreserveConnectivity: true, MaxAttempts: 5}); err == nil {
		t.Fatal("connectivity-preserving cut of every link accepted")
	}
	// Default behavior is unchanged: the same seed yields the same draw
	// with and without the zero options.
	a, fsA, err := FailRandomLinks(ringFabric(t), 0.25, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	b, fsB, err := FailRandomLinksOpt(ringFabric(t), 0.25, testRNG(), FailOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Links() != b.Links() || len(fsA) != len(fsB) {
		t.Fatal("zero-option draw differs from FailRandomLinks")
	}
	for i := range fsA {
		if fsA[i] != fsB[i] {
			t.Fatalf("draw diverged at %d: %+v vs %+v", i, fsA[i], fsB[i])
		}
	}
}

func TestComparePathsNoFailures(t *testing.T) {
	g := ringFabric(t)
	rep, err := ComparePaths(g, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disconnected != 0 || math.Abs(rep.MeanDilation-1) > 1e-9 || rep.MaxDilation != 1 {
		t.Fatalf("identity comparison = %+v", rep)
	}
}

func TestComparePathsDetectsDilationAndPartition(t *testing.T) {
	// Path 0-1-2 with shortcut 0-2: removing the shortcut dilates 0→2 to 2.
	g := topology.New("tri", 3, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SetServers(0, 1)
	g.SetServers(1, 1)
	g.SetServers(2, 1)
	after := g.Clone()
	after.RemoveLink(0, 2)
	rep, err := ComparePaths(g, after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDilation != 2 {
		t.Fatalf("max dilation = %v, want 2", rep.MaxDilation)
	}
	// Now partition node 2 entirely.
	after.RemoveLink(1, 2)
	rep, err = ComparePaths(g, after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disconnected != 4 { // (0,2),(2,0),(1,2),(2,1)
		t.Fatalf("disconnected = %d, want 4", rep.Disconnected)
	}
}

func TestComparePathsSizeMismatch(t *testing.T) {
	if _, err := ComparePaths(topology.New("a", 2, 1), topology.New("b", 3, 1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestCompareDiversity(t *testing.T) {
	g := ringFabric(t)
	failed, _, err := FailRandomLinks(g, 0.15, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if !failed.Connected() {
		t.Skip("sampled failure disconnected the tiny fabric")
	}
	sb, err := routing.NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := routing.NewShortestUnion(failed, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := CompareDiversity(g, failed, sb, sa, 40, 0, testRNG())
	if rep.MeanPathsBefore <= 0 || rep.MeanPathsAfter <= 0 {
		t.Fatalf("diversity = %+v", rep)
	}
	if rep.MeanPathsAfter > rep.MeanPathsBefore {
		t.Fatalf("failures increased diversity: %+v", rep)
	}
	if rep.MinPathsAfter < 1 {
		t.Fatalf("connected fabric has pair with no paths: %+v", rep)
	}
}

// everyRouter lists routers 0..n-1: ConvergeDirty's dense warm start.
func everyRouter(n int) []int {
	all := make([]int, n)
	for r := range all {
		all[r] = r
	}
	return all
}

func TestBGPReconvergenceAfterFailure(t *testing.T) {
	g := ringFabric(t)
	net, err := bgp.Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rib, fresh, err := net.Converge()
	if err != nil {
		t.Fatal(err)
	}
	// Re-converging from the fixpoint on the same fabric is immediate.
	_, again, err := net.ConvergeDirty(rib, everyRouter(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if again != 1 {
		t.Fatalf("fixpoint reconvergence took %d rounds, want 1", again)
	}
	// After failing links, reconvergence from stale state must still land on
	// a Theorem-1-correct RIB.
	failed, _, err := FailRandomLinks(g, 0.1, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if !failed.Connected() {
		t.Skip("failure disconnected the tiny fabric")
	}
	failedNet, err := bgp.Build(failed, 2)
	if err != nil {
		t.Fatal(err)
	}
	rib2, rounds, err := failedNet.ConvergeDirty(rib, everyRouter(failed.N()))
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 2 {
		t.Fatalf("reconvergence after failure took %d rounds (< fresh %d is fine, but 1 is suspicious)", rounds, fresh)
	}
	if err := bgp.VerifyTheorem1(failedNet, rib2); err != nil {
		t.Fatal(err)
	}
	// Incremental reconvergence should match a fresh convergence's RIB.
	ribFresh, _, err := failedNet.Converge()
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range failedNet.Nodes() {
		for d := 0; d < failed.N(); d++ {
			if rib2[node][d].ASPathLen != ribFresh[node][d].ASPathLen {
				t.Fatalf("incremental RIB differs from fresh at %v→r%d: %d vs %d",
					node, d, rib2[node][d].ASPathLen, ribFresh[node][d].ASPathLen)
			}
		}
	}
}

func TestStudyEndToEnd(t *testing.T) {
	g := ringFabric(t)
	cfg := DefaultStudyConfig()
	cfg.Fractions = []float64{0, 0.05}
	cfg.Flows = 60
	cfg.Samples = 20
	rows, err := Study(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	zero := rows[0]
	if zero.FailedLinks != 0 || !zero.Connected || math.Abs(zero.Paths.MeanDilation-1) > 1e-9 {
		t.Fatalf("zero-failure row = %+v", zero)
	}
	if zero.ReconvRounds != 1 {
		t.Fatalf("zero-failure reconvergence rounds = %d", zero.ReconvRounds)
	}
	some := rows[1]
	if some.FailedLinks == 0 {
		t.Fatal("5% failures removed no links")
	}
	if some.Connected && some.P99FCTms <= 0 {
		t.Fatalf("missing FCT on connected degraded fabric: %+v", some)
	}
	if Table(rows) == "" {
		t.Fatal("empty table")
	}
}

func TestStudyRejectsBadK(t *testing.T) {
	g := ringFabric(t)
	cfg := DefaultStudyConfig()
	cfg.K = 1
	if _, err := Study(g, cfg); err == nil {
		t.Fatal("K=1 accepted")
	}
}
