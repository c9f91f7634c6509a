package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spineless/internal/topology"
)

// fabricPin is one golden fabric: its equipment and an FNV-64a digest of
// its sorted edge list followed by its per-switch server counts.
type fabricPin struct {
	budget, name      string
	seed              int64
	switches, servers int
	maxDegree         int
	digest            uint64
}

// registryGolden was recorded from the per-caller builds the registry
// replaced: "uniform" as cmd/failures built its fabrics on
// DRing(Uniform(8, 2, 24)), "balanced" as the bake-off built them on
// DRing(BalancedDRing(80, 12, 64)) from a fresh rand.NewSource(seed), and
// "trio" as the job runner picked them from ScaledFabrics(4) seeded with
// seed, flat fabrics through ExtraFabric. "sweep" pins the RRG the Figure 6
// sweep matched to each numerator on the uniform DRing, drawn from the rng
// that built the numerator.
var registryGolden = []fabricPin{
	{"uniform", "dring", 1, 16, 256, 8, 0xc951318e7849dff5},
	{"uniform", "rrg", 1, 16, 256, 8, 0xf3bde392f1f104df},
	{"uniform", "xpander", 1, 18, 288, 8, 0x6702799b704c6739},
	{"uniform", "debruijn", 1, 16, 256, 8, 0x8c7fbaf09ae55879},
	{"uniform", "rng", 1, 16, 256, 8, 0xea9c7ca8d9e20d77},
	{"balanced", "dring", 1, 80, 2992, 28, 0x99e4d52c06891f4f},
	{"balanced", "rrg", 1, 80, 2992, 28, 0xc698547abf86ad99},
	{"balanced", "xpander", 1, 108, 4039, 26, 0x3411d92b39c11ba4},
	{"balanced", "debruijn", 1, 81, 3726, 18, 0xf7b8053fb3af7195},
	{"balanced", "rng", 1, 80, 3040, 26, 0x966175aa9a944ea5},
	{"trio", "leafspine", 1, 20, 192, 16, 0xce307a340f733651},
	{"trio", "dring", 1, 20, 198, 7, 0xe23e7ce3b7a6c41d},
	{"trio", "rrg", 1, 20, 192, 7, 0xcab1909995a3357d},
	{"trio", "xpander", 1, 28, 268, 6, 0x96c158d630af238f},
	{"trio", "debruijn", 1, 16, 192, 4, 0x9124087c4ec0bdef},
	{"trio", "rng", 1, 20, 200, 6, 0x9f8cec13b1bb9e97},
	{"uniform", "dring", 2, 16, 256, 8, 0xc951318e7849dff5},
	{"uniform", "rrg", 2, 16, 256, 8, 0x9ad1d272a76930a1},
	{"uniform", "xpander", 2, 18, 288, 8, 0xcdc60eabaeae90bf},
	{"uniform", "debruijn", 2, 16, 256, 8, 0x8c7fbaf09ae55879},
	{"uniform", "rng", 2, 16, 256, 8, 0xa90ba1586f95436b},
	{"balanced", "dring", 2, 80, 2992, 28, 0x99e4d52c06891f4f},
	{"balanced", "rrg", 2, 80, 2992, 28, 0x1c8b6537b0e5e7d3},
	{"balanced", "xpander", 2, 108, 4039, 26, 0x3fb52724b0838044},
	{"balanced", "debruijn", 2, 81, 3726, 18, 0xf7b8053fb3af7195},
	{"balanced", "rng", 2, 80, 3040, 26, 0x184105c5efab7ed7},
	{"trio", "leafspine", 2, 20, 192, 16, 0xce307a340f733651},
	{"trio", "dring", 2, 20, 198, 7, 0xe23e7ce3b7a6c41d},
	{"trio", "rrg", 2, 20, 192, 7, 0xe147e32dd798f2ad},
	{"trio", "xpander", 2, 28, 268, 6, 0xc28a70659d895d0f},
	{"trio", "debruijn", 2, 16, 192, 4, 0x9124087c4ec0bdef},
	{"trio", "rng", 2, 20, 200, 6, 0xa2abad52b97c2c5b},
	{"sweep", "dring", 1, 16, 256, 8, 0xf3bde392f1f104df},
	{"sweep", "xpander", 1, 18, 288, 8, 0xc14fa779659ed08f},
	{"sweep", "debruijn", 1, 16, 256, 8, 0xf3bde392f1f104df},
	{"sweep", "rng", 1, 16, 256, 8, 0xe1445b371d16e06f},
	{"sweep", "dring", 2, 16, 256, 8, 0x9ad1d272a76930a1},
	{"sweep", "xpander", 2, 18, 288, 8, 0x85312f12aff95497},
	{"sweep", "debruijn", 2, 16, 256, 8, 0x9ad1d272a76930a1},
	{"sweep", "rng", 2, 16, 256, 8, 0x85d509c57715c243},
}

func pinOf(budget, name string, seed int64, g *topology.Graph) fabricPin {
	var edges [][2]int
	maxDeg := 0
	for u := 0; u < g.N(); u++ {
		maxDeg = max(maxDeg, g.NetworkDegree(u))
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	slices.SortFunc(edges, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	h := fnv.New64a()
	for _, e := range edges {
		fmt.Fprintf(h, "%d-%d;", e[0], e[1])
	}
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(h, "s%d;", g.ServerCount(v))
	}
	return fabricPin{budget, name, seed, g.N(), g.Servers(), maxDeg, h.Sum64()}
}

// TestRegistryGolden is the registry's oracle: OnDRing on a uniform and a
// balanced DRing, and FabricSet.Fabric on the scale-4 trio, build exactly
// the fabrics their callers built before they shared one registry —
// every build drawing its random numbers in the same order.
func TestRegistryGolden(t *testing.T) {
	for _, want := range registryGolden {
		var g *topology.Graph
		var err error
		switch want.budget {
		case "uniform", "balanced", "sweep":
			spec := topology.Uniform(8, 2, 24)
			if want.budget == "balanced" {
				spec = topology.BalancedDRing(80, 12, 64)
			}
			dr, derr := topology.DRing(spec)
			if derr != nil {
				t.Fatal(derr)
			}
			rng := rand.New(rand.NewSource(want.seed))
			g, err = OnDRing(want.name, dr, rng)
			if err == nil && want.budget == "sweep" {
				g, err = MatchedRRG(g, rng)
			}
		case "trio":
			fs, ferr := ScaledFabrics(4, rand.New(rand.NewSource(want.seed)))
			if ferr != nil {
				t.Fatal(ferr)
			}
			g, err = fs.Fabric(want.name, want.seed)
		}
		if err != nil {
			t.Fatalf("%s %s seed %d: %v", want.budget, want.name, want.seed, err)
		}
		if got := pinOf(want.budget, want.name, want.seed, g); got != want {
			t.Errorf("%s %s seed %d:\n got %+v\nwant %+v", want.budget, want.name, want.seed, got, want)
		}
	}
}

func TestRegistryRejectsUnknownNames(t *testing.T) {
	fs, err := ScaledFabrics(4, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Fabric("mesh", 1); err == nil || !strings.Contains(err.Error(), "rng") {
		t.Fatalf("Fabric(mesh) = %v, want an error naming the menu", err)
	}
	for _, name := range []string{"mesh", "leafspine"} {
		if _, err := OnDRing(name, fs.DRing, testRNG()); err == nil {
			t.Fatalf("OnDRing(%q) built a fabric", name)
		}
	}
}

// TestFlatFabricRNGRoundsOddBudgetDown: perfect matchings need an even
// switch count, so the 15 switches of a 5-supernode, 3-ToR DRing build an
// RNG of 14 at the budget's degree, every spare port hosting a server.
func TestFlatFabricRNGRoundsOddBudgetDown(t *testing.T) {
	g, err := FlatFabric("rng", 15, 20, 120, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 14 || !g.Connected() {
		t.Fatalf("%d switches, connected %v; want a connected fabric of 14", g.N(), g.Connected())
	}
	for v := 0; v < g.N(); v++ {
		if d, s := g.NetworkDegree(v), g.ServerCount(v); d != 12 || s != 8 {
			t.Fatalf("switch %d: degree %d with %d servers, want 12 with 8", v, d, s)
		}
	}
}

func TestNativeScheme(t *testing.T) {
	for name, want := range map[string]string{
		"leafspine": "su2", "dring": "su2", "rrg": "su2",
		"xpander": "su2", "debruijn": "selfroute", "rng": "spvlb",
	} {
		if got := NativeScheme(name); got != want {
			t.Errorf("NativeScheme(%q) = %q, want %q", name, got, want)
		}
	}
}

// malformedSchemes are scheme names with a K that is not one decimal
// digit; NewCombo once read K from the byte value ("sux" ran
// Shortest-Union(72), "ksp/" ran KSP(255)).
var malformedSchemes = []string{"sux", "su:", "ksp/", "kspx", "wsu~", "su", "su22", "SU2", ""}

// belowMinimumSchemes have a K under routing's minimum for their family,
// which NewCombo rejects only once it has a fabric to build on.
var belowMinimumSchemes = []string{"su0", "su1", "wsu0", "wsu1", "ksp0"}

// TestCheckCombo pins the name-only check jobs.Validate relies on: the
// fabric menu, NewCombo's scheme grammar with routing's minimum K, and
// selfroute on De Bruijn only.
func TestCheckCombo(t *testing.T) {
	for _, scheme := range []string{"ecmp", "wcmp", "vlb", "spvlb", "su2", "su9", "wsu2", "wsu3", "ksp1", "ksp4"} {
		if err := CheckCombo("dring", scheme); err != nil {
			t.Errorf("CheckCombo(dring, %q): %v", scheme, err)
		}
	}
	for _, scheme := range malformedSchemes {
		if err := CheckCombo("dring", scheme); err == nil {
			t.Errorf("CheckCombo(dring, %q) accepted a malformed scheme", scheme)
		}
	}
	fs := tinyFabrics(t)
	for _, scheme := range belowMinimumSchemes {
		if err := CheckCombo("dring", scheme); err == nil {
			t.Errorf("CheckCombo(dring, %q) accepted a K below routing's minimum", scheme)
		}
		if _, err := NewCombo("x", fs.DRing, scheme); err == nil {
			t.Errorf("NewCombo(%q) accepted a K below routing's minimum", scheme)
		}
	}
	for _, tc := range []struct {
		fabric, scheme string
		ok             bool
	}{
		{"debruijn", "selfroute", true},
		{"rng", "spvlb", true},
		{"leafspine", "ecmp", true},
		{"dring", "selfroute", false},
		{"xpander", "selfroute", false},
		{"mesh", "su2", false},
		{"", "su2", false},
	} {
		if err := CheckCombo(tc.fabric, tc.scheme); (err == nil) != tc.ok {
			t.Errorf("CheckCombo(%q, %q) error = %v, want ok=%v", tc.fabric, tc.scheme, err, tc.ok)
		}
	}
}
