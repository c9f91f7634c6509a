package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spineless/internal/topology"
)

// TestAppendPathMatchesPath holds every Scheme implementation to the
// AppendPath contract: for random (src, dst, flowID), AppendPath onto a
// non-empty prefix leaves the prefix alone and appends exactly what Path
// returns (nothing, for an unreachable pair), and it allocates nothing
// when the buffer has room.
func TestAppendPathMatchesPath(t *testing.T) {
	dring, err := topology.DRing(topology.Uniform(8, 2, 24))
	if err != nil {
		t.Fatal(err)
	}
	// A switch stripped of its links makes some pairs unreachable.
	split := dring.Clone()
	for _, w := range slices.Clone(split.Neighbors(0)) {
		split.RemoveLink(0, w)
	}
	rng, err := topology.RNG(topology.RNGSpec{Switches: 20, Degree: 4, Ports: 10}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	_, debruijn := buildDeBruijn(t, topology.DeBruijnSpec{Symbols: 4, Digits: 3, Ports: 12})
	su2, err := NewShortestUnion(dring, 2)
	if err != nil {
		t.Fatal(err)
	}
	ksp, err := NewKSP(dring, 4)
	if err != nil {
		t.Fatal(err)
	}
	ecmp := NewECMP(dring)
	tv, err := NewTimeVarying(Phase{StartNS: 0, Scheme: su2}, Phase{StartNS: 1e6, Scheme: ecmp})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		n      int // switches
		scheme Scheme
	}{
		{"ecmp", dring.N(), ecmp},
		{"ecmp with an unreachable switch", split.N(), NewECMP(split)},
		{"shortest-union(2)", dring.N(), su2},
		{"wcmp", dring.N(), NewWeighted(su2)},
		{"ksp", dring.N(), ksp},
		{"vlb", dring.N(), NewVLB(dring)},
		{"spvlb", rng.N(), NewSPVLB(rng)},
		{"selfroute", debruijn.n, debruijn},
		{"time-varying", dring.N(), tv},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			type query struct {
				src, dst int
				id       uint64
			}
			queries := make([]query, 300)
			for i := range queries {
				queries[i] = query{r.Intn(c.n), r.Intn(c.n), r.Uint64()}
			}
			queries[0].dst = queries[0].src
			prefix := []int{-7, 42}
			for _, q := range queries {
				want := c.scheme.Path(q.src, q.dst, q.id)
				got := c.scheme.AppendPath(slices.Clone(prefix), q.src, q.dst, q.id)
				if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
					t.Fatalf("AppendPath(%v, %d, %d, %d) = %v, want the prefix then Path's %v", prefix, q.src, q.dst, q.id, got, want)
				}
			}
			if pw, ok := c.scheme.(Prewarmer); ok {
				pw.Prewarm()
			}
			buf := make([]int, len(prefix), 64)
			i := 0
			if allocs := testing.AllocsPerRun(200, func() {
				q := queries[i%len(queries)]
				buf = c.scheme.AppendPath(buf[:len(prefix)], q.src, q.dst, q.id)
				i++
			}); allocs != 0 {
				t.Fatalf("AppendPath allocates %.1f objects per run with room in the buffer, want 0", allocs)
			}
		})
	}
}

// checkPath validates that a path is simple at the switch level and starts
// and ends at the given endpoints.
func checkPath(p []int, src, dst int) error {
	if len(p) == 0 {
		return fmt.Errorf("routing: empty path")
	}
	if p[0] != src || p[len(p)-1] != dst {
		return fmt.Errorf("routing: path %v does not connect %d to %d", p, src, dst)
	}
	seen := make(map[int]bool, len(p))
	for _, v := range p {
		if seen[v] {
			return fmt.Errorf("routing: path %v revisits switch %d", p, v)
		}
		seen[v] = true
	}
	return nil
}
