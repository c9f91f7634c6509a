package topology

import (
	"errors"
	"math/rand"
	"testing"
)

// TestDeBruijnDeterministic pins DeBruijn construction, which — like DRing —
// must be fully deterministic without a seed: the builder uses no randomness,
// so two builds of one spec are identical, not merely isomorphic.
func TestDeBruijnDeterministic(t *testing.T) {
	for _, spec := range []DeBruijnSpec{
		{Symbols: 2, Digits: 4, Ports: 8},
		{Symbols: 3, Digits: 2, Ports: 10}, // dense: exercises the backtracking regularizer
		{Symbols: 9, Digits: 2, Ports: 64}, // the ×1 bake-off fit
	} {
		build := func() *Graph {
			g, err := DeBruijn(spec)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		if a, b := adjacencySerialization(build()), adjacencySerialization(build()); a != b {
			t.Fatalf("DeBruijn%+v constructions differ:\n%s\nvs\n%s", spec, a, b)
		}
	}
}

// TestDeBruijnStructure pins the builder's structural invariants: exact
// degree regularity at min(2k, N-1), connectivity, every directed shift
// edge present (self-routing depends on all of them), servers on every
// spare port, and a consistent Graph.
func TestDeBruijnStructure(t *testing.T) {
	for _, spec := range []DeBruijnSpec{
		{Symbols: 2, Digits: 3, Ports: 8},
		{Symbols: 2, Digits: 7, Ports: 16},
		{Symbols: 3, Digits: 2, Ports: 10},
		{Symbols: 13, Digits: 2, Ports: 64},
	} {
		g, err := DeBruijn(spec)
		if err != nil {
			t.Fatalf("DeBruijn%+v: %v", spec, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("DeBruijn%+v invalid: %v", spec, err)
		}
		if !g.Connected() {
			t.Fatalf("DeBruijn%+v disconnected", spec)
		}
		n, target := spec.Switches(), spec.NetworkDegree()
		if g.N() != n {
			t.Fatalf("DeBruijn%+v: %d switches, want %d", spec, g.N(), n)
		}
		for v := 0; v < n; v++ {
			if d := g.NetworkDegree(v); d != target {
				t.Fatalf("DeBruijn%+v: switch %d has degree %d, want %d", spec, v, d, target)
			}
			if s := g.ServerCount(v); s != spec.Ports-target {
				t.Fatalf("DeBruijn%+v: switch %d hosts %d servers, want %d", spec, v, s, spec.Ports-target)
			}
			for y := 0; y < spec.Symbols; y++ {
				if w := (v*spec.Symbols + y) % n; w != v && !g.HasLink(v, w) {
					t.Fatalf("DeBruijn%+v: missing shift edge %d-%d", spec, v, w)
				}
			}
		}
		got, ok := InferDeBruijn(g)
		if !ok || got != spec {
			t.Fatalf("InferDeBruijn = %+v, %v; want %+v, true", got, ok, spec)
		}
	}
}

// TestDeBruijnRejects pins the clear-error contract for infeasible specs.
func TestDeBruijnRejects(t *testing.T) {
	for _, spec := range []DeBruijnSpec{
		{Symbols: 1, Digits: 3, Ports: 8},  // degenerate alphabet
		{Symbols: 4, Digits: 1, Ports: 16}, // no shift structure
		{Symbols: 4, Digits: 2, Ports: 8},  // degree 8 = radix: no server ports
	} {
		if _, err := DeBruijn(spec); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("DeBruijn%+v = %v, want ErrInfeasible", spec, err)
		}
	}
}

// TestFitDeBruijn pins the equipment-fitting heuristic the bake-off uses:
// closest switch count first, degree closest to the budget on ties.
func TestFitDeBruijn(t *testing.T) {
	got, err := FitDeBruijn(80, 64, 26)
	if err != nil {
		t.Fatal(err)
	}
	if want := (DeBruijnSpec{Symbols: 9, Digits: 2, Ports: 64}); got != want {
		t.Fatalf("FitDeBruijn(80, 64, 26) = %+v, want %+v", got, want)
	}
	got, err = FitDeBruijn(160, 64, 26)
	if err != nil {
		t.Fatal(err)
	}
	if want := (DeBruijnSpec{Symbols: 13, Digits: 2, Ports: 64}); got != want {
		t.Fatalf("FitDeBruijn(160, 64, 26) = %+v, want %+v", got, want)
	}
	if _, err := FitDeBruijn(3, 64, 26); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("FitDeBruijn(3, ...) = %v, want ErrInfeasible", err)
	}
}

// TestInferDeBruijnRejectsOtherFabrics: spec recovery must not hallucinate
// shift structure on fabrics that merely have the right switch count.
func TestInferDeBruijnRejectsOtherFabrics(t *testing.T) {
	g, err := RRG("rrg", regular(16, 6), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if spec, ok := InferDeBruijn(g); ok {
		t.Fatalf("InferDeBruijn(rrg) = %+v, true; want false", spec)
	}
}
