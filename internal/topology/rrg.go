package topology

import (
	"fmt"
	"math/rand"
)

// RRG builds a random graph with the given per-switch network-degree
// sequence via stub matching (the Jellyfish construction [23]), rejecting
// self-loops and parallel links with bounded local repair. All switches are
// created server-less; callers attach servers afterwards (see Flatten).
//
// The degree sequence must have an even sum. RRG retries whole constructions
// when repair fails, and returns ErrInfeasible after exhausting attempts
// (which only happens for adversarial degree sequences).
func RRG(name string, degrees []int, rng *rand.Rand) (*Graph, error) {
	sum := 0
	for i, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("rrg: negative degree %d at switch %d: %w", d, i, ErrInfeasible)
		}
		sum += d
	}
	if sum%2 != 0 {
		return nil, fmt.Errorf("rrg: odd degree sum %d: %w", sum, ErrInfeasible)
	}
	const attempts = 200
	for a := 0; a < attempts; a++ {
		g, ok := rrgAttempt(name, degrees, rng)
		if ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("rrg: no simple graph found for degree sequence after %d attempts: %w", attempts, ErrInfeasible)
}

// rrgAttempt performs one stub-matching pass followed by edge-swap repair.
func rrgAttempt(name string, degrees []int, rng *rand.Rand) (*Graph, bool) {
	n := len(degrees)
	var stubs []int
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	type edge struct{ a, b int }
	edges := make([]edge, 0, len(stubs)/2)
	have := make(map[[2]int]bool, len(stubs)/2)
	key := func(a, b int) [2]int { return [2]int{min(a, b), max(a, b)} }

	var bad []edge // self-loops or duplicates needing repair
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		k := key(a, b)
		if a == b || have[k] {
			bad = append(bad, edge{a, b})
			continue
		}
		have[k] = true
		edges = append(edges, edge{a, b})
	}

	// Repair: for each bad pair (a,b), pick a random existing edge (c,d) and
	// rewire to (a,c) and (b,d) if both are new simple edges.
	for _, e := range bad {
		repaired := false
		for t := 0; t < 200 && len(edges) > 0; t++ {
			j := rng.Intn(len(edges))
			o := edges[j]
			c, d := o.a, o.b
			if rng.Intn(2) == 0 {
				c, d = d, c
			}
			if e.a == c || e.b == d || have[key(e.a, c)] || have[key(e.b, d)] {
				continue
			}
			delete(have, key(o.a, o.b))
			edges[j] = edge{e.a, c}
			have[key(e.a, c)] = true
			edges = append(edges, edge{e.b, d})
			have[key(e.b, d)] = true
			repaired = true
			break
		}
		if !repaired {
			return nil, false
		}
	}

	g := New(name, n, 0)
	for _, e := range edges {
		if err := g.AddLink(e.a, e.b); err != nil {
			return nil, false
		}
	}
	return g, true
}
