package topology

import (
	"fmt"
	"math/rand"
)

// RNGSpec describes AWS's random-neighbor-graph fabric ("Flat Datacenter
// Networks at Scale", arXiv:2604.15261): the union of Degree independent
// uniform perfect matchings over an even number of switches. Every switch
// lands at exactly network degree Degree — the regularity is structural,
// not repaired after the fact — and the spare ports host servers, so the
// fabric is flat exactly like DRing. Compared to Jellyfish's stub matching
// the per-matching construction is what makes incremental expansion cheap
// in the AWS design: a new matching is one more round of pairings.
type RNGSpec struct {
	Switches int // even switch count
	Degree   int // network links per switch = number of matchings
	Ports    int // switch radix
}

// Validate checks that the matching-union construction is feasible: an even
// number of at least 4 switches, a positive degree below the simple-graph
// limit, and enough ports per switch for the network links plus at least
// one server.
func (s RNGSpec) Validate() error {
	if s.Switches < 4 || s.Switches%2 != 0 {
		return fmt.Errorf("rng: need an even switch count of at least 4 for perfect matchings, have %d: %w", s.Switches, ErrInfeasible)
	}
	if s.Degree < 1 || s.Degree >= s.Switches {
		return fmt.Errorf("rng: degree %d infeasible on %d switches: %w", s.Degree, s.Switches, ErrInfeasible)
	}
	if s.Degree >= s.Ports {
		return fmt.Errorf("rng: degree %d needs radix above %d, have %d: %w", s.Degree, s.Degree, s.Ports, ErrInfeasible)
	}
	return nil
}

// RNG builds the fabric described by spec: Degree rounds of uniform perfect
// matchings, each repaired locally by partner swaps when a pairing would
// duplicate an earlier link. Whole constructions are retried when repair
// gets stuck or the union comes out disconnected. Servers fill each
// switch's remaining ports.
//
// A dense degree can starve the last rounds of fresh pairings. When every
// attempt fails and Degree is above (Switches−1)/2, the complement is the
// sparse side: RNG builds it as the union of the Switches−1−Degree
// matchings it needs and links every pair it leaves out, which is
// Degree-regular and, at that density, connected. ErrInfeasible is
// returned when no attempt succeeds.
//
// Attempts run on scratch reused across them — a link bitset, the pairs so
// far and a union-find for connectivity — so a rejected attempt allocates
// nothing, and the one Graph is built from the accepted attempt's pairs.
func RNG(spec RNGSpec, rng *rand.Rand) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Switches
	a := &rngAttempt{
		n:      n,
		linked: make([]uint64, (n*n+63)/64),
		perm:   make([]int, n),
		pairs:  make([]int32, 0, spec.Degree*n),
		parent: make([]int32, n),
	}
	const attempts = 200
	for try := 0; try < attempts; try++ {
		if a.run(spec.Degree, rng) && a.connected() {
			return a.graph(spec)
		}
	}
	if k := n - 1 - spec.Degree; k < spec.Degree {
		for try := 0; try < attempts; try++ {
			if a.run(k, rng) {
				a.pairs = a.pairs[:0]
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if !a.hasLink(u, v) {
							a.pairs = append(a.pairs, int32(u), int32(v))
						}
					}
				}
				return a.graph(spec)
			}
		}
	}
	return nil, fmt.Errorf("rng: no connected %d-matching union on %d switches after %d attempts: %w",
		spec.Degree, spec.Switches, attempts, ErrInfeasible)
}

// rngAttempt is the scratch of one union-of-matchings pass: linked is the
// n×n link bitset, pairs the links so far in matching order, parent the
// union-find connectivity check.
type rngAttempt struct {
	n      int
	linked []uint64
	perm   []int
	pairs  []int32
	parent []int32
}

// graph builds spec's fabric from the links in a.pairs.
func (a *rngAttempt) graph(spec RNGSpec) (*Graph, error) {
	g := New(fmt.Sprintf("rng(n=%d,d=%d)", a.n, spec.Degree), a.n, spec.Ports)
	for i := 0; i < len(a.pairs); i += 2 {
		if err := g.AddLink(int(a.pairs[i]), int(a.pairs[i+1])); err != nil {
			return nil, err
		}
	}
	for v := 0; v < g.N(); v++ {
		g.SetServers(v, spec.Ports-spec.Degree)
	}
	return g, nil
}

func (a *rngAttempt) hasLink(u, v int) bool {
	i := u*a.n + v
	return a.linked[i>>6]&(1<<(i&63)) != 0
}

func (a *rngAttempt) link(u, v int) {
	for _, i := range [2]int{u*a.n + v, v*a.n + u} {
		a.linked[i>>6] |= 1 << (i & 63)
	}
	a.pairs = append(a.pairs, int32(u), int32(v))
}

// run performs one union-of-matchings pass. Each matching is a shuffled
// pairing of all switches; a pair that duplicates an existing link is
// repaired by swapping partners with another pair of the same matching.
func (a *rngAttempt) run(degree int, rng *rand.Rand) bool {
	n, perm := a.n, a.perm
	clear(a.linked)
	a.pairs = a.pairs[:0]
	for m := 0; m < degree; m++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		// Repair in place: pair (perm[2i], perm[2i+1]) swaps its second
		// endpoint with a random later pair until both pairings are new.
		for i := 0; i+1 < n; i += 2 {
			repaired := !a.hasLink(perm[i], perm[i+1])
			later := n/2 - i/2 - 1 // pairs after this one
			for t := 0; t < 200 && !repaired && later > 0; t++ {
				j := i + 2 + 2*rng.Intn(later) // random later pair
				side := rng.Intn(2)
				perm[i+1], perm[j+side] = perm[j+side], perm[i+1]
				repaired = !a.hasLink(perm[i], perm[i+1]) && !a.hasLink(perm[j], perm[j+1])
				if !repaired { // undo and retry
					perm[i+1], perm[j+side] = perm[j+side], perm[i+1]
				}
			}
			if !repaired {
				return false
			}
		}
		for i := 0; i+1 < n; i += 2 {
			a.link(perm[i], perm[i+1])
		}
	}
	return true
}

// connected reports whether the pairs join every switch, by union-find.
func (a *rngAttempt) connected() bool {
	for v := range a.parent {
		a.parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for a.parent[v] != v {
			a.parent[v] = a.parent[a.parent[v]]
			v = a.parent[v]
		}
		return v
	}
	parts := a.n
	for i := 0; i < len(a.pairs); i += 2 {
		if ru, rv := find(a.pairs[i]), find(a.pairs[i+1]); ru != rv {
			a.parent[ru] = rv
			parts--
		}
	}
	return parts == 1
}
