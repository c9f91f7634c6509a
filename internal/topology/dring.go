package topology

import "fmt"

// DRingSpec describes a DRing (§3.2): a ring "supergraph" of m supernodes
// where supernode i is connected to supernodes i+1 and i+2 (cyclically).
// Supernode i contains Sizes[i] ToR switches, and every pair of ToRs in
// adjacent supernodes is joined by a direct link. Servers fill each ToR's
// remaining ports, so all switches play the exact same role.
type DRingSpec struct {
	Sizes []int // ToRs per supernode; len(Sizes) = number of supernodes
	Ports int   // switch radix
}

// Uniform returns a spec with m supernodes of n ToRs each.
func Uniform(m, n, ports int) DRingSpec {
	sizes := make([]int, m)
	for i := range sizes {
		sizes[i] = n
	}
	return DRingSpec{Sizes: sizes, Ports: ports}
}

// BalancedDRing returns a spec for m supernodes over exactly `switches`
// ToRs, with supernode sizes differing by at most one and larger supernodes
// interleaved around the ring to keep network degrees close to uniform.
func BalancedDRing(switches, m, ports int) DRingSpec {
	sizes := make([]int, m)
	base, extra := switches/m, switches%m
	for i := range sizes {
		sizes[i] = base
	}
	// Interleave the +1s as evenly as possible around the ring.
	for k := 0; k < extra; k++ {
		sizes[(k*m)/extra]++
	}
	return DRingSpec{Sizes: sizes, Ports: ports}
}

// Supernodes returns the number of supernodes m.
func (s DRingSpec) Supernodes() int { return len(s.Sizes) }

// Switches returns the total ToR count.
func (s DRingSpec) Switches() int {
	t := 0
	for _, n := range s.Sizes {
		t += n
	}
	return t
}

// Validate checks that the ring construction is feasible: at least 5
// supernodes (so i±1 and i±2 are four distinct neighbors), positive sizes,
// and enough ports at every ToR for its network links.
func (s DRingSpec) Validate() error {
	m := len(s.Sizes)
	if m < 5 {
		return fmt.Errorf("dring: need at least 5 supernodes, have %d: %w", m, ErrInfeasible)
	}
	for i, n := range s.Sizes {
		if n <= 0 {
			return fmt.Errorf("dring: supernode %d has size %d: %w", i, n, ErrInfeasible)
		}
		if d := s.networkDegree(i); d >= s.Ports {
			return fmt.Errorf("dring: supernode %d needs %d network ports, radix %d leaves no server ports: %w",
				i, d, s.Ports, ErrInfeasible)
		}
	}
	return nil
}

// networkDegree returns the network degree of any ToR in supernode i:
// the sum of the sizes of the four adjacent supernodes.
func (s DRingSpec) networkDegree(i int) int {
	m := len(s.Sizes)
	return s.Sizes[(i+1)%m] + s.Sizes[(i+2)%m] + s.Sizes[(i+m-1)%m] + s.Sizes[(i+m-2)%m]
}

// DRing builds the fabric described by spec. ToRs are numbered supernode by
// supernode; every ToR's spare ports (radix minus network degree) host
// servers, which makes the network flat by construction.
func DRing(spec DRingSpec) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := len(spec.Sizes)
	g := New(fmt.Sprintf("dring(m=%d,tors=%d)", m, spec.Switches()), spec.Switches(), spec.Ports)

	// base[i] = id of the first ToR in supernode i.
	base := make([]int, m+1)
	for i, n := range spec.Sizes {
		base[i+1] = base[i] + n
	}
	// Connect every ToR pair across supernode adjacencies (i, i+1), (i, i+2).
	for i := 0; i < m; i++ {
		for _, off := range []int{1, 2} {
			j := (i + off) % m
			for a := base[i]; a < base[i+1]; a++ {
				for b := base[j]; b < base[j+1]; b++ {
					if err := g.AddLink(a, b); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		g.SetServers(v, spec.Ports-g.NetworkDegree(v))
	}
	return g, nil
}
