package topology

import "fmt"

// LeafSpineSpec describes a leaf-spine(x, y) network as defined in §3.1 of
// the paper: y spines each connected to all leaves, x+y leaves each connected
// to all spines, and x servers per leaf. Every switch has degree x+y.
type LeafSpineSpec struct {
	X int // servers per leaf (also: oversubscription numerator)
	Y int // number of spines
}

// Leaves returns the number of leaf switches, x+y.
func (s LeafSpineSpec) Leaves() int { return s.X + s.Y }

// Switches returns the total switch count, x+2y.
func (s LeafSpineSpec) Switches() int { return s.X + 2*s.Y }

// TotalServers returns x*(x+y).
func (s LeafSpineSpec) TotalServers() int { return s.X * (s.X + s.Y) }

// Radix returns the per-switch port count, x+y.
func (s LeafSpineSpec) Radix() int { return s.X + s.Y }

// Validate reports whether the spec parameters are positive.
func (s LeafSpineSpec) Validate() error {
	if s.X <= 0 || s.Y <= 0 {
		return fmt.Errorf("leafspine(%d,%d): parameters must be positive: %w", s.X, s.Y, ErrInfeasible)
	}
	return nil
}

// LeafSpine builds the leaf-spine(x, y) fabric. Switch ids 0..x+y-1 are
// leaves (each hosting x servers); ids x+y..x+2y-1 are spines (no servers).
func LeafSpine(spec LeafSpineSpec) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	leaves, spines := spec.Leaves(), spec.Y
	g := New(fmt.Sprintf("leafspine(%d,%d)", spec.X, spec.Y), leaves+spines, spec.Radix())
	for l := 0; l < leaves; l++ {
		g.SetServers(l, spec.X)
		for sp := 0; sp < spines; sp++ {
			if err := g.AddLink(l, leaves+sp); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// PaperLeafSpine is the industry-recommended configuration evaluated in
// §5.1: leaf-spine(48, 16) — oversubscription 3:1, 64 racks, 3072 servers.
var PaperLeafSpine = LeafSpineSpec{X: 48, Y: 16}
