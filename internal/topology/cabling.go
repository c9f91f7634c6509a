package topology

import (
	"fmt"
	"math"
)

// The paper motivates the DRing partly by deployment concerns: wiring and
// lifecycle complexity "has been a road block for adoption of large-scale
// expander DCs" (§1, citing Zhang et al. [31]). This file makes that
// tradeoff measurable: switches are laid out in a physical rack row and
// each network link is costed by the distance it must span and by whether
// it can share a cable bundle with parallel-running links.

// Placement assigns each switch a physical rack position (rack index in a
// row, unit spacing). For leaf-spines, spines conventionally sit in the
// middle of the row; flat fabrics place one ToR per rack in id order.
type Placement struct {
	Pos []int // Pos[switch] = rack position
}

// RowPlacement places switch i at position i — the natural layout for flat
// fabrics, and a pessimistic-but-fair one for leaf-spines.
func RowPlacement(g *Graph) Placement {
	pos := make([]int, g.N())
	for i := range pos {
		pos[i] = i
	}
	return Placement{Pos: pos}
}

// LeafSpinePlacement puts the y spines in the middle of the leaf row,
// mirroring standard end-of-row/middle-of-row builds.
func LeafSpinePlacement(spec LeafSpineSpec) Placement {
	n := spec.Switches()
	pos := make([]int, n)
	leaves := spec.Leaves()
	mid := leaves / 2
	// Leaves occupy positions 0..mid-1 and mid+y..n-1; spines sit in the gap.
	for l := 0; l < leaves; l++ {
		if l < mid {
			pos[l] = l
		} else {
			pos[l] = l + spec.Y
		}
	}
	for s := 0; s < spec.Y; s++ {
		pos[leaves+s] = mid + s
	}
	return Placement{Pos: pos}
}

// CablingReport summarizes the physical wiring of a fabric under a
// placement.
type CablingReport struct {
	Links int
	// TotalLength and MeanLength are in rack units (adjacent racks = 1).
	TotalLength float64
	MeanLength  float64
	MaxLength   int
	// LongHaul counts links spanning more than `longThreshold` racks —
	// the ones that need structured cabling trays.
	LongHaul int
	// Bundles counts distinct (ordered) rack-position pairs carrying at
	// least one link: links between the same two racks share a bundle, so
	// fewer bundles means simpler cabling even at equal link counts.
	Bundles int
	// MaxBundle is the largest number of links sharing one bundle.
	MaxBundle int
}

const longThreshold = 8

// Cabling costs every network link of g under placement p.
func Cabling(g *Graph, p Placement) (CablingReport, error) {
	if len(p.Pos) != g.N() {
		return CablingReport{}, fmt.Errorf("topology: placement covers %d switches, fabric has %d", len(p.Pos), g.N())
	}
	var rep CablingReport
	bundle := map[[2]int]int{}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v > w {
				continue
			}
			d := p.Pos[v] - p.Pos[w]
			if d < 0 {
				d = -d
			}
			rep.Links++
			rep.TotalLength += float64(d)
			if d > rep.MaxLength {
				rep.MaxLength = d
			}
			if d > longThreshold {
				rep.LongHaul++
			}
			key := [2]int{min(p.Pos[v], p.Pos[w]), max(p.Pos[v], p.Pos[w])}
			bundle[key]++
		}
	}
	if rep.Links > 0 {
		rep.MeanLength = rep.TotalLength / float64(rep.Links)
	}
	rep.Bundles = len(bundle)
	for _, c := range bundle {
		if c > rep.MaxBundle {
			rep.MaxBundle = c
		}
	}
	return rep, nil
}

// LifecycleReport scores a fabric on the §7/[31] management axes that do
// not depend on physical layout.
type LifecycleReport struct {
	// SwitchRoles counts distinct structural roles (degree, server-count)
	// classes. A flat network has one; a leaf-spine has two. Fewer roles
	// means uniform configs and interchangeable spares.
	SwitchRoles int
	// ExpansionUnit is the number of pre-existing switches whose cabling a
	// minimal expansion touches (math.MaxInt means unbounded/global).
	ExpansionUnit int
}

// Lifecycle computes role uniformity for any fabric; the expansion unit is
// filled in by topology-specific callers (see LifecycleDRing, etc.).
func Lifecycle(g *Graph) LifecycleReport {
	type role struct{ deg, servers int }
	roles := map[role]bool{}
	for v := 0; v < g.N(); v++ {
		roles[role{g.NetworkDegree(v), g.ServerCount(v)}] = true
	}
	return LifecycleReport{
		SwitchRoles:   len(roles),
		ExpansionUnit: math.MaxInt,
	}
}

// LifecycleDRing annotates a DRing's lifecycle report with its measured
// seam-local expansion cost (switches touched when one supernode is added).
func LifecycleDRing(spec DRingSpec) (LifecycleReport, error) {
	g, err := DRing(spec)
	if err != nil {
		return LifecycleReport{}, err
	}
	rep := Lifecycle(g)
	_, _, exp, err := ExpandDRing(spec, []int{spec.Sizes[0]})
	if err != nil {
		return LifecycleReport{}, err
	}
	rep.ExpansionUnit = exp.TouchedSwitches
	return rep, nil
}

// CablingTableRow is a convenience for printing comparisons.
func (r CablingReport) String() string {
	return fmt.Sprintf("links=%d mean=%.2f max=%d longhaul=%d bundles=%d maxbundle=%d",
		r.Links, r.MeanLength, r.MaxLength, r.LongHaul, r.Bundles, r.MaxBundle)
}

// GroupedBundles evaluates trunk cabling: row positions are divided into
// groups of groupSize racks, and all links between the same two groups are
// assumed to share one trunk. It returns the trunk count and the largest
// trunk. Structured fabrics (DRing with groupSize = supernode width) need
// few fat trunks; random wiring needs many thin ones — the §1 wiring
// complexity difference, quantified.
func GroupedBundles(g *Graph, p Placement, groupSize int) (bundles, maxBundle int, err error) {
	if len(p.Pos) != g.N() {
		return 0, 0, fmt.Errorf("topology: placement covers %d switches, fabric has %d", len(p.Pos), g.N())
	}
	if groupSize < 1 {
		return 0, 0, fmt.Errorf("topology: group size %d < 1", groupSize)
	}
	trunk := map[[2]int]int{}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v > w {
				continue
			}
			a, b := p.Pos[v]/groupSize, p.Pos[w]/groupSize
			if a == b {
				continue // intra-group wiring is rack-local patching
			}
			trunk[[2]int{min(a, b), max(a, b)}]++
		}
	}
	for _, c := range trunk {
		if c > maxBundle {
			maxBundle = c
		}
	}
	return len(trunk), maxBundle, nil
}
