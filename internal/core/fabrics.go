// Package core orchestrates the paper's experiments over the substrates:
// it builds the §5.1 equipment-matched fabric trio (leaf-spine, RRG, DRing),
// wires the §5.2 workloads to them, and runs the FCT (Figure 4), C-S
// throughput (Figure 5), scale (Figure 6) and UDF (§3.1) studies.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"spineless/internal/topology"
)

// FabricSet is the §5.1 trio: a leaf-spine baseline plus the two flat
// networks built with the same equipment — a random regular graph (the
// Jellyfish rewiring) and a DRing.
type FabricSet struct {
	LeafSpineSpec topology.LeafSpineSpec
	DRingSpec     topology.DRingSpec

	LeafSpine *topology.Graph
	RRG       *topology.Graph
	DRing     *topology.Graph
}

// BuildFabrics constructs the trio from a leaf-spine spec. The RRG is the
// flat rewiring of the exact same equipment (§5.1); the DRing uses the same
// switches arranged into the given number of supernodes (the paper uses 12,
// yielding 80 racks and ≈2988 servers against leaf-spine(48,16)). Pass
// supernodes <= 0 to pick the count that best matches the leaf-spine's
// server total, which is how the paper chose 12.
func BuildFabrics(spec topology.LeafSpineSpec, supernodes int, rng *rand.Rand) (*FabricSet, error) {
	ls, err := leafSpineFabric(spec)
	if err != nil {
		return nil, err
	}
	rrg, err := rrgFabric(ls, rng)
	if err != nil {
		return nil, err
	}
	dspec, err := dringSpec(spec, supernodes)
	if err != nil {
		return nil, err
	}
	dr, err := dringFabric(dspec)
	if err != nil {
		return nil, err
	}
	return &FabricSet{
		LeafSpineSpec: spec,
		DRingSpec:     dspec,
		LeafSpine:     ls,
		RRG:           rrg,
		DRing:         dr,
	}, nil
}

// leafSpineFabric, rrgFabric, dringSpec and dringFabric are the trio's
// construction steps, shared by BuildFabrics and TrioFabric.
func leafSpineFabric(spec topology.LeafSpineSpec) (*topology.Graph, error) {
	ls, err := topology.LeafSpine(spec)
	if err != nil {
		return nil, fmt.Errorf("core: leaf-spine: %w", err)
	}
	return ls, nil
}

// rrgFabric is the flat rewiring of ls's equipment (§5.1).
func rrgFabric(ls *topology.Graph, rng *rand.Rand) (*topology.Graph, error) {
	rrg, err := topology.Flatten(ls, rng)
	if err != nil {
		return nil, fmt.Errorf("core: flat rewiring: %w", err)
	}
	rrg.Name = fmt.Sprintf("rrg(%s)", ls.Name)
	return rrg, nil
}

// dringSpec arranges spec's switches into a DRing of the given number of
// supernodes (AutoSupernodes when <= 0) and reports whether it is
// feasible.
func dringSpec(spec topology.LeafSpineSpec, supernodes int) (topology.DRingSpec, error) {
	if supernodes <= 0 {
		supernodes = AutoSupernodes(spec)
	}
	dspec := topology.BalancedDRing(spec.Switches(), supernodes, spec.Radix())
	// Feasibility: every ToR needs at least one server port. Grow the ring
	// (smaller supernodes → smaller network degree) until it fits.
	for dspec.Validate() != nil && supernodes < spec.Switches() {
		supernodes++
		dspec = topology.BalancedDRing(spec.Switches(), supernodes, spec.Radix())
	}
	if err := dspec.Validate(); err != nil {
		return dspec, fmt.Errorf("core: dring: %w", err)
	}
	return dspec, nil
}

func dringFabric(dspec topology.DRingSpec) (*topology.Graph, error) {
	dr, err := topology.DRing(dspec)
	if err != nil {
		return nil, fmt.Errorf("core: dring: %w", err)
	}
	return dr, nil
}

// PaperFabrics builds the exact §5.1 configuration: leaf-spine(48,16) and
// its 12-supernode DRing and RRG rewirings.
func PaperFabrics(rng *rand.Rand) (*FabricSet, error) {
	return TrioFabrics(true, 0, rng)
}

// AutoSupernodes picks the supernode count whose DRing server total best
// matches the leaf-spine's: servers per ToR is radix − 4·(switches/m), so
// m ≈ 4·switches / (radix − flatServersPerSwitch). For leaf-spine(48,16)
// this yields the paper's 12.
func AutoSupernodes(spec topology.LeafSpineSpec) int {
	n := float64(spec.Switches())
	flatPerSwitch := float64(spec.TotalServers()) / n
	spare := float64(spec.Radix()) - flatPerSwitch
	if spare <= 0 {
		return spec.Switches()
	}
	m := int(4*n/spare + 0.5)
	if m < 5 {
		m = 5
	}
	if m > spec.Switches() {
		m = spec.Switches()
	}
	return m
}

// TrioFabrics builds the §5.1 trio the drivers and the job runner share:
// PaperFabrics when paper is set, else ScaledFabrics(factor).
func TrioFabrics(paper bool, factor int, rng *rand.Rand) (*FabricSet, error) {
	spec, supernodes, err := trioBudget(paper, factor)
	if err != nil {
		return nil, err
	}
	return BuildFabrics(spec, supernodes, rng)
}

// ScaledFabrics builds a proportionally scaled-down trio that preserves the
// 3:1 oversubscription and the DRing geometry, for fast tests and benches.
// factor 4 yields leaf-spine(12,4): 16 racks, 192 servers, 20 switches.
func ScaledFabrics(factor int, rng *rand.Rand) (*FabricSet, error) {
	return TrioFabrics(false, factor, rng)
}

// trioBudget is the leaf-spine spec and supernode count TrioFabrics builds
// on: the paper's leaf-spine(48,16) with 12 supernodes, or
// leaf-spine(48/factor, 16/factor) with AutoSupernodes.
func trioBudget(paper bool, factor int) (topology.LeafSpineSpec, int, error) {
	if paper {
		return topology.PaperLeafSpine, 12, nil
	}
	if factor < 1 || 48%factor != 0 || 16%factor != 0 {
		return topology.LeafSpineSpec{}, 0, fmt.Errorf("core: scale factor %d must divide 48 and 16", factor)
	}
	return topology.LeafSpineSpec{X: 48 / factor, Y: 16 / factor}, 0, nil
}

// TrioFabric builds the one fabric that
// TrioFabrics(paper, factor, rand.New(rand.NewSource(seed))).Fabric(name, seed)
// returns — the same graph from the same random numbers — without building
// the rest of the trio, and returns the trio's leaf-spine spec, whose
// equipment budget and spine capacity (workload.SpineCapacityBps) the
// fabric is measured against. A budget whose DRing is infeasible fails for
// every name, as TrioFabrics does.
func TrioFabric(paper bool, factor int, name string, seed int64) (*topology.Graph, topology.LeafSpineSpec, error) {
	spec, supernodes, err := trioBudget(paper, factor)
	if err != nil {
		return nil, spec, err
	}
	dspec, err := dringSpec(spec, supernodes)
	if err != nil {
		return nil, spec, err
	}
	var g *topology.Graph
	switch name {
	case "leafspine":
		g, err = leafSpineFabric(spec)
	case "rrg":
		if g, err = leafSpineFabric(spec); err == nil {
			g, err = rrgFabric(g, rand.New(rand.NewSource(seed)))
		}
	case "dring":
		g, err = dringFabric(dspec)
	default:
		g, err = budgetFabric(spec, name, seed)
	}
	return g, spec, err
}

// FlatFabricNames lists the flat topologies FlatFabric can build beyond the
// §5.1 trio, in the order the bake-off reports them.
var FlatFabricNames = []string{"xpander", "debruijn", "rng"}

// fabricNames is every name (*FabricSet).Fabric builds; OnDRing builds all
// of them but "leafspine".
var fabricNames = append([]string{"leafspine", "dring", "rrg"}, FlatFabricNames...)

// seededFabrics are the fabricNames whose builder draws from an rng, so
// that their wiring depends on the seed; the others are fixed by their
// equipment budget alone. A new fabric must be listed here or not, and
// TestSeededFabrics holds the list to what the builders do.
var seededFabrics = []string{"rrg", "xpander", "rng"}

// FabricSeeded reports whether the named fabric's wiring depends on the
// seed it is built with.
func FabricSeeded(name string) bool { return slices.Contains(seededFabrics, name) }

// Fabric returns the named fabric on the set's equipment budget: the trio's
// own "leafspine", "dring" or "rrg", or a FlatFabricNames fabric built by
// ExtraFabric from a fresh rand.NewSource(seed), so its wiring is fixed by
// the seed alone.
func (fs *FabricSet) Fabric(name string, seed int64) (*topology.Graph, error) {
	switch name {
	case "leafspine":
		return fs.LeafSpine, nil
	case "dring":
		return fs.DRing, nil
	case "rrg":
		return fs.RRG, nil
	}
	return ExtraFabric(fs, name, seed)
}

// OnDRing returns the named fabric on a DRing's equipment budget: "dring"
// is dr itself, "rrg" its MatchedRRG, and a FlatFabricNames fabric gets
// dr's switch count, radix and server total. Only "dring" draws nothing
// from rng.
func OnDRing(name string, dr *topology.Graph, rng *rand.Rand) (*topology.Graph, error) {
	switch {
	case name == "dring":
		return dr, nil
	case name == "rrg":
		return MatchedRRG(dr, rng)
	case slices.Contains(FlatFabricNames, name):
		return FlatFabric(name, dr.N(), dr.Ports, dr.Servers(), rng)
	}
	return nil, fmt.Errorf("core: unknown fabric %q on a DRing budget (want dring, rrg, %s)", name, strings.Join(FlatFabricNames, ", "))
}

// NativeScheme names the routing scheme a fabric is designed for: De Bruijn
// shift-register "selfroute", RNG's shortest-path-with-VLB-fallback
// "spvlb", and the paper's "su2" for every other fabric.
func NativeScheme(name string) string {
	switch name {
	case "debruijn":
		return "selfroute"
	case "rng":
		return "spvlb"
	}
	return "su2"
}

// CheckCombo vets a fabric and scheme by name alone, before anything is
// built: the fabric must be one Fabric builds, the scheme must follow
// NewCombo's grammar, and "selfroute" runs only on "debruijn" — no other
// fabric is a De Bruijn graph.
func CheckCombo(fabric, scheme string) error {
	if !slices.Contains(fabricNames, fabric) {
		return unknownFabric(fabric)
	}
	if _, _, err := parseScheme(scheme); err != nil {
		return err
	}
	if scheme == "selfroute" && fabric != "debruijn" {
		return fmt.Errorf("core: scheme selfroute needs the debruijn fabric, not %q", fabric)
	}
	return nil
}

func unknownFabric(name string) error {
	return fmt.Errorf("core: unknown fabric %q (want %s)", name, strings.Join(fabricNames, ", "))
}

// FlatFabric builds one of the competing flat fabrics on a given equipment
// budget: `switches` radix-`ports` switches with `servers` total servers as
// the attachment target. Each switch spends the ports its server share
// leaves free on the network: degree = ports − ⌈servers/switches⌉ (4·tors
// on a uniform DRing).
//
//   - "xpander": 2-lift expander; the lift construction rounds the switch
//     count up to (degree+1)·2^j, and servers scale with it so per-switch
//     density (and thus per-server load in a comparison) is preserved.
//   - "debruijn": the closest-fitting De Bruijn graph (FitDeBruijn); its
//     regularized degree is set by the alphabet, and every spare port hosts
//     a server.
//   - "rng": AWS's union-of-matchings fabric at exactly the requested
//     degree; every spare port hosts a server. Perfect matchings need an
//     even switch count, so an odd budget is rounded down to the even
//     count below it and the fabric never exceeds its budget.
//
// The actual switch and server counts therefore differ slightly from the
// request — callers compare fabrics per server, and the bake-off scorecard
// reports the realized equipment so the deltas stay visible.
func FlatFabric(name string, switches, ports, servers int, rng *rand.Rand) (*topology.Graph, error) {
	degree := ports - (servers+switches-1)/switches
	switch name {
	case "xpander":
		g, err := topology.Xpander(switches, degree, rng)
		if err != nil {
			return nil, err
		}
		if err := topology.AttachServersEvenly(g, servers*g.N()/switches, ports); err != nil {
			return nil, err
		}
		return g, nil
	case "debruijn":
		spec, err := topology.FitDeBruijn(switches, ports, degree)
		if err != nil {
			return nil, err
		}
		return topology.DeBruijn(spec)
	case "rng":
		return topology.RNG(topology.RNGSpec{Switches: switches &^ 1, Degree: degree, Ports: ports}, rng)
	default:
		return nil, unknownFabric(name)
	}
}

// ExtraFabric builds one of the FlatFabricNames fabrics on the same
// equipment budget as a FabricSet's leaf-spine — its switch count, radix
// and server total — from a fresh rand.NewSource(seed). This is how
// Fabric extends the §5.1 trio to the bake-off five.
func ExtraFabric(fs *FabricSet, name string, seed int64) (*topology.Graph, error) {
	return budgetFabric(fs.LeafSpineSpec, name, seed)
}

// budgetFabric is ExtraFabric on a leaf-spine spec.
func budgetFabric(spec topology.LeafSpineSpec, name string, seed int64) (*topology.Graph, error) {
	return FlatFabric(name, spec.Switches(), spec.Radix(), spec.TotalServers(), rand.New(rand.NewSource(seed)))
}

// MatchedRRG builds a random regular graph using the same equipment as an
// existing flat fabric: identical switch count, radix, per-switch server
// counts, and network degree distribution. Used by the Figure 6 scale sweep
// to compare a DRing to its "equivalent RRG".
func MatchedRRG(g *topology.Graph, rng *rand.Rand) (*topology.Graph, error) {
	degrees := make([]int, g.N())
	for v := range degrees {
		degrees[v] = g.NetworkDegree(v)
	}
	r, err := topology.RRG(fmt.Sprintf("rrg-matched(%s)", g.Name), degrees, rng)
	if err != nil {
		return nil, err
	}
	r.Ports = g.Ports
	for v := 0; v < g.N(); v++ {
		r.SetServers(v, g.ServerCount(v))
	}
	return r, nil
}
