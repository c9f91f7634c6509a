package core

import (
	"fmt"
	"strings"

	"spineless/internal/routing"
	"spineless/internal/topology"
)

// Combo pairs a fabric with a routing scheme, labeled as in Figure 4.
type Combo struct {
	Label  string
	Fabric *topology.Graph
	Scheme routing.Scheme
}

// NewCombo builds a combo from a fabric and a scheme name: "ecmp",
// "shortest-union(K)" / "suK", "kspK", "vlb", the path-count-weighted
// variants "wcmp" (weighted ECMP) and "wsuK", or the flat-fabric natives
// "selfroute" (De Bruijn shift-register routing; the fabric must be a De
// Bruijn graph) and "spvlb" (shortest-path ECMP with VLB fallback). K is a
// single digit.
func NewCombo(label string, g *topology.Graph, scheme string) (Combo, error) {
	family, k, err := parseScheme(scheme)
	if err != nil {
		return Combo{}, err
	}
	var s routing.Scheme
	switch family {
	case "ecmp":
		s = routing.NewECMP(g)
	case "wcmp":
		s = routing.NewWeighted(routing.NewECMP(g))
	case "vlb":
		s = routing.NewVLB(g)
	case "selfroute":
		s, err = routing.NewDeBruijn(g)
	case "spvlb":
		s = routing.NewSPVLB(g)
	case "su":
		s, err = routing.NewShortestUnion(g, k)
	case "wsu":
		var fib *routing.Fib
		fib, err = routing.NewShortestUnion(g, k)
		if err == nil {
			s = routing.NewWeighted(fib)
		}
	case "ksp":
		s, err = routing.NewKSP(g, k)
	}
	if err != nil {
		return Combo{}, err
	}
	return Combo{Label: label, Fabric: g, Scheme: s}, nil
}

// parseScheme splits a NewCombo scheme name into its family and K without
// a graph: a fixed name, or "su", "wsu" or "ksp" followed by one decimal
// digit no smaller than the family's minimum in routing.
func parseScheme(scheme string) (family string, k int, err error) {
	switch scheme {
	case "ecmp", "wcmp", "vlb", "selfroute", "spvlb":
		return scheme, 0, nil
	}
	for _, f := range []struct {
		name string
		minK int
	}{{"su", routing.MinShortestUnionK}, {"wsu", routing.MinShortestUnionK}, {"ksp", routing.MinKSPPaths}} {
		rest, ok := strings.CutPrefix(scheme, f.name)
		if !ok || len(rest) != 1 || rest[0] < '0' || rest[0] > '9' {
			continue
		}
		if k := int(rest[0] - '0'); k >= f.minK {
			return f.name, k, nil
		}
		return "", 0, fmt.Errorf("core: scheme %q needs K >= %d", scheme, f.minK)
	}
	return "", 0, fmt.Errorf("core: unknown scheme %q", scheme)
}

// PaperCombos returns the five Figure 4 combinations: leaf-spine(ecmp),
// DRing(shortest-union(2)), RRG(shortest-union(2)), DRing(ecmp), RRG(ecmp).
func PaperCombos(fs *FabricSet) ([]Combo, error) {
	specs := []struct {
		label, scheme string
		g             *topology.Graph
	}{
		{"leaf-spine (ecmp)", "ecmp", fs.LeafSpine},
		{"DRing (shortest-union(2))", "su2", fs.DRing},
		{"RRG (shortest-union(2))", "su2", fs.RRG},
		{"DRing (ecmp)", "ecmp", fs.DRing},
		{"RRG (ecmp)", "ecmp", fs.RRG},
	}
	out := make([]Combo, 0, len(specs))
	for _, sp := range specs {
		c, err := NewCombo(sp.label, sp.g, sp.scheme)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
