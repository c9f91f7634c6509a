package lint

import (
	"go/ast"
	"strings"
)

// Determinism forbids wall-clock reads and globally-seeded randomness inside
// the simulator packages, and environment or host reads in every library
// package. Every source of nondeterminism silently corrupts seeded replay:
// FCT distributions stop being byte-identical across runs and paper
// comparisons (§3, §5) become unreproducible. Explicitly seeded RNG
// construction (rand.New, rand.NewSource) stays legal — the ban is on the
// package-global source and on anything whose value changes between two
// runs of the same seed.
//
// The wall-clock and RNG rules are scoped because the runtime tests see
// those sources: a clock or global-RNG value that reaches a result breaks
// the golden digests and the parallel-equals-serial tests on the next run.
// The environment rule is not scoped, because the tests run in one
// environment on one host and cannot see it: an os.Getenv laundered through
// a helper package would change results only on someone else's machine.
// Package main (cmd/ tools and examples) is exempt; it owns configuration.
type Determinism struct {
	// Scope holds import-path substrings selecting the packages where the
	// wall-clock and global-RNG rules apply. An empty scope means every
	// package.
	Scope []string
}

func (*Determinism) Name() string { return "determinism" }
func (*Determinism) Doc() string {
	return "forbid time.Now and package-global math/rand in simulator packages, and environment or host reads outside package main"
}

// envReads are the calls whose value depends on the environment or host
// rather than on the spec and seed, keyed by package path.
var envReads = map[string]map[string]bool{
	"os":      {"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true, "Hostname": true},
	"runtime": {"NumCPU": true},
}

// randConstructors are math/rand package-level functions that merely build
// explicitly-seeded generators and are therefore deterministic.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 seeded constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func (d *Determinism) Run(p *Pass) {
	library := p.Pkg.Name() != "main"
	simulator := inScope(p.ImportPath, d.Scope)
	if !library && !simulator {
		return
	}
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			pkg := p.PkgQualifier(sel.X)
			switch {
			case library && envReads[pkg][name]:
				p.Reportf(call.Pos(), d.Name(),
					"%s.%s makes library behaviour depend on the environment; pass configuration explicitly", pkg, name)
			case !simulator:
			case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
				p.Reportf(call.Pos(), d.Name(),
					"time.%s reads the wall clock; thread simulated time explicitly", name)
			case (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[name]:
				p.Reportf(call.Pos(), d.Name(),
					"rand.%s uses the package-global source; draw from an explicitly seeded *rand.Rand", name)
			}
			return true
		})
	}
}

func inScope(importPath string, scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if strings.Contains(importPath, s) {
			return true
		}
	}
	return false
}
