// Package lint is a stdlib-only static-analysis framework enforcing the
// reproduction's source-level invariants where the runtime tests are blind.
// Each checker walks the type-checked AST of one package at a time and
// reports Findings:
//
//   - determinism: no wall clock or package-global RNG in the simulator
//     packages, and no environment or host reads in any library package;
//   - maporder: map iteration order must not leak into slices, output or
//     RNG draws;
//   - sharedrand: no *rand.Rand shared with goroutines or parallel workers;
//   - locks, goleak: mutexes released on every path and never held across
//     blocking operations; goroutines, tickers and timers that can stop;
//   - nofatal, nakedpanic: library-safe error handling;
//   - shadowbuiltin, floateq: bug classes this tree has hit.
//
// Bug classes that a runtime gate already catches are left to that gate:
// allocation on the hot paths to the AllocsPerRun pins, a nondeterministic
// value reaching a result to the golden digests and the
// parallel-equals-serial tests, and a leaked context cancel to go vet's
// lostcancel (EXPERIMENTS.md, "spinelint ledger"). Dead code, which needs
// every package at once, is TestNoUnusedDeclarations' job.
//
// The driver (cmd/spinelint) loads packages and applies DefaultCheckers;
// golden-fixture tests in this package pin each checker's behaviour against
// testdata/.
//
// Findings can be suppressed at a single site with an escape-hatch comment
//
//	//lint:allow <check> [<check>...]
//
// placed on the offending line or on the line directly above it. A whole
// package can opt out of named checks with
//
//	//lint:allowpkg <check> [<check>...]
//
// in any file comment (conventionally the package doc, next to the written
// justification). Package-scope exemptions are refused — ignored, and
// themselves reported — inside the packages listed in AllowPkgDeny: the
// simulator's determinism is not exemptable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders a finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Pass is the per-package unit of work handed to every checker.
type Pass struct {
	Fset       *token.FileSet
	ImportPath string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	findings []Finding
}

// Reportf records a finding at pos for the named check.
func (p *Pass) Reportf(pos token.Pos, check, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgQualifier resolves a selector qualifier (the x in x.Sel) to the import
// path of the package it names, or "" if x is not a package name.
func (p *Pass) PkgQualifier(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// Checker is one invariant pass over a package.
type Checker interface {
	// Name is the stable check ID used in findings and allow pragmas.
	Name() string
	// Doc is a one-line rationale shown by `spinelint -list`.
	Doc() string
	Run(p *Pass)
}

// Run applies every checker to each loaded package, one package at a time,
// drops findings suppressed by //lint:allow and //lint:allowpkg pragmas,
// and returns the rest sorted by position.
func Run(fset *token.FileSet, pkgs []*LoadedPackage, checkers []Checker) []Finding {
	var out []Finding
	for _, lp := range pkgs {
		p := &Pass{Fset: fset, ImportPath: lp.ImportPath, Files: lp.Files, Pkg: lp.Pkg, Info: lp.Info}
		for _, c := range checkers {
			c.Run(p)
		}
		out = append(out, p.unsuppressed()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// unsuppressed filters the package's findings through the pragma layers.
func (p *Pass) unsuppressed() []Finding {
	allowed := collectAllows(p)
	pkgAllowed := collectPkgAllows(p) // may report allowpkg findings
	var out []Finding
	for _, f := range p.findings {
		if f.Check != allowPkgCheck && pkgAllowed[f.Check] {
			continue
		}
		if allowed[allowKey{f.Pos.Filename, f.Pos.Line, f.Check}] ||
			allowed[allowKey{f.Pos.Filename, f.Pos.Line - 1, f.Check}] {
			continue
		}
		out = append(out, f)
	}
	return out
}

type allowKey struct {
	file  string
	line  int
	check string
}

const (
	allowPrefix = "//lint:allow"
	// allowPkgCheck is the ID under which refused //lint:allowpkg pragmas
	// are themselves reported.
	allowPkgCheck = "allowpkg"
)

// parsePragma splits a //lint:allow or //lint:allowpkg comment into its
// scope and the check IDs it names. The IDs end at the first field that
// opens a parenthesized reason: //lint:allow floateq (exact zero).
func parsePragma(text string) (pkgScope bool, checks []string, ok bool) {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return false, nil, false
	}
	rest, pkgScope = strings.CutPrefix(rest, "pkg")
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return false, nil, false
	}
	for _, f := range strings.Fields(rest) {
		if strings.HasPrefix(f, "(") {
			break
		}
		checks = append(checks, f)
	}
	return pkgScope, checks, true
}

// collectAllows indexes every //lint:allow pragma by (file, line, check).
// A pragma suppresses findings for the listed checks on its own line and on
// the line below (so it can sit above the offending statement).
func collectAllows(p *Pass) map[allowKey]bool {
	allowed := make(map[allowKey]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pkgScope, checks, ok := parsePragma(c.Text)
				if !ok || pkgScope {
					continue // not a pragma, or the package-scope form
				}
				pos := p.Fset.Position(c.Pos())
				for _, check := range checks {
					allowed[allowKey{pos.Filename, pos.Line, check}] = true
				}
			}
		}
	}
	return allowed
}

// AllowPkgDeny lists import-path substrings where //lint:allowpkg is
// refused: the packages whose seeded replay the whole reproduction rests
// on, plus the result store (a cache that is not byte-deterministic is a
// correctness bug, not an inconvenience). The fixture directory pins the
// refusal behaviour in the golden tests.
var AllowPkgDeny = []string{
	"internal/netsim",
	"internal/flowsim",
	"internal/topology",
	"internal/faults",
	"internal/resilience",
	"internal/workload",
	"internal/telemetry",
	"internal/core",
	"internal/store",
	"internal/routing",
	"internal/bakeoff",
	"lint/testdata/allowpkgdeny",
}

// collectPkgAllows gathers //lint:allowpkg pragmas. In a deny-listed
// package the pragma is ignored and reported as a finding; elsewhere the
// named checks are suppressed for the whole package.
func collectPkgAllows(p *Pass) map[string]bool {
	denied := inScope(p.ImportPath, AllowPkgDeny)
	allowed := make(map[string]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pkgScope, checks, ok := parsePragma(c.Text)
				if !ok || !pkgScope {
					continue
				}
				if denied {
					p.Reportf(c.Pos(), allowPkgCheck,
						"package-scope lint exemption is not permitted in %s; use a per-line //lint:allow with justification", p.ImportPath)
					continue
				}
				for _, check := range checks {
					allowed[check] = true
				}
			}
		}
	}
	return allowed
}

// DefaultCheckers returns the full suite with the scopes used on this tree.
func DefaultCheckers() []Checker {
	return []Checker{
		&Determinism{Scope: SimulatorScope},
		&MapOrder{},
		&NoFatal{},
		&ShadowBuiltin{},
		&FloatEq{},
		&NakedPanic{},
		&SharedRand{},
		&Locks{},
		&GoLeak{},
	}
}

// SimulatorScope lists the import-path substrings of the packages whose
// results must replay byte-identically from a seed (§5/§6 experiments and
// the PR-1 fault-injection replay). The lint fixtures are included so the
// real driver reproduces the golden findings.
var SimulatorScope = []string{
	"internal/netsim",
	"internal/flowsim",
	"internal/topology",
	"internal/faults",
	"internal/resilience",
	"internal/workload",
	// The telemetry twin is driven by the simulator's event stream, so its
	// series must replay byte-identically too (the /v1/telemetry wall-clock
	// pacing lives in serve, not here).
	"internal/telemetry",
	// The spinelessd layers: the store must be determinism-clean (its
	// logical clock exists precisely so it can be), while jobs and serve
	// carry an audited package-scope exemption for wall-clock telemetry.
	"internal/store",
	"internal/jobs",
	"internal/serve",
	// Routing path selection and the bake-off scorecard both feed seeded
	// replay: a path or a ranked cell that differs between runs breaks
	// the byte-identical contract.
	"internal/routing",
	"internal/bakeoff",
	"lint/testdata/",
}
