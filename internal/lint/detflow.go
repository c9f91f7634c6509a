package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetFlow is the whole-program determinism checker: a nondeterministic
// source (wall clock, environment, global RNG, map-range order, goroutine
// completion order) must never reach a result-affecting sink inside the
// simulator scope — a write into a Stats/Results accumulator, or an
// argument that feeds the spec hash or the stored result bytes. The taint
// engine (taint.go) carries sources across any depth of helper calls,
// including cross-package ones, which is exactly the laundering the
// per-package determinism checker cannot see.
//
// Sanctioned flows take a //lint:allow detflow pragma with a written
// justification, same as every other checker.
type DetFlow struct {
	// Scope limits sink checking to packages whose import path contains one
	// of these substrings (defaults to SimulatorScope).
	Scope []string
	// SinkTypes are suffix-matched "pkgpath.TypeName" strings: writing a
	// tainted value into a field of (or constructing) one of these types is
	// a finding.
	SinkTypes []string
	// SinkFuncs are suffix-matched FullNames: passing a tainted argument to
	// one of these is a finding.
	SinkFuncs []string
}

func (*DetFlow) Name() string { return "detflow" }
func (*DetFlow) Doc() string {
	return "trace nondeterministic sources through the call graph; they must not reach result-affecting sinks"
}

// defaultSinkTypes are the accumulators whose bytes define an experiment's
// result; jobs.Result is the document the service commits to the store.
// The fixture type is included so the golden tests exercise the real driver
// configuration (mirroring SimulatorScope's testdata entry).
var defaultSinkTypes = []string{
	"internal/netsim.Stats",
	"internal/netsim.Results",
	"internal/core.FCTResult",
	"internal/jobs.Result",
	"internal/resilience.LiveResult",
	"testdata/detflow.Stats",
}

// defaultSinkFuncs feed the spec hash or the stored result bytes.
var defaultSinkFuncs = []string{
	"internal/store.Key",
	"internal/store.Canonical",
	"internal/store.Store).Put",
	"internal/netsim.Stats).Accumulate",
	"testdata/detflow.Commit",
}

func (c *DetFlow) RunProgram(prog *Program) {
	scope := c.Scope
	if scope == nil {
		scope = SimulatorScope
	}
	sinkTypes := c.SinkTypes
	if sinkTypes == nil {
		sinkTypes = defaultSinkTypes
	}
	sinkFuncs := c.SinkFuncs
	if sinkFuncs == nil {
		sinkFuncs = defaultSinkFuncs
	}
	engine := newTaintEngine(prog)
	for _, fi := range prog.Funcs {
		if !inScope(fi.Pass.ImportPath, scope) || fi.Pass.InTestFile(fi.Decl.Pos()) {
			continue
		}
		c.checkFunc(prog, engine, fi, sinkTypes, sinkFuncs)
	}
}

func (c *DetFlow) checkFunc(prog *Program, engine *taintEngine, fi *FuncInfo, sinkTypes, sinkFuncs []string) {
	p := fi.Pass
	lt := engine.analyze(fi)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.checkAssign(prog, lt, p, n, sinkTypes)
		case *ast.CompositeLit:
			// Constructing a sink value with a tainted element.
			if t := p.Info.Types[n].Type; t != nil && typeMatches(t, sinkTypes) {
				for _, el := range n.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if src, tainted := lt.exprSource(p, v); tainted {
						prog.Reportf(v.Pos(), c.Name(),
							"nondeterministic value (%s) flows into result type %s", src, trimType(t))
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(p, n)
			if fn == nil || !nameMatches(fn.FullName(), sinkFuncs) {
				return true
			}
			for _, arg := range n.Args {
				if src, tainted := lt.exprSource(p, arg); tainted {
					prog.Reportf(arg.Pos(), c.Name(),
						"nondeterministic value (%s) passed to result sink %s", src, fn.FullName())
				}
			}
		}
		return true
	})
}

// checkAssign flags a tainted RHS assigned into a sink-typed lvalue — a
// direct field write like stats.Events = x, or any write whose selector
// chain passes through a sink type.
func (c *DetFlow) checkAssign(prog *Program, lt *localTaint, p *Pass, as *ast.AssignStmt, sinkTypes []string) {
	for i, lhs := range as.Lhs {
		base, sinkT := sinkLvalue(p, lhs, sinkTypes)
		if !sinkT {
			continue
		}
		var rhs ast.Expr
		switch {
		case len(as.Rhs) == len(as.Lhs):
			rhs = as.Rhs[i]
		case len(as.Rhs) == 1:
			rhs = as.Rhs[0]
		default:
			continue
		}
		if src, tainted := lt.exprSource(p, rhs); tainted {
			prog.Reportf(as.Pos(), c.Name(),
				"nondeterministic value (%s) written into result sink %s", src, base)
		}
	}
}

// sinkLvalue reports whether the lvalue writes into a sink type, walking
// selector/index chains (stats.Hist[i].Count = ...), and names the sink.
func sinkLvalue(p *Pass, e ast.Expr, sinkTypes []string) (string, bool) {
	for {
		if t := p.Info.Types[e].Type; t != nil && typeMatches(t, sinkTypes) {
			return trimType(t), true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// typeMatches reports whether t (or its pointee) is one of the sink types,
// by "pkgpath.Name" suffix match.
func typeMatches(t types.Type, suffixes []string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return nameMatches(obj.Pkg().Path()+"."+obj.Name(), suffixes)
}

func nameMatches(name string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// trimType renders a type name without the module prefix for messages.
func trimType(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			return pkg.Name() + "." + named.Obj().Name()
		}
		return named.Obj().Name()
	}
	return t.String()
}
