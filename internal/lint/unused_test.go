package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnusedDeclarations fails on dead code outside the module's root
// package: a package-level func, type, var or const, a method, or a struct
// field that no live non-test code uses. Load reads non-test files only, so
// code that only tests use is reported too: move it into that package's
// _test.go, or delete it.
//
// A use counts only when it comes from a live declaration. The roots are
// main, init, blank-identifier vars, every declaration of the root package
// (the public facade), the methods the interface rule keeps and
// keptMethods; liveness then follows uses from declaration to declaration. So recursion, two
// declarations that only use each other, and a type used only by its own
// methods are all dead.
//
// A method is live when live code selects it, or when it implements a
// method of an interface type that the module's non-test code names
// (types.Implements), or when its name is one that fmt, sort,
// container/heap, encoding/json or errors call dynamically.
//
// A field is live when live code reads it. The left side of =, op=, ++ and
// -- and a composite-literal key are writes, not reads. Embedded and tagged
// fields are exempt, and so are the fields of types that reach
// encoding/json, are used as map keys or are compared with == or !=, since
// those read every field without naming it. Every other exemption is in
// keptMethods or keptFields with its reason; an entry that names nothing
// declared, or a field that is read, fails the test too.
func TestNoUnusedDeclarations(t *testing.T) {
	fset, pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, name := range deadCode(fset, pkgs) {
		dead = append(dead, "\n\t"+name)
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations, methods or fields that no live non-test code uses (delete them, or move them into a _test.go file):%s",
			len(dead), strings.Join(dead, ""))
	}
}

// keptMethods are the methods no live non-test code selects that the gate
// keeps anyway, keyed as the gate reports them.
var keptMethods = map[string]string{
	"spineless/internal/ospf.Domain.Flood":        ospfAPI,
	"spineless/internal/ospf.Domain.Converged":    ospfAPI,
	"spineless/internal/ospf.Domain.NextHops":     ospfAPI,
	"spineless/internal/ospf.Domain.FailLink":     ospfAPI,
	"spineless/internal/jobs.Job.Subscribers":     "the one observable of a released event subscription, which serve's disconnect tests wait on",
	"spineless/internal/telemetry.Recorder.Sinks": "the one observable of how many runs a recorder bound, which core's and resilience's telemetry tests check",
}

const ospfAPI = "the OSPF domain's control-plane API, which the facade's NewOSPF hands out; no driver runs it yet"

// keptFields are the fields no live non-test code reads that the gate keeps
// anyway, keyed as the gate reports them.
var keptFields = map[string]string{
	"spineless/internal/core.BurstResult.Incomplete": "DrainMS skips burst flows that never finish; this count is how callers of the facade's RunBurst, and its tests, see them",
}

// dynamicMethods are the method names the standard library calls through
// an interface the module need not name: fmt's Stringer, GoStringer,
// Formatter and error; sort.Interface and heap.Interface; json's and
// encoding's marshalers; and errors' Unwrap, Is and As.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Unwrap": true, "Is": true, "As": true,
}

// declNode is one declaration: a function, a method, or one spec of a
// type, var or const group. It is live once any object it declares is.
type declNode struct {
	uses  []string // package-level objects and methods it names
	reads []string // fields it reads
}

// deadCode returns "file:line: name" for every package-level object,
// method and field of pkgs, outside the root package, that the liveness
// rules of TestNoUnusedDeclarations find dead.
func deadCode(fset *token.FileSet, pkgs []*LoadedPackage) []string {
	nodes := make(map[string]*declNode)
	var roots []string
	for _, p := range pkgs {
		facade := !strings.Contains(p.ImportPath, "/")
		for _, f := range p.Files {
			writes := writtenIdents(f)
			for i, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					var key, recv string
					switch {
					case d.Recv != nil:
						key = methodKey(p.Info.Defs[d.Name].(*types.Func))
						recv = recvBase(p.Info.Defs[d.Name].(*types.Func)).Obj().Name()
					case d.Name.Name == "init":
						key = fmt.Sprintf("%s.init#%s:%d", p.ImportPath, filepath.Base(fset.Position(d.Pos()).Filename), i)
						roots = append(roots, key)
					default:
						key = p.ImportPath + "." + d.Name.Name
						if d.Name.Name == "main" && p.Pkg.Name() == "main" {
							roots = append(roots, key)
						}
					}
					nodes[key] = collectUses(fset, p, d, writes, recv)
					if facade {
						roots = append(roots, key)
					}
				case *ast.GenDecl:
					for j, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						default:
							continue
						}
						n := collectUses(fset, p, s, writes, "")
						for _, id := range names {
							key := p.ImportPath + "." + id.Name
							if id.Name == "_" {
								key = fmt.Sprintf("%s._#%s:%d.%d", p.ImportPath, filepath.Base(fset.Position(s.Pos()).Filename), i, j)
							}
							nodes[key] = n
							if facade || id.Name == "_" {
								roots = append(roots, key)
							}
						}
					}
				}
			}
		}
	}
	roots = append(roots, interfaceMethods(pkgs)...)
	for key := range keptMethods {
		roots = append(roots, key)
	}

	live := make(map[string]bool)
	read := make(map[string]bool)
	for len(roots) > 0 {
		key := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if live[key] {
			continue
		}
		live[key] = true
		if n := nodes[key]; n != nil {
			roots = append(roots, n.uses...)
			for _, r := range n.reads {
				read[r] = true
			}
		}
	}

	exempt := readImplicitly(fset, pkgs)
	var out []string
	report := func(pos token.Pos, name string) {
		position := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", position.Filename, position.Line, name))
	}
	declared := make(map[string]bool) // methods and fields, as reported
	for _, p := range pkgs {
		if !strings.Contains(p.ImportPath, "/") {
			continue // the root facade exports to callers outside the module
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if key := p.ImportPath + "." + name; !live[key] {
				report(scope.Lookup(name).Pos(), key)
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok && d.Recv != nil {
					key := methodKey(p.Info.Defs[d.Name].(*types.Func))
					declared[key] = true
					if !live[key] {
						report(d.Name.Pos(), key)
					}
				}
			}
			for st, owner := range structOwners(p, f) {
				for _, field := range st.Fields.List {
					if field.Tag != nil {
						continue // exempt; embedded fields have no names
					}
					for _, id := range field.Names {
						k := fieldKey(fset, p.Info.Defs[id].(*types.Var))
						name := owner + "." + id.Name
						declared[name] = true
						switch dead := !read[k] && !exempt[k]; {
						case dead && keptFields[name] == "":
							report(id.Pos(), name)
						case !dead && keptFields[name] != "":
							report(id.Pos(), name+" is read, so keptFields need not list it")
						}
					}
				}
			}
		}
	}
	for _, kept := range []map[string]string{keptMethods, keptFields} {
		for name := range kept {
			if !declared[name] {
				out = append(out, name+" is listed as kept but not declared")
			}
		}
	}
	sort.Strings(out)
	return out
}

// collectUses records what node uses. A method's uses of its own receiver
// type are dropped, so a type's methods do not keep the type alive.
func collectUses(fset *token.FileSet, p *LoadedPackage, node ast.Node, writes map[*ast.Ident]bool, recv string) *declNode {
	n := &declNode{}
	ast.Inspect(node, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := p.Info.Uses[id].(type) {
		case *types.Func:
			if obj.Type().(*types.Signature).Recv() != nil {
				if named := recvBase(obj); named != nil {
					n.uses = append(n.uses, methodKey(obj))
				}
				return true
			}
		case *types.Var:
			if obj.IsField() {
				if !writes[id] {
					n.reads = append(n.reads, fieldKey(fset, obj.Origin()))
				}
				return true
			}
		}
		if obj := packageLevel(p.Info.Uses[id]); obj != nil && !(obj.Pkg() == p.Pkg && obj.Name() == recv) {
			n.uses = append(n.uses, obj.Pkg().Path()+"."+obj.Name())
		}
		return true
	})
	return n
}

// writtenIdents returns the field selectors of f that only write: the
// outermost selector on the left of an assignment or of ++ and --, and the
// keys of composite literals.
func writtenIdents(f *ast.File) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			out[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				write(l)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				out[id] = true
			}
		}
		return true
	})
	return out
}

// structOwners maps every struct type written in f to the name the gate
// reports its fields under: path.Type for a declared type (nested
// anonymous structs included), path.struct for an anonymous one.
func structOwners(p *LoadedPackage, f *ast.File) map[*ast.StructType]string {
	out := make(map[*ast.StructType]string)
	ast.Inspect(f, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok && out[st] == "" {
			out[st] = p.ImportPath + ".struct"
		}
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		ast.Inspect(ts.Type, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				out[st] = p.ImportPath + "." + ts.Name.Name
			}
			return true
		})
		return true
	})
	return out
}

// interfaceMethods returns the keys of the methods the interface rule
// keeps: those whose name is in dynamicMethods, and those that implement a
// method of an interface type some package of pkgs names.
//
// Each package is type-checked from source but sees its imports through
// export data, so one declared type can exist as two types.Objects. An
// implementation is looked for between every version of the concrete type
// and every version of the interface.
func interfaceMethods(pkgs []*LoadedPackage) []string {
	versions := make(map[string][]*types.Package)
	seenPkg := make(map[*types.Package]bool)
	var addPackage func(pkg *types.Package)
	addPackage = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		versions[pkg.Path()] = append(versions[pkg.Path()], pkg)
		for _, imp := range pkg.Imports() {
			addPackage(imp)
		}
	}
	for _, p := range pkgs {
		addPackage(p.Pkg)
	}
	// everyVersion returns t and, for a package-level named type, its
	// other versions.
	everyVersion := func(t types.Type) []types.Type {
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return []types.Type{t}
		}
		var out []types.Type
		for _, pkg := range versions[named.Obj().Pkg().Path()] {
			if obj, ok := pkg.Scope().Lookup(named.Obj().Name()).(*types.TypeName); ok {
				out = append(out, obj.Type())
			}
		}
		return out
	}

	byMethod := make(map[string][]types.Type)
	seen := make(map[types.Type]bool)
	addInterface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[t] {
			return
		}
		seen[t] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], t)
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if tn, ok := obj.(*types.TypeName); ok {
				addInterface(tn.Type())
			}
		}
		for _, tv := range p.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addInterface(tv.Type)
			}
		}
	}

	var out []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				d, ok := d.(*ast.FuncDecl)
				if !ok || d.Recv == nil {
					continue
				}
				m := p.Info.Defs[d.Name].(*types.Func)
				if dynamicMethods[m.Name()] || implementsAny(everyVersion(recvBase(m)), byMethod[m.Name()], everyVersion) {
					out = append(out, methodKey(m))
				}
			}
		}
	}
	return out
}

// implementsAny reports whether a version of a concrete type, or a pointer
// to it, implements a version of one of ifaces.
func implementsAny(concrete []types.Type, ifaces []types.Type, everyVersion func(types.Type) []types.Type) bool {
	for _, iface := range ifaces {
		for _, iv := range everyVersion(iface) {
			it := iv.Underlying().(*types.Interface)
			for _, c := range concrete {
				if types.Implements(c, it) || types.Implements(types.NewPointer(c), it) {
					return true
				}
			}
		}
	}
	return false
}

// readImplicitly returns the keys of the fields that code reads without
// naming them: every field of a type that reaches encoding/json, of a map
// key type, or of a type compared with == or !=, with the fields of the
// structs nested in those.
//
// A type reaches encoding/json when a value of it is an argument of an
// encoding/json call or flows into a sink: a parameter, local or field of
// interface type whose value reaches encoding/json (serve's writeJSON, the
// benchmark's step digests), or a type parameter of a function that passes
// values of it there (store.Memoize).
func readImplicitly(fset *token.FileSet, pkgs []*LoadedPackage) map[string]bool {
	out := make(map[string]bool)
	seen := make(map[types.Type]bool)
	// mark walks t. It follows pointers, slices and maps only when deep is
	// set: encoding/json follows them, == and map hashing do not.
	var mark func(t types.Type, deep bool)
	mark = func(t types.Type, deep bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			mark(u.Underlying(), deep)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				out[fieldKey(fset, u.Field(i).Origin())] = true
				mark(u.Field(i).Type(), deep)
			}
		case *types.Array:
			mark(u.Elem(), deep)
		case *types.Pointer:
			if deep {
				mark(u.Elem(), deep)
			}
		case *types.Slice:
			if deep {
				mark(u.Elem(), deep)
			}
		case *types.Map:
			if deep {
				mark(u.Key(), deep)
				mark(u.Elem(), deep)
			}
		}
	}

	// A sink is a variable of interface type (a parameter, a local or a
	// field, keyed as fieldKey keys a field) whose value reaches
	// encoding/json, or a type parameter T of a function F, keyed "F#T",
	// that passes a T to it. Sinks are found to a fixed point.
	sinks := make(map[string]bool)
	// toSink marks the type of e, a value that reaches encoding/json, and
	// makes sinks of the variable e reads and of the type parameters of the
	// enclosing function fd that its type is built from.
	toSink := func(p *LoadedPackage, fd *ast.FuncDecl, e ast.Expr) (grown bool) {
		sink := func(key string) {
			grown = grown || !sinks[key]
			sinks[key] = true
		}
		t := p.Info.Types[e].Type
		mark(t, true)
		if v := rootVar(p.Info, e); v != nil && holdsInterface(v.Type()) {
			sink(fieldKey(fset, v))
		}
		if fd != nil {
			fn := p.Info.Defs[fd.Name].(*types.Func)
			tps := fn.Type().(*types.Signature).TypeParams()
			for i := 0; i < tps.Len(); i++ {
				if mentions(t, tps.At(i)) {
					sink(funcKey(fn) + "#" + tps.At(i).Obj().Name())
				}
			}
		}
		return grown
	}
	isSink := func(p *LoadedPackage, e ast.Expr) bool {
		v := rootVar(p.Info, e)
		return v != nil && sinks[fieldKey(fset, v)]
	}
	for grown := true; grown; {
		grown = false
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					fd, _ := d.(*ast.FuncDecl)
					ast.Inspect(d, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.AssignStmt:
							for i := range n.Lhs {
								if len(n.Lhs) == len(n.Rhs) && isSink(p, n.Lhs[i]) {
									grown = toSink(p, fd, n.Rhs[i]) || grown
								}
							}
						case *ast.KeyValueExpr:
							if id, ok := n.Key.(*ast.Ident); ok && isSink(p, id) {
								grown = toSink(p, fd, n.Value) || grown
							}
						case *ast.CallExpr:
							fn := calledFunc(p.Info, n)
							if fn == nil || fn.Pkg() == nil || funcKey(fn) == "" {
								break
							}
							sig := fn.Origin().Type().(*types.Signature)
							for i, arg := range n.Args {
								param := sig.Params().At(min(i, sig.Params().Len()-1))
								if fn.Pkg().Path() == "encoding/json" || sinks[fieldKey(fset, param)] {
									grown = toSink(p, fd, arg) || grown
								}
							}
							for i := 0; i < sig.TypeParams().Len(); i++ {
								if tp := sig.TypeParams().At(i); sinks[funcKey(fn)+"#"+tp.Obj().Name()] {
									for _, t := range bind(sig, p.Info.Types[n.Fun].Type, tp) {
										mark(t, true)
									}
								}
							}
						}
						return true
					})
				}
			}
		}
	}

	// Every json walk is done, so a type the == walk finds seen is fully
	// marked already.
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if n, ok := n.(*ast.BinaryExpr); ok && (n.Op == token.EQL || n.Op == token.NEQ) {
					mark(p.Info.Types[n.X].Type, false)
					mark(p.Info.Types[n.Y].Type, false)
				}
				return true
			})
		}
		for _, tv := range p.Info.Types {
			if tv.Type == nil {
				continue
			}
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				mark(m.Key(), false)
			}
		}
	}
	return out
}

// rootVar returns the variable e reads or writes through: x for x, &x,
// x[i], x[i:j] and p.x, where x is a field in p.x.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.ObjectOf(e).(*types.Var)
		if v != nil {
			return v.Origin()
		}
	case *ast.SelectorExpr:
		return rootVar(info, e.Sel)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return rootVar(info, e.X)
		}
	case *ast.IndexExpr:
		return rootVar(info, e.X)
	case *ast.SliceExpr:
		return rootVar(info, e.X)
	}
	return nil
}

// holdsInterface reports whether a value of type t holds interface values.
func holdsInterface(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface:
		return true
	case *types.Pointer:
		return holdsInterface(u.Elem())
	case *types.Slice:
		return holdsInterface(u.Elem())
	case *types.Array:
		return holdsInterface(u.Elem())
	case *types.Map:
		return holdsInterface(u.Elem())
	}
	return false
}

// mentions reports whether t is built from the type parameter tp.
func mentions(t types.Type, tp *types.TypeParam) bool {
	switch u := t.(type) {
	case *types.TypeParam:
		return u == tp
	case *types.Pointer:
		return mentions(u.Elem(), tp)
	case *types.Slice:
		return mentions(u.Elem(), tp)
	case *types.Array:
		return mentions(u.Elem(), tp)
	case *types.Map:
		return mentions(u.Key(), tp) || mentions(u.Elem(), tp)
	}
	return false
}

// bind returns the types that inst, an instance of the generic type gen,
// has where gen has the type parameter tp.
func bind(gen, inst types.Type, tp *types.TypeParam) []types.Type {
	switch g := gen.(type) {
	case *types.TypeParam:
		if g == tp {
			return []types.Type{inst}
		}
	case *types.Signature:
		i, ok := inst.(*types.Signature)
		if !ok {
			return nil
		}
		var out []types.Type
		for _, pair := range [][2]*types.Tuple{{g.Params(), i.Params()}, {g.Results(), i.Results()}} {
			for k := 0; k < pair[0].Len() && k < pair[1].Len(); k++ {
				out = append(out, bind(pair[0].At(k).Type(), pair[1].At(k).Type(), tp)...)
			}
		}
		return out
	case *types.Pointer:
		if i, ok := inst.(*types.Pointer); ok {
			return bind(g.Elem(), i.Elem(), tp)
		}
	case *types.Slice:
		if i, ok := inst.(*types.Slice); ok {
			return bind(g.Elem(), i.Elem(), tp)
		}
	}
	return nil
}

// calledFunc returns the function or method call invokes, or nil.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X // an explicit instantiation, f[T](x)
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := fun.(*ast.Ident)
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcKey names a function path.Name and a method path.Type.Method.
func funcKey(fn *types.Func) string {
	if fn.Type().(*types.Signature).Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if recvBase(fn) == nil {
		return "" // an interface's method
	}
	return methodKey(fn)
}

// methodKey names a method path.Type.Method, by its generic origin.
func methodKey(m *types.Func) string {
	return m.Pkg().Path() + "." + recvBase(m).Obj().Name() + "." + m.Name()
}

// recvBase returns the named type a method is declared on, or nil for an
// interface's method.
func recvBase(m *types.Func) *types.Named {
	t := m.Origin().Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || types.IsInterface(named) {
		return nil
	}
	return named.Origin()
}

// fieldKey names a field by its package, file, line and name. Export data
// keeps the line of a declaration, so the key matches between the version
// of a field its own package type-checks and the one importers see.
func fieldKey(fset *token.FileSet, v *types.Var) string {
	pos := fset.Position(v.Pos())
	return fmt.Sprintf("%s %s:%d %s", v.Pkg().Path(), filepath.Base(pos.Filename), pos.Line, v.Name())
}

// packageLevel returns obj's generic origin when it is a package-level
// func, type, var or const, and nil for anything else: locals, fields,
// methods, imports, labels and universe objects.
func packageLevel(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin()
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return nil
	}
	return obj
}
