package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestNoUnusedDeclarations fails on any package-level func, type, var or
// const that no non-test file in the module uses. Load reads non-test files
// only, so a declaration that only tests call is reported too: move it into
// that package's _test.go, or delete it. A use inside the object's own
// declaration does not count, so recursion does not keep a function alive,
// and a type's own methods do not keep the type alive.
//
// The root package is the public facade and is exempt. Methods are not
// checked, because an interface may need an exported method that no caller
// names (errors.Is's Unwrap, heap.Interface's Push and Pop).
func TestNoUnusedDeclarations(t *testing.T) {
	fset, pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, name := range unusedDeclarations(fset, pkgs) {
		unused = append(unused, "\n\t"+name)
	}
	if len(unused) > 0 {
		t.Errorf("%d package-level declarations that no non-test file uses (delete them, or move them into a _test.go file):%s",
			len(unused), strings.Join(unused, ""))
	}
}

// unusedDeclarations returns "file:line: path.Name" for every package-level
// object of pkgs, outside the module's root package, that no identifier of
// pkgs uses from outside the object's own declaration.
func unusedDeclarations(fset *token.FileSet, pkgs []*LoadedPackage) []string {
	// Imported objects come from export data, so they are not the objects
	// the declaring package's own type-check made: match them by path.name.
	key := func(obj types.Object) string { return obj.Pkg().Path() + "." + obj.Name() }
	used := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				for node, owners := range declOwners(p.Info, d) {
					ast.Inspect(node, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						obj := packageLevel(p.Info.Uses[id])
						if obj != nil && (obj.Pkg() != p.Pkg || !owners[obj.Name()]) {
							used[key(obj)] = true
						}
						return true
					})
				}
			}
		}
	}

	var out []string
	for _, p := range pkgs {
		if !strings.Contains(p.ImportPath, "/") {
			continue // the root facade exports to callers outside the module
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "main" && p.Pkg.Name() == "main" {
				continue
			}
			if !used[key(obj)] {
				pos := fset.Position(obj.Pos())
				out = append(out, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, key(obj)))
			}
		}
	}
	sort.Strings(out)
	return out
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

// declOwners splits d into the nodes that declare something, each mapped to
// the names of the package-level objects it declares: a function, a method
// (which declares part of its receiver's base type), or one spec of a var,
// const or type group. Imports declare nothing at package level.
func declOwners(info *types.Info, d ast.Decl) map[ast.Node]map[string]bool {
	out := make(map[ast.Node]map[string]bool)
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			out[d] = map[string]bool{d.Name.Name: true}
			break
		}
		out[d] = map[string]bool{}
		recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			out[d][named.Obj().Name()] = true
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out[s] = map[string]bool{s.Name.Name: true}
			case *ast.ValueSpec:
				out[s] = map[string]bool{}
				for _, id := range s.Names {
					out[s][id.Name] = true
				}
			}
		}
	}
	return out
}
