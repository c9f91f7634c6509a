package lint

import (
	"go/types"
	"strings"
	"testing"
)

// TestDetFlowSinksNameDeclaredObjects loads the packages detflow's default
// sink lists point into and requires every entry (fixtures aside) to name
// a type or function that is really declared there. Sinks are matched by
// name suffix, so a renamed or never-existing type silently turns its entry
// into a no-op instead of a compile error.
func TestDetFlowSinksNameDeclaredObjects(t *testing.T) {
	var typeEntries, funcEntries, patterns []string
	seen := map[string]bool{}
	collect := func(entries []string, into *[]string) {
		for _, e := range entries {
			if strings.HasPrefix(e, "testdata/") {
				continue
			}
			*into = append(*into, e)
			pkg := sinkPackage(e)
			if !seen[pkg] {
				seen[pkg] = true
				patterns = append(patterns, "./"+pkg)
			}
		}
	}
	collect(defaultSinkTypes, &typeEntries)
	collect(defaultSinkFuncs, &funcEntries)

	fset, pkgs, err := Load("../..", patterns)
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(fset, pkgs)
	var declTypes []string
	for _, p := range pkgs {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if _, ok := scope.Lookup(name).(*types.TypeName); ok {
				declTypes = append(declTypes, p.ImportPath+"."+name)
			}
		}
	}
	declFuncs := make([]string, 0, len(prog.Funcs))
	for name := range prog.Funcs {
		declFuncs = append(declFuncs, name)
	}

	for _, e := range typeEntries {
		if !anyMatches(declTypes, e) {
			t.Errorf("defaultSinkTypes entry %q names no declared type", e)
		}
	}
	for _, e := range funcEntries {
		if !anyMatches(declFuncs, e) {
			t.Errorf("defaultSinkFuncs entry %q names no declared function", e)
		}
	}
}

// sinkPackage is the module-relative package directory of a sink entry:
// "internal/store.Store).Put" → "internal/store".
func sinkPackage(entry string) string {
	slash := strings.LastIndex(entry, "/")
	return entry[:slash+strings.Index(entry[slash:], ".")]
}

func anyMatches(names []string, suffix string) bool {
	for _, n := range names {
		if nameMatches(n, []string{suffix}) {
			return true
		}
	}
	return false
}
