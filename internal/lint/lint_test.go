package lint

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expected.txt golden files")

// fixtureCheckers returns the checkers a fixture directory exercises — the
// checker whose ID matches the directory name, or the full default suite for
// the allow- and allowpkg-pragma fixtures.
func fixtureCheckers(t *testing.T, dir string) []Checker {
	all := DefaultCheckers()
	if dir == "allow" || strings.HasPrefix(dir, "allowpkg") {
		return all
	}
	for _, c := range all {
		if c.Name() == dir {
			return []Checker{c}
		}
	}
	t.Fatalf("no checker matches fixture dir %q", dir)
	return nil
}

// runFixture loads one testdata package and runs the checkers over it.
func runFixture(t *testing.T, dir string, checkers []Checker) []Finding {
	t.Helper()
	fset, pkg, err := LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	return Run(fset, []*LoadedPackage{pkg}, checkers)
}

// TestGolden pins every checker against its testdata fixture: the findings
// (file:line:col, ID, message) must match expected.txt exactly, so checker
// regressions are caught without depending on the real tree's state.
func TestGolden(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("testdata", e.Name())
		seen[e.Name()] = true
		t.Run(e.Name(), func(t *testing.T) {
			var b strings.Builder
			for _, f := range runFixture(t, e.Name(), fixtureCheckers(t, e.Name())) {
				// Render paths relative to the fixture dir so goldens are
				// machine-independent.
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
					filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Check, f.Message)
			}
			got := b.String()
			golden := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch (run `go test ./internal/lint -run Golden -update` after verifying):\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
	// Every checker must have a fixture: a new checker without goldens is
	// itself a regression.
	for _, c := range DefaultCheckers() {
		if !seen[c.Name()] {
			t.Errorf("checker %q has no testdata fixture", c.Name())
		}
	}
}

// TestAllowPkgScopeAndDenial guards the package-scope pragma: in an
// ordinary package it suppresses exactly the named checks (no leak to
// others), while in a deny-listed package it is both ignored and reported.
func TestAllowPkgScopeAndDenial(t *testing.T) {
	findings := runFixture(t, "allowpkg", DefaultCheckers())
	if len(findings) != 1 || findings[0].Check != "floateq" {
		t.Fatalf("allowpkg: want exactly one floateq finding surviving, got %v", findings)
	}

	findings = runFixture(t, "allowpkgdeny", DefaultCheckers())
	got := map[string]int{}
	for _, f := range findings {
		got[f.Check]++
	}
	if got["allowpkg"] != 1 || got["determinism"] != 1 || len(findings) != 2 {
		t.Fatalf("allowpkgdeny: want one refused-pragma and one determinism finding, got %v", findings)
	}
}

// TestAllowOnlySuppressesNamedCheck guards the pragma parser: an allow for
// one check must not suppress another on the same line.
func TestAllowOnlySuppressesNamedCheck(t *testing.T) {
	findings := runFixture(t, "allow", DefaultCheckers())
	if len(findings) != 1 || findings[0].Check != "floateq" {
		t.Fatalf("want exactly one floateq finding surviving the pragmas, got %v", findings)
	}
}

// TestDeterminismEnvRuleIgnoresScope pins the one unscoped determinism
// rule: outside the simulator scope the wall-clock and global-RNG calls of
// the fixture pass, but its environment and host reads are still findings.
func TestDeterminismEnvRuleIgnoresScope(t *testing.T) {
	var got []string
	for _, f := range runFixture(t, "determinism", []Checker{&Determinism{Scope: []string{"no/such/package"}}}) {
		got = append(got, f.Message[:strings.Index(f.Message, " ")])
	}
	want := []string{"os.Getenv", "os.Hostname", "runtime.NumCPU"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("out-of-scope findings %v, want %v", got, want)
	}
}

// TestPragmasNameRegisteredCheckers fails on stale pragmas: every
// //lint:allow and //lint:allowpkg in the module must name a registered
// checker, so retiring a checker cannot leave dead exemptions behind.
// testdata/ holds fixtures. benchmark/ is skipped: it is a separate
// measurement harness whose sources stay fixed across changes to the code it
// measures, and the suppression layer ignores unknown IDs, so a stale
// pragma there is harmless.
func TestPragmasNameRegisteredCheckers(t *testing.T) {
	registered := map[string]bool{}
	for _, c := range DefaultCheckers() {
		registered[c.Name()] = true
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git":
				return filepath.SkipDir
			case "benchmark":
				if filepath.Dir(path) == root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, checks, ok := parsePragma(c.Text)
				if !ok {
					continue
				}
				if len(checks) == 0 {
					t.Errorf("%s: pragma names no checker", fset.Position(c.Pos()))
				}
				for _, check := range checks {
					if !registered[check] {
						t.Errorf("%s: pragma names %q, which is not a registered checker", fset.Position(c.Pos()), check)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
