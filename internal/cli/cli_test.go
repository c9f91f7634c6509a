package cli

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sharedNames are the flags only this package may declare.
var sharedNames = []string{"workers", "store", "seed", "audit", "telemetry", "cpuprofile", "memprofile"}

// driverFlags reads cmd/<driver>/main.go and returns the flag names it
// declares itself (string literals handed to a flag.* constructor) and the
// shared names it hands to Register.
func driverFlags(t *testing.T, driver string) (own, shared []string) {
	t.Helper()
	path := filepath.Join("..", "..", "cmd", driver, "main.go")
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lit := func(e ast.Expr) (string, bool) {
		b, ok := e.(*ast.BasicLit)
		if !ok || b.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(b.Value)
		return s, err == nil
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch {
		case pkg.Name == "cli" && sel.Sel.Name == "Register":
			for _, a := range call.Args[1:] {
				name, ok := lit(a)
				if !ok {
					t.Errorf("%s: Register argument is not a string literal", path)
				}
				shared = append(shared, name)
			}
		case pkg.Name == "flag":
			// flag.Int(name, …) takes the name first, flag.IntVar(&v, name, …) second.
			at := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				at = 1
			}
			if len(call.Args) > at {
				if name, ok := lit(call.Args[at]); ok {
					own = append(own, name)
				}
			}
		}
		return true
	})
	return own, shared
}

// TestDriverFlagSets keeps the shared flags declared once. No figure driver
// may hand a shared flag name to a flag.* constructor (it registers the name
// through Register instead), and each driver's full flag set is pinned, so a
// driver cannot silently gain or lose a flag.
func TestDriverFlagSets(t *testing.T) {
	for driver, want := range map[string]string{
		"fig4":     "audit claim cpuprofile dump extra maxflows memprofile paper scale seed store svg telemetry trials util window workers",
		"fig5":     "audit cpuprofile csv flows memprofile paper scale seed store svg workers",
		"fig6":     "audit cpuprofile maxflows memprofile ports scheme seed store supernodes svg topo tors util window workers",
		"failures": "audit detect fail-at flap flows fractions gray gray-loss gray-rate k live ports preserve-connectivity round-delay seed store supernodes telemetry topo tors window workers",
		"bakeoff":  "audit cpuprofile csv liveflows maxflows maxpairs memprofile ports scalex schemes seed smoke store topos trials util window workers",
	} {
		own, shared := driverFlags(t, driver)
		for _, name := range own {
			for _, s := range sharedNames {
				if name == s {
					t.Errorf("cmd/%s declares the shared flag -%s by hand; register it through cli.Register", driver, name)
				}
			}
		}
		all := append(own, shared...)
		sort.Strings(all)
		if got := strings.Join(all, " "); got != want {
			t.Errorf("cmd/%s flags:\n got %s\nwant %s", driver, got, want)
		}
	}
}

func TestRegisterDeclaresOnlyTheNamedFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "seed", "workers")
	if err := fs.Parse([]string{"-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	if want := (Flags{Seed: 1, Workers: 3}); *f != want {
		t.Fatalf("parsed %+v, want %+v", *f, want)
	}
	if err := fs.Parse([]string{"-audit"}); err == nil {
		t.Fatal("-audit parsed although it was not registered")
	}
	var all []string
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs, sharedNames...)
	fs.VisitAll(func(fl *flag.Flag) { all = append(all, fl.Name) })
	want := append([]string(nil), sharedNames...)
	sort.Strings(want)
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("registered %v, want %v", all, want)
	}
}

// TestStart covers the harness: the cache opens under -store, an observed
// run bypasses it, and the profiles land on Close.
func TestStart(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	dir := t.TempDir()

	plain := Flags{Store: filepath.Join(dir, "store")}
	run, err := plain.Start("t")
	if err != nil {
		t.Fatal(err)
	}
	if run.Cache == nil || run.Telemetry != nil {
		t.Fatalf("-store alone: cache %v, recorder %v; want a cache and no recorder", run.Cache, run.Telemetry)
	}
	run.Close()

	observed := Flags{Store: filepath.Join(dir, "store"), Telemetry: true}
	if run, err = observed.Start("t"); err != nil {
		t.Fatal(err)
	}
	if run.Cache != nil || run.Telemetry == nil {
		t.Fatalf("-store -telemetry: cache %v, recorder %v; want the cache bypassed and a recorder", run.Cache, run.Telemetry)
	}
	run.Close()

	profiled := Flags{CPUProfile: filepath.Join(dir, "cpu.pprof"), MemProfile: filepath.Join(dir, "mem.pprof")}
	if run, err = profiled.Start("t"); err != nil {
		t.Fatal(err)
	}
	if run.Cache != nil {
		t.Fatal("a cache opened without -store")
	}
	run.Close()
	for _, p := range []string{profiled.CPUProfile, profiled.MemProfile} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}

	unwritable := Flags{CPUProfile: filepath.Join(dir, "missing", "cpu.pprof")}
	if _, err := unwritable.Start("t"); err == nil {
		t.Fatal("Start succeeded with an unwritable -cpuprofile path")
	}
}
