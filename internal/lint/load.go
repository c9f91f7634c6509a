package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// LoadedPackage is one type-checked package ready for checking.
type LoadedPackage struct {
	ImportPath string
	Pkg        *types.Package
	Files      []*ast.File
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns with the go tool, parses and type-checks every
// matched package from source, and resolves imports (stdlib and sibling
// packages alike) through compiled export data. It is stdlib-only: the heavy
// lifting — pattern expansion, build caching, export-data generation — is
// delegated to `go list -export`, which the go command guarantees to keep
// compatible with go/importer.
func Load(dir string, patterns []string) (*token.FileSet, []*LoadedPackage, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*LoadedPackage
	for _, lp := range listed {
		if lp.DepOnly {
			continue
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, pkg)
	}
	return fset, out, nil
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

func typeCheck(fset *token.FileSet, imp types.Importer, lp listedPackage) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	return &LoadedPackage{ImportPath: lp.ImportPath, Pkg: pkg, Files: files, Info: info}, nil
}
