// Command spinelint runs the reproduction's custom invariant checkers over
// Go packages, one package at a time: determinism contracts, stable
// iteration order, shared-RNG and lock/goroutine hygiene, library-safe
// error handling, and the bug classes this tree has hit before. `spinelint
// -list` prints the checkers; internal/lint documents them and DESIGN.md §7
// says which runtime gates cover the bug classes no checker looks for.
//
// Usage:
//
//	spinelint [-list] [-checks id,id,...] [-format text|json] [packages]
//
// Packages default to ./... . Exit status is 1 if any finding is reported,
// 2 on load errors. Suppress a single finding with a trailing or preceding
// //lint:allow <check> comment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"spineless/internal/lint"
)

// jsonFinding is the -format=json wire shape, consumed by the CI
// problem-matcher (.github/spinelint-problem-matcher.json).
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list available checks and exit")
	checks := flag.String("checks", "", "comma-separated check IDs to run (default: all)")
	format := flag.String("format", "text", "output format: text or json")
	flag.Parse()

	checkers := lint.DefaultCheckers()
	if *list {
		for _, c := range checkers {
			fmt.Printf("%-14s %s\n", c.Name(), c.Doc())
		}
		return
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "spinelint: unknown -format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	if *checks != "" {
		want := make(map[string]bool)
		for _, id := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(id)] = true
		}
		var kept []lint.Checker
		for _, c := range checkers {
			if want[c.Name()] {
				kept = append(kept, c)
				delete(want, c.Name())
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for id := range want {
				unknown = append(unknown, id)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "spinelint: unknown checks %s (see -list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
		checkers = kept
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset, pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spinelint:", err)
		os.Exit(2)
	}
	findings := lint.Run(fset, pkgs, checkers)

	switch *format {
	case "json":
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:    f.Pos.Filename,
				Line:    f.Pos.Line,
				Col:     f.Pos.Column,
				Check:   f.Check,
				Message: f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "spinelint:", err)
			os.Exit(2)
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
