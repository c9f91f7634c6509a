// Command benchmark is the repository's benchmark (see README.md and
// BENCHMARK.json): four layered workloads, six end-to-end metrics with a
// regression bound each, and a traced run that reduces spans recorded around
// every call into a layer to per-layer metrics.
//
//	benchmark -workload fig4-packet [-seed 1] [-seconds 24] [-trace 0|1]
//	benchmark -workload all -append runs.ndjson
//	benchmark -compare a.ndjson b.ndjson
//	benchmark -manifest > BENCHMARK.json
//
// The last line of standard output of a run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

var workloads = []*workloadDef{fig4Packet, fig5Flow, fabricBuild, svcMix}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig4-packet, fig5-flow, fabric-build, svc-mix or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", runSeconds, "seconds of timed rounds (at least 20 rounds are always run)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and benchmark/out/<workload>.trace.json")
	smoke := fs.Bool("smoke", false, "reduced-size pass: every step and check, two rounds")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result, trace and scratch files")
	appendTo := fs.String("append", "", "also append each run's full result to this NDJSON file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two NDJSON result files: -compare a.ndjson b.ndjson")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		raw, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", raw)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	var defs []*workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *trace != 0, small: *smoke, outDir: *outDir}
	code := 0
	for _, def := range defs {
		res, err := runWorkload(def, opt)
		if err != nil {
			// No result line: the run could not be made at all.
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		if err := saveResult(res, *outDir, *appendTo); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		if !report(stdout, res) || !res.Correct {
			code = 1
		}
	}
	return code
}

// saveResult writes the full result (host shape included) beside the trace,
// and appends it to the NDJSON file -compare reads when one is named.
func saveResult(res *result, dir, appendTo string) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "result"
	if res.Traced {
		kind = "traced"
	}
	if err := os.WriteFile(filepath.Join(dir, res.Workload+"."+kind+".json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if appendTo == "" {
		return nil
	}
	f, err := os.OpenFile(appendTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for a reader and ends with the contract line; it
// returns false when that line could not be encoded.
func report(w io.Writer, res *result) bool {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  %d timed rounds of %d steps\n",
		res.Workload, res.Seed, mode, res.Rounds, len(res.Steps))
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s kernel %s steal_ticks=%d\n",
		res.Host.NProc, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Kernel, res.Host.StealTicks)
	fmt.Fprintf(w, "work: %d %s per round\n", res.WorkPerRound, res.WorkUnit)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	rd := res.Round
	fmt.Fprintf(w, "whole rounds (not gated): median %.2f ms, fastest %.2f ms", rd.MedianMS, rd.FastestMS)
	if rd.HiPct > 0 {
		fmt.Fprintf(w, ", p%g %.2f ms (%d of %d samples beyond)", rd.HiPct, rd.HiMS, rd.HiBeyond, rd.N)
	}
	fmt.Fprintf(w, ", %.0f%% of rounds slower than 1.25x the fastest\n", 100*rd.SlowShare)
	fmt.Fprintf(w, "set-up: first %.4f s, %d repetitions\n", res.SetupFirstS, res.SetupReps)
	fmt.Fprintf(w, "result_digest %s\n", res.ResultDigest)
	if res.TraceFile != "" {
		fmt.Fprintf(w, "trace written to %s\n", res.TraceFile)
	}
	verdict := "all checks passed"
	if !res.Correct {
		verdict = "CHECKS FAILED"
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed — %s\n", res.Attempted, res.Failed, verdict)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		// Only a non-finite metric can get here; say so instead of a line
		// the driver would misread.
		fmt.Fprintf(w, "cannot encode the result line: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return true
}
