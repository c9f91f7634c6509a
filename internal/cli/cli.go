// Package cli is what the figure drivers (fig4, fig5, fig6, failures,
// bakeoff) have in common: the flags they share are declared here once, and
// Start turns the parsed values into a running harness — profiles, the
// tool-tagged result cache, the audit banner and the telemetry recorder.
// A driver names the subset of shared flags it has; cli_test.go pins every
// driver's full flag set, so a flag is neither redeclared by hand in a
// driver nor gained or lost silently.
package cli

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"spineless/internal/store"
	"spineless/internal/telemetry"
)

// Flags holds the values of the shared flags. A flag the driver did not
// register keeps its zero value, which Start reads as "off".
type Flags struct {
	Workers    int
	Store      string
	Seed       int64
	Audit      bool
	Telemetry  bool
	CPUProfile string
	MemProfile string
}

// Register declares the named shared flags on fs and returns where Parse
// leaves their values. Names are from: workers, store, seed, audit,
// telemetry, cpuprofile, memprofile.
func Register(fs *flag.FlagSet, names ...string) *Flags {
	f := &Flags{}
	for _, name := range names {
		switch name {
		case "workers":
			fs.IntVar(&f.Workers, name, 0, "parallel workers per fan-out (0 = one per CPU); results are identical at any value")
		case "store":
			fs.StringVar(&f.Store, name, "", "content-addressed result cache directory; repeated runs reuse finished cells")
		case "seed":
			fs.Int64Var(&f.Seed, name, 1, "random seed (the run is fully deterministic given the seed)")
		case "audit":
			fs.BoolVar(&f.Audit, name, false, "run every packet simulation under the runtime invariant auditor; a violation fails the run (fig5 first cross-validates its flow-level model against netsim and the fluid bound)")
		case "telemetry":
			fs.BoolVar(&f.Telemetry, name, false, "record per-link/per-flow telemetry and print a digest after the run (bypasses -store; cannot share a run with -audit)")
		case "cpuprofile":
			fs.StringVar(&f.CPUProfile, name, "", "write a CPU profile to this file")
		case "memprofile":
			fs.StringVar(&f.MemProfile, name, "", "write a heap profile to this file on exit")
		default:
			panic(fmt.Sprintf("cli: %q is not a shared flag", name))
		}
	}
	return f
}

// Session is a started driver harness.
type Session struct {
	// Cache memoizes the driver's cells under its tool tag; nil (disabled)
	// when -store is unset or bypassed.
	Cache *store.Cache
	// Telemetry is the run's recorder; nil unless -telemetry is set.
	Telemetry *telemetry.Recorder

	stopProfiles func()
}

// Start begins the run the parsed flags describe for the named tool: it
// starts the profiles, prints the audit banner, builds the telemetry
// recorder and opens the tool-tagged cache. An observed run bypasses the
// cache: a hit executes no simulation, so its digest would read as an idle
// fabric. Close the session before exit — and avoid os.Exit on the success
// path, which would skip a deferred Close and lose the profiles.
func (f *Flags) Start(tool string) (*Session, error) {
	stop, err := startProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	s := &Session{stopProfiles: stop}
	if f.Audit {
		log.Printf("invariant auditing enabled: any conservation/FIFO/TCP violation fails the run")
	}
	if f.Telemetry {
		s.Telemetry = telemetry.NewRecorder(telemetry.Config{})
	}
	if f.Telemetry && f.Store != "" {
		log.Printf("-telemetry requested: result cache bypassed for this run")
		return s, nil
	}
	if s.Cache, err = store.OpenCache(f.Store, tool, log.Printf); err != nil {
		stop()
		return nil, err
	}
	return s, nil
}

// Close flushes the cache index and the profiles.
func (s *Session) Close() {
	s.Cache.Close() // flushes an index every Put already flushed; cannot fail
	s.stopProfiles()
}

// startProfiles begins CPU profiling to cpuPath and schedules a heap
// profile to memPath; either may be empty to skip that profile. The
// returned stop function flushes both.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cli: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cli: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cli:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle allocation stats before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cli:", err)
		}
	}, nil
}
