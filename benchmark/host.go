package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostShape travels with every result so a surprising number can be told
// from a bad host.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// StealTicks is the growth of the hypervisor-steal column of the "cpu"
	// line of /proc/stat over the run, in USER_HZ ticks; -1 where the file
	// cannot be read.
	StealTicks int64 `json:"steal_ticks"`
}

func readHost() hostShape {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte(runtime.GOOS)
	}
	return hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
	}
}

// stealTicks reads the cumulative steal time of all CPUs, or -1.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	return parseSteal(string(raw))
}

// parseSteal extracts the eighth value of the aggregate "cpu" line:
// user nice system idle iowait irq softirq steal.
func parseSteal(stat string) int64 {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) >= 9 && f[0] == "cpu" {
			v, err := strconv.ParseInt(f[8], 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// peakRSSMB is the process's peak resident set so far. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
