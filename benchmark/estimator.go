package main

import (
	"math"
	"sort"
	"time"
)

// stepTimes keeps every sample of one step, one entry per round it ran in.
type stepTimes struct {
	name    string
	samples []time.Duration
}

// fastest is the quickest sample: what the step costs on a quiet machine.
func (s *stepTimes) fastest() time.Duration {
	best := time.Duration(math.MaxInt64)
	for _, d := range s.samples {
		if d < best {
			best = d
		}
	}
	if len(s.samples) == 0 {
		return 0
	}
	return best
}

// quietSum is the benchmark's time estimator: the sum over steps of the
// fastest sample each step ever produced. A step needs one undisturbed sample
// in the whole run, not a whole undisturbed round — on a host whose speed
// moves in multi-second phases that is far steadier than the median round
// (see README.md, "Why the estimator is not a median").
func quietSum(steps []stepTimes) time.Duration {
	var sum time.Duration
	for i := range steps {
		sum += steps[i].fastest()
	}
	return sum
}

// roundTotals adds the steps' samples round by round.
func roundTotals(steps []stepTimes) []time.Duration {
	if len(steps) == 0 {
		return nil
	}
	// A failed step leaves no sample, so count only rounds every step has.
	n := len(steps[0].samples)
	for i := range steps {
		if len(steps[i].samples) < n {
			n = len(steps[i].samples)
		}
	}
	out := make([]time.Duration, n)
	for i := range steps {
		for r := range out {
			out[r] += steps[i].samples[r]
		}
	}
	return out
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between order statistics. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// reportedPercentiles are the candidates for the "high" percentile, lowest
// first.
var reportedPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the tail figure is never one outlier. With
// fewer than twenty samples none qualifies and ok is false.
func highPercentile(n int) (pct float64, beyond int, ok bool) {
	for i := len(reportedPercentiles) - 1; i >= 0; i-- {
		p := reportedPercentiles[i]
		// Samples strictly beyond the p-th percentile's position.
		b := n - 1 - int(math.Floor(p/100*float64(n-1)))
		if b >= 10 {
			return p, b, true
		}
	}
	return 0, 0, false
}

// spreadStats describes a sample of durations the way the report prints it.
type spreadStats struct {
	N         int     `json:"n"`
	MedianMS  float64 `json:"median_ms"`
	FastestMS float64 `json:"fastest_ms"`
	HiPct     float64 `json:"hi_pct,omitempty"`
	HiMS      float64 `json:"hi_ms,omitempty"`
	HiBeyond  int     `json:"hi_beyond,omitempty"`
	// SlowShare is the share of samples slower than 1.25 × the fastest: how
	// much of the run the host spent in a slow phase.
	SlowShare float64 `json:"slow_share"`
}

func describe(ds []time.Duration) spreadStats {
	if len(ds) == 0 {
		return spreadStats{}
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	s := sortedCopy(ms)
	out := spreadStats{N: len(s), MedianMS: quantile(s, 0.5), FastestMS: s[0]}
	if p, beyond, ok := highPercentile(len(s)); ok {
		out.HiPct, out.HiMS, out.HiBeyond = p, quantile(s, p/100), beyond
	}
	slow := 0
	for _, v := range s {
		if v > 1.25*s[0] {
			slow++
		}
	}
	out.SlowShare = float64(slow) / float64(len(s))
	return out
}

// quartiles returns Q1, median, Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the acceptance rule for this benchmark is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // quantile i of 4
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
