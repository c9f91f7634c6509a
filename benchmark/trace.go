package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call the benchmark made into a layer. The program under
// test is not instrumented by this benchmark: every span is recorded here, in
// the benchmark's own files, around a call into a layer's public functions.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Round  int    `json:"round"`
	Step   int    `json:"step"` // index of the round step the span belongs to
	Name   string `json:"name"`
	// StartNS and EndNS are host nanoseconds since the tracer was made.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Count is the work the span did in its layer's own unit (events,
	// lookups, flows, paths); 0 when the layer has no natural unit.
	Count int64 `json:"count,omitempty"`
	// Allocs and Bytes are the heap allocations made between start and end,
	// from runtime.MemStats; only spans opened with startMem carry them.
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
	// SelfNS is the span's duration minus its direct children's, filled in
	// when the trace is written.
	SelfNS int64 `json:"self_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing: every method is nil-safe so the untraced run
// executes the same statements minus the bookkeeping.
type tracer struct {
	t0    time.Time
	spans []span
	round int
	step  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// ref names an open span; the zero ref (from a nil tracer) is inert.
type ref struct {
	t  *tracer
	id int
	m0 *runtime.MemStats // non-nil when the span records allocations
}

// open starts a span under parent (ref{} for a root span); mem records the
// span's heap allocations too.
func (t *tracer) open(parent ref, name string, mem bool) ref {
	if t == nil {
		return ref{}
	}
	p := -1
	if parent.t != nil {
		p = parent.id
	}
	r := ref{t: t, id: len(t.spans)}
	t.spans = append(t.spans, span{ID: r.id, Parent: p, Round: t.round, Step: t.step, Name: name})
	if mem {
		r.m0 = new(runtime.MemStats)
		runtime.ReadMemStats(r.m0)
	}
	// Read the clock last so the MemStats stop-the-world is outside the span.
	t.spans[r.id].StartNS = int64(time.Since(t.t0))
	return r
}

// start opens a root span.
func (t *tracer) start(name string) ref { return t.open(ref{}, name, false) }

// child opens a span under r; childMem records its allocations too.
func (r ref) child(name string) ref    { return r.t.open(r, name, false) }
func (r ref) childMem(name string) ref { return r.t.open(r, name, true) }

// end closes the span, recording count units of layer work.
func (r ref) end(count int64) {
	if r.t == nil {
		return
	}
	s := &r.t.spans[r.id]
	s.EndNS = int64(time.Since(r.t.t0))
	s.Count = count
	if r.m0 != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.Allocs = m1.Mallocs - r.m0.Mallocs
		s.Bytes = m1.TotalAlloc - r.m0.TotalAlloc
	}
}

// selfTimes returns each span's self time: its duration minus the durations
// of its direct children. Probe spans replay a layer after the step that used
// it and are recorded as children of that step, so the subtraction is by
// duration, not by interval overlap.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// traceView reduces the spans of a traced run to per-layer numbers.
type traceView struct {
	spans []span
	steps int
	// rounds lists the traced round ids, ascending.
	rounds []int
}

func newTraceView(spans []span, steps int) *traceView {
	v := &traceView{spans: spans, steps: steps}
	seen := map[int]bool{}
	for _, s := range spans {
		if !seen[s.Round] {
			seen[s.Round] = true
			v.rounds = append(v.rounds, s.Round) // spans are recorded in round order
		}
	}
	return v
}

func nameIn(name string, names []string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// perRoundStep sums the durations of the named spans of each (round, step).
func (v *traceView) perRoundStep(names []string) map[[2]int]float64 {
	out := map[[2]int]float64{}
	for _, s := range v.spans {
		if nameIn(s.Name, names) {
			out[[2]int{s.Round, s.Step}] += float64(s.dur())
		}
	}
	return out
}

// quiet is the layer's quiet-machine time per round in nanoseconds: for each
// step, the smallest total the named spans took in any traced round, summed
// over steps — the same estimator as round_ms, applied to one layer. A layer's
// quiet self time is the difference of two such sums (the parent's minus its
// children's): subtracting within a round and then taking the minimum would
// instead select the rounds whose replays happened to be disturbed.
func (v *traceView) quiet(onlyStep int, names ...string) float64 {
	sums := v.perRoundStep(names)
	total := 0.0
	for st := 0; st < v.steps; st++ {
		if onlyStep >= 0 && st != onlyStep {
			continue
		}
		best := math.Inf(1)
		for _, r := range v.rounds {
			if x, ok := sums[[2]int{r, st}]; ok && x < best {
				best = x
			}
		}
		if !math.IsInf(best, 1) {
			total += best
		}
	}
	return total
}

// quietNS is the quiet per-round time of the named spans, all steps.
func (v *traceView) quietNS(names ...string) float64 { return v.quiet(-1, names...) }

// quietStepNS is quietNS restricted to one step.
func (v *traceView) quietStepNS(step int, names ...string) float64 { return v.quiet(step, names...) }

// perRound sums value over the named spans of the first traced round; counts
// and allocations are functions of the inputs, so any round would do.
func (v *traceView) perRound(value func(s span) float64, names ...string) float64 {
	if len(v.rounds) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range v.spans {
		if s.Round == v.rounds[0] && nameIn(s.Name, names) {
			total += value(s)
		}
	}
	return total
}

func (v *traceView) count(names ...string) float64 {
	return v.perRound(func(s span) float64 { return float64(s.Count) }, names...)
}

func (v *traceView) allocs(names ...string) float64 {
	return v.perRound(func(s span) float64 { return float64(s.Allocs) }, names...)
}

// spansPerRound counts the named spans of the first traced round.
func (v *traceView) spansPerRound(names ...string) float64 {
	return v.perRound(func(span) float64 { return 1 }, names...)
}

// durations lists every named span's duration in nanoseconds, all rounds.
func (v *traceView) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range v.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.dur()))
		}
	}
	return out
}

// writeTrace stores the spans, self times filled in, as JSON under dir.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	for i, self := range selfTimes(spans) {
		spans[i].SelfNS = self
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, raw, 0o644)
}
