package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// A round is a fixed ordered list of steps; a step is one call into a public
// function of the program on fixed inputs. Every round of a run repeats the
// same steps on the same inputs, all generated from the seed.
type step struct {
	name string
	// span names the layer entry point the step calls (its trace span);
	// allocs asks for the span's heap allocations too, which costs two
	// stop-the-world MemStats reads around the step in traced rounds.
	span   string
	allocs bool
	// run performs the call and checks its output. sp is the step's span in
	// a traced round (inert otherwise) for steps that open child spans.
	run func(sp ref) (stepResult, error)
	// probe, in traced rounds only, replays each layer the step went through
	// on the exact inputs the step used, inside spans under sp, and fails
	// unless the replay reproduces the step's output.
	probe func(sp ref, res stepResult) error
}

type stepResult struct {
	// digest is a JSON-encodable summary of the step's output; the round's
	// result_digest hashes every step's digest in order. A func() any is
	// called after the step's clock has stopped, so that summarising a large
	// output is not charged to the program.
	digest any
	// work is the number of work units the step completed.
	work int64
	// count is the step's work in its layer's own unit, recorded on the
	// step's span (0 reads as work).
	count int64
	// ops is the number of operations the step attempted (0 reads as 1).
	ops int
	// keep carries the full output to the step's probe.
	keep any
}

// instance is one set-up of a workload: everything the rounds run against.
type instance struct {
	steps []step
	// between, if set, runs untimed after every round and restores the state
	// the next round expects, so every round is identical.
	between func() error
	// afterRound, if set, runs in traced rounds after the last step, for
	// probes that belong to no single step.
	afterRound func(tr *tracer) error
	// layers turns the traced run's spans into this workload's per-layer
	// metrics; names it leaves out read 0.
	layers func(v *traceView) map[string]float64
	// close releases everything set-up started and waits for it.
	close func() error
}

// workloadDef describes a workload; setup builds a fresh instance from the
// run's options (seed, size class, scratch directory), timing each set-up
// step through st.
type workloadDef struct {
	name     string
	workUnit string
	// setupReps is how many times set-up is run from scratch in one run.
	setupReps int
	setup     func(opt options, st *setupTimer) (*instance, error)
}

// setupTimer times the steps of a set-up. Set-up is repeated from scratch
// and setup_s is the sum of each step's fastest time, like round_ms.
type setupTimer struct {
	steps []stepTimes
	next  int
}

func (s *setupTimer) step(name string, fn func() error) error {
	if s.next == len(s.steps) {
		s.steps = append(s.steps, stepTimes{name: name})
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("set-up step %q: %w", name, err)
	}
	s.steps[s.next].samples = append(s.steps[s.next].samples, d)
	s.next++
	return nil
}

// firstTotal is what the first set-up of the process cost, one-time lazy work
// included.
func (s *setupTimer) firstTotal() time.Duration {
	var sum time.Duration
	for i := range s.steps {
		if len(s.steps[i].samples) > 0 {
			sum += s.steps[i].samples[0]
		}
	}
	return sum
}

// Run-shape constants. Rounds are measured until both the requested time has
// passed and minRounds rounds are in, so the figures never rest on a handful
// of samples; rssRound fixes the amount of work done when peak RSS is read.
const (
	minRounds       = 20
	rssRound        = 20
	minTracedRounds = 5
	smokeRounds     = 2
)

type options struct {
	seed    int64
	seconds float64
	traced  bool
	// small runs the reduced-size smoke variant: every step and check, a
	// fraction of the work, two rounds.
	small bool
	// outDir receives the trace file and a workload's scratch files.
	outDir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stepReport is one step's line in the result file.
type stepReport struct {
	Name      string  `json:"name"`
	FastestMS float64 `json:"fastest_ms"`
	MedianMS  float64 `json:"median_ms"`
}

// result is the full record of one run; the last stdout line is its
// contract subset.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Small     bool              `json:"small,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// ResultDigest is the SHA-256 of the JSON of every step's result, the
	// same for every round of the run; simulated quantities are exact for a
	// seed, so a change that only speeds the program leaves it identical.
	ResultDigest string `json:"result_digest"`
	WorkUnit     string `json:"work_unit"`
	WorkPerRound int64  `json:"work_per_round"`
	Rounds       int    `json:"rounds"`
	// Round describes the whole-round times printed beside round_ms; none
	// of it is a gated metric.
	Round       spreadStats  `json:"round"`
	SetupFirstS float64      `json:"setup_first_s"`
	SetupReps   int          `json:"setup_reps"`
	Steps       []stepReport `json:"steps"`
	SetupSteps  []stepReport `json:"setup_steps"`
	Host        hostShape    `json:"host"`
	TraceFile   string       `json:"trace_file,omitempty"`
	Failures    []string     `json:"failures,omitempty"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner drives one workload through set-up, warm-up and rounds.
type runner struct {
	inst *instance

	attempted int
	failed    int
	failures  []string
	digest    string
	work      int64
}

// fail records one failed operation or check.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// round runs every step once. times, when non-nil, receives one sample per
// step. tr is nil outside traced rounds.
func (r *runner) round(id int, times []stepTimes, tr *tracer) {
	digests := make([]any, len(r.inst.steps))
	var work int64
	if tr != nil {
		tr.round = id
	}
	for i, st := range r.inst.steps {
		if tr != nil {
			tr.step = i
		}
		sp := tr.open(ref{}, st.span, st.allocs)
		t0 := time.Now()
		res, err := st.run(sp)
		d := time.Since(t0)
		if res.count == 0 {
			res.count = res.work
		}
		sp.end(res.count)
		ops := res.ops
		if ops < 1 {
			ops = 1
		}
		r.attempted += ops
		if err != nil {
			r.fail("round %d step %q: %v", id, st.name, err)
			continue
		}
		if times != nil {
			times[i].samples = append(times[i].samples, d)
		}
		if lazy, ok := res.digest.(func() any); ok {
			res.digest = lazy()
		}
		digests[i] = res.digest
		work += res.work
		if tr != nil && st.probe != nil {
			if err := st.probe(sp, res); err != nil {
				r.fail("round %d step %q: probe: %v", id, st.name, err)
			}
		}
	}
	if tr != nil && r.inst.afterRound != nil {
		tr.step = len(r.inst.steps)
		if err := r.inst.afterRound(tr); err != nil {
			r.fail("round %d: probe: %v", id, err)
		}
	}
	raw, err := json.Marshal(digests)
	if err != nil {
		r.fail("round %d: encoding results: %v", id, err)
	} else {
		sum := sha256.Sum256(raw)
		got := hex.EncodeToString(sum[:])
		switch {
		case r.digest == "":
			r.digest, r.work = got, work
		case got != r.digest:
			r.fail("round %d: result_digest %s differs from the first round's %s", id, got[:12], r.digest[:12])
		}
	}
	if r.inst.between != nil {
		if err := r.inst.between(); err != nil {
			r.fail("round %d: restoring state: %v", id, err)
		}
	}
}

func newStepTimes(steps []step) []stepTimes {
	out := make([]stepTimes, len(steps))
	for i, st := range steps {
		out[i].name = st.name
	}
	return out
}

func reports(steps []stepTimes) []stepReport {
	out := make([]stepReport, len(steps))
	for i := range steps {
		d := describe(steps[i].samples)
		out[i] = stepReport{Name: steps[i].name, FastestMS: d.FastestMS, MedianMS: d.MedianMS}
	}
	return out
}

// runWorkload is one benchmark run: set-up (repeated), one discarded warm-up
// round, then timed rounds.
func runWorkload(def *workloadDef, opt options) (res *result, err error) {
	r := &runner{}
	host := readHost()
	steal0 := stealTicks()

	reps := def.setupReps
	if opt.small {
		reps = 2
	}
	st := &setupTimer{}
	for i := 0; i < reps; i++ {
		if r.inst != nil {
			if err := r.inst.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
		}
		st.next = 0
		if r.inst, err = def.setup(opt, st); err != nil {
			return nil, err
		}
	}
	defer func() {
		if cerr := r.inst.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// Warm-up: lazy path caches, heap growth, connection set-up.
	r.round(0, nil, nil)

	untraced := newStepTimes(r.inst.steps)
	traced := newStepTimes(r.inst.steps)
	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	wantPlain, wantTraced := minRounds, 0
	if opt.traced {
		wantPlain, wantTraced = minTracedRounds/2, minTracedRounds
	}
	if opt.small {
		wantPlain, wantTraced, budget = smokeRounds, 0, 0
		if opt.traced {
			wantPlain, wantTraced = 1, smokeRounds
		}
	}

	var m0, m1 runtime.MemStats
	rss, rssRead := 0.0, false
	plain, withSpans := 0, 0
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for id := 1; plain < wantPlain || withSpans < wantTraced || time.Since(start) < budget; id++ {
		// A traced run keeps every third round untraced, interleaved so both
		// kinds see the same host phases: trace.overhead_pct compares them.
		if opt.traced && id%3 != 1 {
			r.round(id, traced, tr)
			withSpans++
			continue
		}
		r.round(id, untraced, nil)
		plain++
		if plain == rssRound {
			rss, rssRead = peakRSSMB(), true
		}
	}
	runtime.ReadMemStats(&m1)
	rounds := plain
	if !rssRead { // a smoke or traced run ends before rssRound
		rss = peakRSSMB()
	}

	res = &result{
		Workload: def.name, Seed: opt.seed, Traced: opt.traced, Small: opt.small,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		ResultDigest: r.digest, WorkUnit: def.workUnit, WorkPerRound: r.work,
		Rounds: rounds, Round: describe(roundTotals(untraced)),
		SetupFirstS: st.firstTotal().Seconds(), SetupReps: reps,
		Steps: reports(untraced), SetupSteps: reports(st.steps),
		Host: host, Metrics: map[string]metric{},
	}
	if steal0 >= 0 {
		res.Host.StealTicks = stealTicks() - steal0
	} else {
		res.Host.StealTicks = -1
	}
	res.Correct = r.failed == 0 && r.attempted > 0

	quiet := quietSum(untraced)
	if opt.traced {
		path, werr := writeTrace(opt.outDir, def.name, tr.spans)
		if werr != nil {
			return nil, fmt.Errorf("writing trace: %w", werr)
		}
		res.TraceFile = path
		// One pseudo-step past the real ones holds the after-round probes.
		v := newTraceView(tr.spans, len(r.inst.steps)+1)
		got := r.inst.layers(v)
		if quiet > 0 {
			got["trace.overhead_pct"] = 100 * (float64(quietSum(traced)) - float64(quiet)) / float64(quiet)
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = metric{Value: got[m.Name], Unit: m.Unit}
		}
		return res, nil
	}

	roundMS := float64(quiet) / 1e6
	values := map[string]float64{
		"round_ms":           roundMS,
		"allocs_per_round":   float64(m1.Mallocs-m0.Mallocs) / float64(rounds),
		"alloc_mb_per_round": float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds) / 1e6,
		"rss_mb":             rss,
		"setup_s":            quietSum(st.steps).Seconds(),
	}
	if roundMS > 0 {
		values["work_per_s"] = float64(r.work) / (roundMS / 1e3)
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	return res, nil
}
