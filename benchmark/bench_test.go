package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func ms(v ...float64) []time.Duration {
	out := make([]time.Duration, len(v))
	for i, x := range v {
		out[i] = time.Duration(x * float64(time.Millisecond))
	}
	return out
}

func TestQuietSumTakesEachStepsFastestSample(t *testing.T) {
	steps := []stepTimes{
		{name: "a", samples: ms(10, 7, 12)},
		{name: "b", samples: ms(20, 25, 19)},
		{name: "c", samples: ms(5, 5, 4)},
	}
	// No single round was 7+19+4: the estimator needs one quiet sample per
	// step, not one quiet round.
	if got, want := quietSum(steps), 30*time.Millisecond; got != want {
		t.Errorf("quietSum = %v, want %v", got, want)
	}
	if got, want := roundTotals(steps), ms(35, 37, 35); !reflect.DeepEqual(got, want) {
		t.Errorf("roundTotals = %v, want %v", got, want)
	}
	if got := quietSum([]stepTimes{{name: "never ran"}}); got != 0 {
		t.Errorf("quietSum of a step without samples = %v, want 0", got)
	}
	// A step that failed once has one sample fewer; only whole rounds count.
	steps[2].samples = steps[2].samples[:2]
	if got := len(roundTotals(steps)); got != 2 {
		t.Errorf("roundTotals kept %d rounds, want 2", got)
	}
}

func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{10, 0, 0, false},
		{19, 0, 0, false},
		{20, 50, 10, true},
		{40, 75, 10, true},
		{100, 90, 10, true},
		{250, 95, 13, true},
		{1000, 99, 10, true},
		{20000, 99.9, 20, true},
	}
	for _, c := range cases {
		pct, beyond, ok := highPercentile(c.n)
		if ok != c.ok || pct != c.pct || beyond != c.beyond {
			t.Errorf("highPercentile(%d) = p%v, %d beyond, ok=%v; want p%v, %d, %v", c.n, pct, beyond, ok, c.pct, c.beyond, c.ok)
		}
	}
}

func TestDescribe(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 40; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	d := describe(ds)
	if d.N != 40 || d.FastestMS != 1 || math.Abs(d.MedianMS-20.5) > 1e-9 {
		t.Errorf("describe: n=%d fastest=%v median=%v", d.N, d.FastestMS, d.MedianMS)
	}
	if d.HiPct != 75 || math.Abs(d.HiMS-30.25) > 1e-9 || d.HiBeyond != 10 {
		t.Errorf("describe: hi p%v = %v with %d beyond, want p75 = 30.25 with 10", d.HiPct, d.HiMS, d.HiBeyond)
	}
	// Samples above 1.25 ms: all but the first.
	if math.Abs(d.SlowShare-39.0/40) > 1e-9 {
		t.Errorf("slow share = %v, want %v", d.SlowShare, 39.0/40)
	}
}

// The acceptance rule is stated with Python's statistics.quantiles(v, n=4);
// these are its outputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	// Two values: Python extrapolates beyond the data.
	q1, _, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10,20) = %v .. %v, want 7.5 .. 22.5", q1, q3)
	}
}

func TestSelfTimeSubtractsDirectChildrenOnly(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "core.RunFCT", StartNS: 0, EndNS: 100},
		// Probes replay after the step ended: children by cause, not by
		// interval.
		{ID: 1, Parent: 0, Name: "workload.gen", StartNS: 100, EndNS: 105},
		{ID: 2, Parent: 0, Name: "netsim.run", StartNS: 105, EndNS: 185},
		{ID: 3, Parent: 2, Name: "routing.lookup", StartNS: 185, EndNS: 195},
		{ID: 4, Parent: -1, Name: "telemetry.attached_run", StartNS: 195, EndNS: 300},
	}
	want := []int64{100 - 5 - 80, 5, 80 - 10, 10, 105}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTraceViewQuietIsPerStepMinimumOverRounds(t *testing.T) {
	tr := newTracer()
	add := func(round, step int, name string, dur, count int64) {
		tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: -1, Round: round, Step: step,
			Name: name, StartNS: 0, EndNS: dur, Count: count})
	}
	add(1, 0, "netsim.run", 50, 7)
	add(1, 0, "netsim.run", 20, 3) // two spans of one step add up within a round
	add(1, 1, "netsim.run", 40, 5)
	add(2, 0, "netsim.run", 60, 7)
	add(2, 0, "netsim.run", 5, 3)
	add(2, 1, "netsim.run", 45, 5)
	add(2, 1, "other", 1000, 1)
	v := newTraceView(tr.spans, 2)
	if got := v.quietNS("netsim.run"); got != 65+40 {
		t.Errorf("quietNS = %v, want 105 (step 0 from round 2, step 1 from round 1)", got)
	}
	if got := v.quietStepNS(1, "netsim.run"); got != 40 {
		t.Errorf("quietStepNS(1) = %v, want 40", got)
	}
	if got := v.count("netsim.run"); got != 15 {
		t.Errorf("count = %v, want the first traced round's 15", got)
	}
	if got := v.spansPerRound("netsim.run"); got != 3 {
		t.Errorf("spansPerRound = %v, want 3", got)
	}
	if got := v.quietNS("absent"); got != 0 {
		t.Errorf("quietNS of an absent layer = %v, want 0", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.open(ref{}, "x", true)
	sp.child("y").end(1)
	sp.end(1) // must not panic
}

func TestZipfOrderIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := zipfOrder(42, 16, 400), zipfOrder(42, 16, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different orders")
	}
	if reflect.DeepEqual(a, zipfOrder(43, 16, 400)) {
		t.Error("a different seed gave the same order")
	}
	hits := make([]int, 16)
	for _, i := range zipfOrder(7, 16, 20000) {
		if i < 0 || i >= 16 {
			t.Fatalf("index %d out of range", i)
		}
		hits[i]++
	}
	// P(0)/P(15) = 16 under Zipf(1); allow sampling noise.
	if ratio := float64(hits[0]) / float64(hits[15]); ratio < 10 || ratio > 24 {
		t.Errorf("first/last popularity = %.1f, want about 16 (hits %v)", ratio, hits)
	}
}

func TestDealtSizesOfferTheSameBytesForEverySeed(t *testing.T) {
	sum := func(d *dealtSizes) (total int64, first int64) {
		first = d.Sample(nil)
		total = first
		for i := 1; i < 500; i++ {
			total += d.Sample(nil)
		}
		return total, first
	}
	a, b := newDealtSizes(500, 1), newDealtSizes(500, 2)
	ta, fa := sum(a)
	tb, fb := sum(b)
	if ta != tb {
		t.Errorf("seeds offer %d and %d bytes; the deal must only reorder", ta, tb)
	}
	if reflect.DeepEqual(a.sizes, b.sizes) {
		t.Error("two seeds dealt the sizes in the same order")
	}
	a.reset()
	if again := a.Sample(nil); again != fa {
		t.Errorf("after reset the first size is %d, was %d", again, fa)
	}
	_ = fb
	if math.Abs(a.Mean()*500-float64(ta)) > 1 {
		t.Errorf("Mean()*n = %v, total = %d", a.Mean()*500, ta)
	}
	if subSeed(1, 0) == subSeed(1, 1) || subSeed(1, 0) == subSeed(2, 0) {
		t.Error("subSeed collides on neighbouring inputs")
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  100 2 30 4000 5 6 7 89 0 0\ncpu0 50 1 15 2000 2 3 3 44 0 0\nintr 1\n"
	if got := parseSteal(stat); got != 89 {
		t.Errorf("parseSteal = %d, want 89", got)
	}
	if got := parseSteal("nothing here"); got != -1 {
		t.Errorf("parseSteal without a cpu line = %d, want -1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := e2eInfo{Name: "round_ms", Better: "lower", Bound: 0.10}
	higher := e2eInfo{Name: "work_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	if _, w := verdict(lower, tight(100), tight(105)); w != "within" {
		t.Errorf("+5%% on a lower-is-better metric with a 10%% bound: %s", w)
	}
	if worse, w := verdict(lower, tight(100), tight(115)); w != "outside" || math.Abs(worse-0.15) > 1e-9 {
		t.Errorf("+15%%: %s (worse=%v)", w, worse)
	}
	if _, w := verdict(lower, tight(100), tight(80)); w != "within" {
		t.Errorf("an improvement must be within: %s", w)
	}
	if _, w := verdict(higher, tight(100), tight(85)); w != "outside" {
		t.Errorf("-15%% on a higher-is-better metric: %s", w)
	}
	noisy := []float64{80, 90, 100, 110, 120}
	if _, w := verdict(lower, noisy, tight(100)); w != "unresolved" {
		t.Errorf("a spread wider than the bound must be unresolved: %s", w)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, round float64) string {
		var buf bytes.Buffer
		for seed := int64(1); seed <= 4; seed++ {
			r := result{Workload: "fig4-packet", Seed: seed, ResultDigest: "d", Metrics: map[string]metric{}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = metric{Value: 100, Unit: m.Unit}
			}
			r.Metrics["round_ms"] = metric{Value: round + float64(seed)/10, Unit: "ms"}
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(raw, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, write("a.ndjson", 100), write("b.ndjson", 140)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"round_ms", "outside", "work_per_s", "within", "identical on all 4 shared seeds", "1 pairing(s) not within bound"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is -manifest output; this keeps the two from drifting and
// holds the manifest to the limits the driver refuses a file for.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	m := buildManifest()
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not a valid benchmark name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", e)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound > e.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, l := range m.PerLayer {
		name(l.Name)
		if !unitRE.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", l)
		}
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Error("manifest has too many or too few entries")
	}
	if len(workloads) != len(m.Workloads) {
		t.Fatalf("%d workloads defined, %d described", len(workloads), len(m.Workloads))
	}
	for i, w := range workloads {
		if w.name != m.Workloads[i].Name {
			t.Errorf("workload %d is %q in code and %q in the manifest", i, w.name, m.Workloads[i].Name)
		}
	}

	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v (regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`)", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
}

// lastLine decodes the contract line a run ends with.
func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var c contractLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
	}
	return c
}

// The smoke pass runs every step, check and probe of every workload at
// reduced size, untraced and traced.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			var out, errs bytes.Buffer
			if code := run([]string{"-workload", w.name, "-smoke", "-seed", "3", "-out", dir}, &out, &errs); code != 0 {
				t.Fatalf("untraced smoke run exited %d\n%s%s", code, out.String(), errs.String())
			}
			c := lastLine(t, out.String())
			if !c.Correct || c.Failed != 0 || c.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", c.Correct, c.Attempted, c.Failed)
			}
			if len(c.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want the %d end-to-end ones", len(c.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := c.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v (present=%v); must be positive, in %s", m.Name, got, ok, m.Unit)
				}
			}

			out.Reset()
			if code := run([]string{"-workload", w.name, "-smoke", "-seed", "3", "-trace", "1", "-out", dir}, &out, &errs); code != 0 {
				t.Fatalf("traced smoke run exited %d\n%s%s", code, out.String(), errs.String())
			}
			c = lastLine(t, out.String())
			if !c.Correct || c.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d\n%s", c.Correct, c.Failed, out.String())
			}
			if len(c.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(c.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := c.Metrics[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("per-layer metric %s = %+v (present=%v)", m.Name, got, ok)
				}
			}
			for _, f := range []string{w.name + ".result.json", w.name + ".traced.json", w.name + ".trace.json"} {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Errorf("missing output file: %v", err)
				}
			}
			left, err := filepath.Glob(filepath.Join(dir, "svc-mix-*"))
			if err != nil || len(left) != 0 {
				t.Errorf("scratch directories left behind: %v (%v)", left, err)
			}
		})
	}
}

// A failed check must surface as a failed operation, correct=false and a
// non-zero exit — not as a quietly wrong number.
func TestFailedCheckFailsTheRun(t *testing.T) {
	calls := 0
	def := &workloadDef{name: "flaky", workUnit: "things", setupReps: 1,
		setup: func(options, *setupTimer) (*instance, error) {
			return &instance{
				close: func() error { return nil },
				steps: []step{{name: "drifts", span: "x", run: func(ref) (stepResult, error) {
					calls++
					return stepResult{digest: calls / 3, work: 1}, nil // changes on the third call
				}}},
			}, nil
		}}
	res, err := runWorkload(def, options{seed: 1, small: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "result_digest") {
		t.Errorf("a drifting result went unnoticed: correct=%v failed=%d failures=%v", res.Correct, res.Failed, res.Failures)
	}
}
