package jobs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"spineless/internal/store"
)

// tinySpec is a spec small enough to run in well under a second.
func tinySpec() Spec {
	return Spec{
		Kind:      "fct",
		Topo:      TopoSpec{Scale: 8},
		Fabric:    "rrg",
		Scheme:    "ecmp",
		TM:        "A2A",
		Util:      0.2,
		WindowSec: 0.002,
		Seed:      1,
		MaxFlows:  40,
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return m
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Terminal():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never settled (state %s)", j.ID, j.State())
	}
}

func TestSpecNormalizeHashStable(t *testing.T) {
	a := Spec{Kind: "fct", Topo: TopoSpec{Scale: 4}, Fabric: "dring", Scheme: "su2", TM: "A2A", Util: 0.30, WindowSec: 0.01, Seed: 5}
	b := Spec{Seed: 5} // all defaults
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("explicit defaults hash differently: %s vs %s", ha, hb)
	}
	c := a
	c.Seed = 6
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("different seeds share a hash")
	}
}

// TestSpecHashGolden pins store keys: any change to Spec's JSON shape or
// defaults that moves these values strands every result already stored.
func TestSpecHashGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"fct", tinySpec(), "1aabbb3e37ada7b02f50fd92ee6b9d222180bedaf03e4dbbb875d7935116b8bd"},
		{"fct defaults", Spec{Seed: 5}, "c000aad4a315fbbae2e3adb6e1163d5951df4531a5de6459f69fbdcf1cf8ac24"},
		{"live", Spec{Kind: "live", Seed: 7, Faults: &FaultSpec{Fraction: 0.05, Flows: 50, WindowNS: 5e6}},
			"fbbc3d60a215bc1bd1551fdb5ddcf6d69fdb55bee480ecb560f2f55b7259bf50"},
	} {
		got, err := c.spec.Hash()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: store key moved: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: "nope"},
		{Kind: "fct", Fabric: "mesh"},
		{Kind: "fct", Topo: TopoSpec{Scale: 5}},
		{Kind: "fct", Util: -1},
		{Kind: "live"}, // no fault schedule
		{Kind: "live", Fabric: "leafspine", Faults: &FaultSpec{Fraction: 0.05}},
		// Scheme names are checked at submit, by name alone: a malformed K
		// and shift-register routing off a De Bruijn graph never run.
		{Kind: "fct", Scheme: "sux"},
		{Kind: "fct", Scheme: "ksp/"},
		{Kind: "fct", Scheme: "wsu~"},
		{Kind: "fct", Scheme: "magic"},
		// K below routing's minimum for the family.
		{Kind: "fct", Scheme: "su1"},
		{Kind: "fct", Scheme: "wsu1"},
		{Kind: "fct", Scheme: "ksp0"},
		{Kind: "fct", Fabric: "dring", Scheme: "selfroute"},
		{Kind: "fct", Fabric: "rng", Scheme: "selfroute"},
	}
	for i, sp := range bad {
		if err := sp.Normalized().Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, sp)
		}
	}
	if err := tinySpec().Normalized().Validate(); err != nil {
		t.Fatalf("tiny spec rejected: %v", err)
	}
	native := Spec{Kind: "fct", Fabric: "debruijn", Scheme: "selfroute"}
	if err := native.Normalized().Validate(); err != nil {
		t.Fatalf("selfroute on debruijn rejected: %v", err)
	}
	live := Spec{Kind: "live", Faults: &FaultSpec{Fraction: 0.05, Flows: 50, WindowNS: 5e6}}
	if err := live.Normalized().Validate(); err != nil {
		t.Fatalf("live spec rejected: %v", err)
	}
}

// TestSpecValidateBakeoffFabrics pins the bake-off wiring at the job-spec
// layer: the three extra flat fabrics validate and execute for fct runs
// (all three were "unknown fabric" before the bake-off PR), an unknown name
// is still rejected with the full menu, and live runs still accept only the
// fabrics with a reroute story.
func TestSpecValidateBakeoffFabrics(t *testing.T) {
	for _, fabric := range []string{"xpander", "debruijn", "rng"} {
		sp := tinySpec()
		sp.Fabric = fabric
		sp.Scheme = "ecmp"
		sp = sp.Normalized()
		if err := sp.Validate(); err != nil {
			t.Fatalf("fct fabric %q rejected: %v", fabric, err)
		}
		res, err := Execute(context.Background(), sp, 1, nil, nil)
		if err != nil {
			t.Fatalf("fct fabric %q failed to execute: %v", fabric, err)
		}
		if res.FCT == nil || res.FCT.Flows == 0 {
			t.Fatalf("fct fabric %q produced no flows", fabric)
		}
	}
	sp := tinySpec()
	sp.Fabric = "mesh"
	err := sp.Normalized().Validate()
	if err == nil {
		t.Fatal("unknown fabric validated")
	}
	for _, want := range []string{"mesh", "xpander", "debruijn", "rng"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-fabric error %q does not mention %q", err, want)
		}
	}
	live := Spec{Kind: "live", Fabric: "debruijn", Faults: &FaultSpec{Fraction: 0.05, Flows: 50, WindowNS: 5e6}}
	if err := live.Normalized().Validate(); err == nil {
		t.Fatal("live run on a fabric without a reroute story validated")
	}
}

// TestSubmitRunHitDedup is the core lifecycle test: first submission runs,
// second is a cache hit with byte-identical result, and a concurrent
// identical submission shares the in-flight job.
func TestSubmitRunHitDedup(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 4, Executors: 1})

	j1, cached, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first submission reported cached")
	}
	// An identical spec submitted while j1 is pending/running dedups onto
	// the same job (singleflight), not a new one.
	j1b, _, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if j1b.ID != j1.ID {
		t.Fatalf("in-flight dedup failed: %s vs %s", j1b.ID, j1.ID)
	}

	waitTerminal(t, j1)
	if st := j1.State(); st != StateDone {
		t.Fatalf("job state %s: %+v", st, j1.Status())
	}
	if snap := m.Snapshot(); snap.SimEvents == 0 || snap.LatencyCount != 1 {
		t.Fatalf("job settled before its run was counted: sim events %d, latency count %d", snap.SimEvents, snap.LatencyCount)
	}
	res1, ok := j1.Result()
	if !ok || len(res1) == 0 {
		t.Fatal("done job has no result")
	}

	j2, cached, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second submission missed the cache")
	}
	res2, ok := j2.Result()
	if !ok {
		t.Fatal("cached job has no result")
	}
	if string(res1) != string(res2) {
		t.Fatal("cached result is not byte-identical to the computed one")
	}
	var decoded Result
	if err := json.Unmarshal(res2, &decoded); err != nil {
		t.Fatalf("result not decodable: %v", err)
	}
	if decoded.FCT == nil || decoded.FCT.Flows == 0 {
		t.Fatalf("degenerate result: %+v", decoded)
	}

	snap := m.Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("cache counters: %+v", snap)
	}
	if snap.Deduped != 1 {
		t.Fatalf("dedup counter = %d, want 1", snap.Deduped)
	}
}

// TestResubmitAfterTerminalRuns: once a job's terminal channel closes,
// its spec no longer dedups onto it, so without a store a resubmission is
// a new run. A job that settled before Submit registered it once stayed
// in the singleflight set for good, and a settling job left it only after
// its watchers were told (both show under -race -cpu 1,2,4).
func TestResubmitAfterTerminalRuns(t *testing.T) {
	m := New(nil, Config{Executors: 1})
	defer m.Drain(context.Background())
	sp := tinySpec()
	sp.MaxFlows = 2
	prev, _, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		waitTerminal(t, prev)
		j, _, err := m.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if j == prev {
			t.Fatalf("resubmission %d joined the settled job %s", i, j.ID)
		}
		prev = j
	}
}

func TestQueueBounded(t *testing.T) {
	// Executor 1, depth 1: with one slow job running and one queued, a
	// third distinct submission must be rejected with ErrQueueFull.
	m := newTestManager(t, Config{QueueDepth: 1, Executors: 1})
	specN := func(seed int64) Spec {
		sp := tinySpec()
		sp.Seed = seed
		// Slow enough that j1 is still running when the third submit
		// lands, whatever the scheduler does.
		sp.Trials = 500
		return sp
	}
	j1, _, err := m.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the executor to claim j1 so the queue slot frees.
	deadline := time.Now().Add(10 * time.Second)
	for j1.State() == StatePending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	j2, _, err := m.Submit(specN(2))
	if err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	if _, _, err := m.Submit(specN(3)); err != ErrQueueFull {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	snap := m.Snapshot()
	if snap.Rejected != 1 {
		t.Fatalf("rejected counter = %d", snap.Rejected)
	}
	// Cancel the slow jobs so the cleanup Drain returns promptly.
	m.Cancel(j1.ID)
	m.Cancel(j2.ID)
}

// TestShedWatermarks pins admission control: beyond ShedDepth new distinct
// specs get ErrOverloaded (429, not 503), while the zero-load paths — dedup
// onto an in-flight job and cache hits — are never shed.
func TestShedWatermarks(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 8, ShedDepth: 1, Executors: 1})
	specN := func(seed int64) Spec {
		sp := tinySpec()
		sp.Seed = seed
		sp.Trials = 500 // slow enough to stay running for the whole test
		return sp
	}
	j1, _, err := m.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j1.State() == StatePending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	j2, _, err := m.Submit(specN(2)) // occupies the queue: depth 1 == watermark
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(specN(3)); err != ErrOverloaded {
		t.Fatalf("submit past watermark: err = %v, want ErrOverloaded", err)
	}
	// Dedup onto the queued job still works while shedding.
	jd, _, err := m.Submit(specN(2))
	if err != nil || jd.ID != j2.ID {
		t.Fatalf("dedup while shedding: j=%v err=%v", jd, err)
	}
	snap := m.Snapshot()
	if snap.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", snap.Shed)
	}
	if snap.Rejected != 0 {
		t.Fatalf("queue-full rejections = %d; shedding must fire first", snap.Rejected)
	}
	m.Cancel(j1.ID)
	m.Cancel(j2.ID)
}

// TestMaxInflightSheds pins the in-flight watermark: the pending+running
// population is capped even when the queue itself still has room.
func TestMaxInflightSheds(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 8, MaxInflight: 1, Executors: 1})
	slow := tinySpec()
	slow.Seed = 50
	slow.Trials = 500
	j1, _, err := m.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	next := tinySpec()
	next.Seed = 51
	if _, _, err := m.Submit(next); err != ErrOverloaded {
		t.Fatalf("submit past inflight cap: err = %v, want ErrOverloaded", err)
	}
	m.Cancel(j1.ID)
}

// TestDrainUnderLoad is the SIGTERM story with the queue full: the drain
// must finish every admitted job (running and queued), refuse new ones with
// ErrDraining, and deliver a terminal event to every subscriber.
func TestDrainUnderLoad(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, Config{QueueDepth: 4, Executors: 1, TrialWorkers: 1})

	specN := func(seed int64) Spec {
		sp := tinySpec()
		sp.Seed = seed
		sp.MaxFlows = 20
		return sp
	}
	var admitted []*Job
	var streams []<-chan Event
	// One running + a full queue of four.
	for seed := int64(60); len(admitted) < 5; seed++ {
		j, _, err := m.Submit(specN(seed))
		if err != nil {
			t.Fatalf("fill submit (seed %d): %v", seed, err)
		}
		ch, stop := j.Subscribe()
		defer stop()
		admitted = append(admitted, j)
		streams = append(streams, ch)
		if len(admitted) == 1 {
			// Wait for the executor to claim the first job so the queue's
			// four slots are all free for the rest.
			deadline := time.Now().Add(10 * time.Second)
			for j.State() == StatePending && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()

	// New work must bounce with ErrDraining while the drain runs. Drain
	// flips the flag under its lock before waiting, but give the goroutine a
	// moment to get there.
	deadline := time.Now().Add(10 * time.Second)
	for probe := int64(100); ; probe++ {
		// Fresh seed each probe: an admitted probe that finishes would turn
		// later identical submits into free cache hits, masking ErrDraining.
		_, _, err := m.Submit(specN(probe))
		if err == ErrDraining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range admitted {
		if st := j.State(); st != StateDone {
			t.Fatalf("admitted job %d ended %s, want done", i, st)
		}
	}
	// Every subscriber got a terminal event before its channel closed.
	for i, ch := range streams {
		var last Event
		got := false
		for ev := range ch {
			last, got = ev, true
		}
		if !got || !last.State.Terminal() {
			t.Fatalf("stream %d ended without a terminal event (last %+v)", i, last)
		}
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 4, Executors: 1})
	slow := tinySpec()
	slow.Trials = 500
	slow.Seed = 10

	j1, _, err := m.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	pend := tinySpec()
	pend.Seed = 11
	j2, _, err := m.Submit(pend)
	if err != nil {
		t.Fatal(err)
	}
	// j2 sits behind j1 on the single executor: cancel it while pending.
	if !m.Cancel(j2.ID) {
		t.Fatal("cancel pending failed")
	}
	waitTerminal(t, j2)
	if st := j2.State(); st != StateCancelled {
		t.Fatalf("pending cancel: state %s", st)
	}

	// Cancel j1 mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for j1.State() == StatePending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !m.Cancel(j1.ID) {
		t.Fatal("cancel running failed")
	}
	waitTerminal(t, j1)
	if st := j1.State(); st != StateCancelled {
		t.Fatalf("running cancel: state %s", st)
	}
	if _, ok := j1.Result(); ok {
		t.Fatal("cancelled job has a result")
	}
	// A cancelled spec must not have been cached: resubmission runs fresh.
	j3, cached, err := m.Submit(pend)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cancelled job's spec was served from cache")
	}
	waitTerminal(t, j3)
	if j3.State() != StateDone {
		t.Fatalf("resubmission state %s", j3.State())
	}
}

func TestProgressEvents(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 4, Executors: 1, TrialWorkers: 1})
	sp := tinySpec()
	sp.Trials = 3
	sp.Seed = 20
	j, _, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	ch, stop := j.Subscribe()
	defer stop()
	var last Event
	sawProgress := false
	for ev := range ch {
		if ev.Done > 0 && !ev.State.Terminal() {
			sawProgress = true
		}
		if ev.Done < last.Done {
			t.Fatalf("progress went backwards: %d after %d", ev.Done, last.Done)
		}
		last = ev
	}
	waitTerminal(t, j)
	if !sawProgress {
		t.Error("no intermediate progress event observed")
	}
	st := j.Status()
	if st.Done != 3 || st.Total != 3 {
		t.Fatalf("final progress %d/%d, want 3/3", st.Done, st.Total)
	}
}

// TestAuditHookDetectsTamperedEntry proves the sampled re-execution audit:
// a cache entry whose stored result was tampered with (simulating silent
// corruption or a determinism regression) is detected on the audited hit
// and invalidated.
func TestAuditHookDetectsTamperedEntry(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, Config{QueueDepth: 4, Executors: 1, AuditEvery: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()

	sp := tinySpec()
	sp.Seed = 30
	j, _, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if j.State() != StateDone {
		t.Fatalf("state %s", j.State())
	}

	// Tamper: overwrite the stored result with different (valid) JSON.
	hash := j.Hash
	specRaw, err := store.Canonical(sp.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(hash, specRaw, json.RawMessage(`{"kind":"fct","fct":null}`)); err != nil {
		t.Fatal(err)
	}

	// The next hit serves the tampered bytes but triggers the audit, which
	// must flag the mismatch and invalidate the entry.
	if _, cached, err := m.Submit(sp); err != nil || !cached {
		t.Fatalf("expected cache hit: cached=%v err=%v", cached, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if snap := m.Snapshot(); snap.AuditMismatch == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := m.Snapshot()
	if snap.AuditMismatch != 1 {
		t.Fatalf("audit mismatch not detected: %+v", snap)
	}
	if st.Len() != 0 {
		t.Fatal("tampered entry not invalidated")
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, Config{QueueDepth: 4, Executors: 1})
	sp := tinySpec()
	sp.Seed = 40
	j, _, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j.State() != StateDone {
		t.Fatalf("queued job not finished by drain: %s", j.State())
	}
	if _, _, err := m.Submit(tinySpec()); err != ErrDraining {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
}

// TestSpecTelemetryValidationAndHash pins the cache-key exemption:
// observation must not fragment the store.
func TestSpecTelemetryValidationAndHash(t *testing.T) {
	sp := tinySpec()
	sp.Telemetry = true
	if err := sp.Normalized().Validate(); err != nil {
		t.Fatalf("telemetry spec rejected: %v", err)
	}

	plain := tinySpec()
	h1, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("telemetry flag fragments the cache key")
	}
}

// TestTelemetryJobPublishesOnHub: a telemetry-enabled job registers a live
// recorder under its ID for the duration of the run and releases it on
// settle; the recorder sees the run's traffic.
func TestTelemetryJobPublishesOnHub(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 4, Executors: 1, TrialWorkers: 1})

	// A slow job (many trial windows) so its hub registration is observable
	// while it runs.
	slow := tinySpec()
	slow.Telemetry = true
	slow.Trials = 500
	j, cached, err := m.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("fresh telemetry job served from cache")
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.Hub().Get(j.ID) == nil && time.Now().Before(deadline) {
		select {
		case <-j.Terminal():
			t.Fatalf("job settled before its recorder ever appeared on the hub (%+v)", j.Status())
		default:
		}
		time.Sleep(time.Millisecond)
	}
	rec := m.Hub().Get(j.ID)
	if rec == nil {
		t.Fatal("recorder never appeared on the hub while the job ran")
	}
	// The live twin fills in while trials execute.
	for rec.Snapshot().Totals.TxBytes == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rec.Snapshot().Totals.TxBytes == 0 {
		t.Fatal("live recorder saw no traffic")
	}
	// Released on settle: the twin only mirrors running jobs.
	m.Cancel(j.ID)
	waitTerminal(t, j)
	for len(m.Hub().Snapshot()) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := len(m.Hub().Snapshot()); n != 0 {
		t.Fatalf("%d recorders still on the hub after settle", n)
	}

	// A completed telemetry job shares its cache entry with the unobserved
	// form of the same spec.
	quick := tinySpec()
	quick.Telemetry = true
	jq, _, err := m.Submit(quick)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jq)
	if st := jq.Status(); st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	if _, cached, err := m.Submit(tinySpec()); err != nil || !cached {
		t.Fatalf("unobserved resubmit: cached=%v err=%v", cached, err)
	}
}

// TestTelemetryJobResultIsCached is the failing-before regression for the
// hash-preimage store bug: runJob used to commit the submitted spec, whose
// Telemetry field does not survive the hash exemption, so store.Put's
// spec-hashes-to-key check failed and observed results were silently never
// cached.
func TestTelemetryJobResultIsCached(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 4, Executors: 1, TrialWorkers: 1})
	sp := tinySpec()
	sp.Telemetry = true
	j, cached, err := m.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("fresh telemetry job served from cache")
	}
	waitTerminal(t, j)
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	// The unobserved form of the spec shares the entry.
	sp.Telemetry = false
	if _, cached, err := m.Submit(sp); err != nil || !cached {
		t.Fatalf("unobserved resubmit: cached=%v err=%v", cached, err)
	}
}
