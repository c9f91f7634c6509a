package fleet

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"spineless/internal/jobs"
	"spineless/internal/retry"
	"spineless/internal/serve"
	"spineless/internal/store"
)

// testWorker is one in-process spinelessd worker: its own store, manager
// and HTTP server — the same isolation a separate process would have,
// minus the fork.
type testWorker struct {
	ts *httptest.Server
	m  *jobs.Manager
	st *store.Store
}

func newWorker(t *testing.T, cfg jobs.Config) *testWorker {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.New(st, cfg)
	srv := serve.New(m, nil)
	srv.Heartbeat = 50 * time.Millisecond
	ts := httptest.NewServer(srv)
	w := &testWorker{ts: ts, m: m, st: st}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return w
}

func newFleet(t *testing.T, n int, cfg jobs.Config, mut func(*Config)) (*Coordinator, []*testWorker) {
	t.Helper()
	workers := make([]*testWorker, n)
	urls := make([]string, n)
	for i := range workers {
		workers[i] = newWorker(t, cfg)
		urls[i] = workers[i].ts.URL
	}
	fcfg := Config{
		Workers:       urls,
		ProbeEvery:    25 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		SuspectAfter:  1,
		DeadAfter:     3,
		StreamSilence: 2 * time.Second,
		RPC: retry.Policy{
			MaxAttempts:    3,
			BaseDelay:      10 * time.Millisecond,
			MaxDelay:       100 * time.Millisecond,
			AttemptTimeout: 2 * time.Second,
		},
		Logf: t.Logf,
	}
	if mut != nil {
		mut(&fcfg)
	}
	c, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, workers
}

func spec(t *testing.T, seed int64, trials int) jobs.Spec {
	t.Helper()
	var sp jobs.Spec
	raw := `{"kind":"fct","topo":{"scale":8},"fabric":"rrg","scheme":"ecmp","tm":"A2A","util":0.2,"window_sec":0.002,"seed":1,"max_flows":40,"trials":2}`
	if err := json.Unmarshal([]byte(raw), &sp); err != nil {
		t.Fatal(err)
	}
	sp.Seed = seed
	sp.Trials = trials
	return sp.Normalized()
}

func workerCfg() jobs.Config {
	return jobs.Config{QueueDepth: 8, Executors: 2, TrialWorkers: 1}
}

// TestRankDeterministicAndSpread pins the placement function: stable across
// calls, a permutation of the worker set, and not degenerate (different
// hashes land on different owners).
func TestRankDeterministicAndSpread(t *testing.T) {
	c := &Coordinator{cfg: Config{Workers: make([]string, 5)}.withDefaults()}
	owners := map[int]bool{}
	for _, h := range []string{"aaaa", "bbbb", "cccc", "dddd", "eeee", "ffff", "0123"} {
		r1, r2 := c.Rank(h), c.Rank(h)
		if len(r1) != 5 {
			t.Fatalf("rank(%s) = %v, want 5 entries", h, r1)
		}
		seen := map[int]bool{}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("rank(%s) unstable: %v vs %v", h, r1, r2)
			}
			seen[r1[i]] = true
		}
		if len(seen) != 5 {
			t.Fatalf("rank(%s) = %v is not a permutation", h, r1)
		}
		owners[r1[0]] = true
	}
	if len(owners) < 2 {
		t.Fatalf("7 hashes all owned by one worker: degenerate placement")
	}
}

// TestRunPlacesOnOwnerAndDedupes: concurrent Runs of one spec coalesce onto
// a single placement on the rendezvous owner, and all callers get identical
// bytes.
func TestRunPlacesOnOwnerAndDedupes(t *testing.T) {
	c, workers := newFleet(t, 3, workerCfg(), nil)
	sp := spec(t, 42, 3)
	hash, err := store.Key(sp)
	if err != nil {
		t.Fatal(err)
	}
	owner := c.Rank(hash)[0]

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type out struct {
		res RunResult
		err error
	}
	results := make(chan out, 3)
	for i := 0; i < 3; i++ {
		go func() {
			res, err := c.Run(ctx, sp)
			results <- out{res, err}
		}()
	}
	var first []byte
	for i := 0; i < 3; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("run %d: %v", i, o.err)
		}
		if o.res.Worker != owner {
			t.Errorf("run %d placed on worker %d, want owner %d", i, o.res.Worker, owner)
		}
		if first == nil {
			first = o.res.Bytes
		} else if string(o.res.Bytes) != string(first) {
			t.Errorf("run %d bytes differ from first run", i)
		}
	}
	m := c.Metrics()
	if m.Deduped != 2 {
		t.Errorf("Deduped = %d, want 2", m.Deduped)
	}
	// Exactly the owner's manager saw the job.
	for i, w := range workers {
		want := uint64(0)
		if i == owner {
			want = 1
		}
		if got := w.m.Snapshot().Submitted; got != want {
			t.Errorf("worker %d Submitted = %d, want %d", i, got, want)
		}
	}
	if len(first) == 0 {
		t.Fatal("empty result bytes")
	}
}

// TestReplacementOnWorkerDeath kills the owner mid-run and expects the
// coordinator to finish the job on another worker with identical bytes to a
// clean computation.
func TestReplacementOnWorkerDeath(t *testing.T) {
	c, workers := newFleet(t, 3, workerCfg(), func(f *Config) {
		f.StreamSilence = 750 * time.Millisecond
	})
	sp := spec(t, 7, 150) // slow enough to be mid-flight when the owner dies
	hash, err := store.Key(sp)
	if err != nil {
		t.Fatal(err)
	}
	owner := c.Rank(hash)[0]

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	done := make(chan struct{})
	var res RunResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = c.Run(ctx, sp)
	}()

	// Wait for the owner to accept the job, then kill it.
	deadline := time.Now().Add(30 * time.Second)
	for workers[owner].m.Snapshot().Submitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner never saw the job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	workers[owner].ts.CloseClientConnections()
	workers[owner].ts.Close()

	<-done
	if runErr != nil {
		t.Fatalf("run after owner death: %v", runErr)
	}
	if res.Worker == owner {
		t.Fatalf("result attributed to the dead owner %d", owner)
	}
	if res.Replacements == 0 {
		t.Error("expected at least one re-placement")
	}

	// The survivor's bytes must equal an independent clean computation.
	clean, err := jobs.Execute(ctx, sp.Normalized(), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Bytes) != string(want) {
		t.Errorf("re-placed result differs from clean run:\n got %s\nwant %s", res.Bytes, want)
	}

	// The failure detector must eventually declare the worker dead.
	deadline = time.Now().Add(30 * time.Second)
	for {
		if st := c.Metrics().Workers[owner].State; st == Dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never declared dead (state %s)", owner, c.Metrics().Workers[owner].State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFederatedFetch: owner hit, then peer/recompute fallback once the
// owner is gone — same bytes on every path.
func TestFederatedFetch(t *testing.T) {
	c, workers := newFleet(t, 3, workerCfg(), nil)
	sp := spec(t, 11, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	res, err := c.Run(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(ctx, res.Hash)
	if err != nil {
		t.Fatalf("fetch with owner alive: %v", err)
	}
	if string(got) != string(res.Bytes) {
		t.Error("owner fetch bytes differ")
	}
	if m := c.Metrics(); m.FetchOwner != 1 {
		t.Errorf("FetchOwner = %d, want 1", m.FetchOwner)
	}

	// Kill the worker that holds the result; a fetch must now either
	// read-through to a peer (none has it) or recompute — and still return
	// identical bytes.
	workers[res.Worker].ts.Close()
	got, err = c.Fetch(ctx, res.Hash)
	if err != nil {
		t.Fatalf("fetch with owner dead: %v", err)
	}
	if string(got) != string(res.Bytes) {
		t.Error("failover fetch bytes differ")
	}
	if m := c.Metrics(); m.FetchRecomp != 1 {
		t.Errorf("FetchRecomp = %d, want 1 (metrics: %+v)", m.FetchRecomp, m)
	}
}

// TestCrossWorkerAudit: a cache hit served by its owner is re-executed on a
// different worker; tampering with the owner's store is caught as a
// mismatch by the independent re-execution.
func TestCrossWorkerAudit(t *testing.T) {
	c, workers := newFleet(t, 3, workerCfg(), func(f *Config) {
		f.AuditEvery = 1
	})
	sp := spec(t, 23, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	res1, err := c.Run(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cached {
		t.Fatal("first run reported cached")
	}
	res2, err := c.Run(ctx, sp) // flight closed → re-placed → owner cache hit
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("second run not served from cache")
	}
	c.WaitAudits()
	m := c.Metrics()
	if m.Audits != 1 || m.AuditBad != 0 {
		t.Fatalf("clean audit: Audits=%d AuditBad=%d, want 1/0", m.Audits, m.AuditBad)
	}

	// Tamper with the owner's cached entry. The owner happily serves the
	// corrupt bytes — only the cross-worker re-execution can notice.
	ent, ok := workers[res1.Worker].st.Get(res1.Hash)
	if !ok {
		t.Fatalf("owner %d store lost %s", res1.Worker, res1.Hash)
	}
	var tampered []byte
	tampered = append(tampered, ent.Result...)
	tampered[len(tampered)/2] ^= 0x20
	workers[res1.Worker].st.Invalidate(res1.Hash)
	if err := workers[res1.Worker].st.Put(res1.Hash, ent.Spec, tampered); err != nil {
		t.Fatal(err)
	}

	res3, err := c.Run(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Cached {
		t.Fatal("tampered run not served from cache")
	}
	if string(res3.Bytes) == string(res1.Bytes) {
		t.Fatal("tampering did not take")
	}
	c.WaitAudits()
	m = c.Metrics()
	if m.AuditBad != 1 {
		t.Fatalf("AuditBad = %d after tamper, want 1 (metrics: %+v)", m.AuditBad, m)
	}
}

// TestRunPermanentErrorNotRetried: an invalid spec fails immediately, with
// no placements at all.
func TestRunPermanentErrorNotRetried(t *testing.T) {
	c, _ := newFleet(t, 2, workerCfg(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sp := spec(t, 1, 2)
	sp.Kind = "warp"
	if _, err := c.Run(ctx, sp); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if m := c.Metrics(); m.Placements != 0 {
		t.Errorf("Placements = %d for an invalid spec, want 0", m.Placements)
	}
}
