package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spineless/internal/jobs"
	"spineless/internal/serve"
	"spineless/internal/store"
)

// startDrainable boots serveAndDrain over a fresh store in dir, submits spec
// through the HTTP API and waits until the job is running. It returns the
// job and sigterm, which plays main's signal and returns serveAndDrain's
// result.
func startDrainable(t *testing.T, dir, spec string, drainTimeout time.Duration) (j *jobs.Job, sigterm func() error) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.New(st, jobs.Config{QueueDepth: 4, Executors: 1, TrialWorkers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveAndDrain(ctx, ln, serve.New(m, nil), m, drainTimeout) }()
	var once sync.Once
	var drainErr error
	sigterm = func() error {
		once.Do(func() {
			cancel()
			drainErr = <-done
		})
		return drainErr
	}
	t.Cleanup(func() { sigterm() })

	sub, err := smokeClient{base: "http://" + ln.Addr().String()}.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := m.Get(sub.Job)
	if !ok {
		t.Fatalf("job %s unknown to the manager", sub.Job)
	}
	events, unsubscribe := j.Subscribe()
	defer unsubscribe()
	for ev := range events {
		if ev.State != jobs.StatePending {
			break
		}
	}
	if s := j.State(); s != jobs.StateRunning {
		t.Fatalf("job %s is %s before the drain began; the test needs it running", j.ID, s)
	}
	return j, sigterm
}

// TestServeAndDrainFinishesRunningJob is spinelessd's SIGTERM path: the
// signal arrives while a job runs, the job still finishes, its result is
// in the store when it is reopened, and the daemon exits cleanly.
func TestServeAndDrainFinishesRunningJob(t *testing.T) {
	dir := t.TempDir()
	spec := strings.Replace(smokeSpec, `"trials":2`, `"trials":40`, 1)
	j, sigterm := startDrainable(t, dir, spec, time.Minute)
	if err := sigterm(); err != nil {
		t.Fatalf("drain with a running job returned %v, want nil", err)
	}
	if s := j.State(); s != jobs.StateDone {
		t.Fatalf("drained job ended %s, want done", s)
	}
	want, _ := j.Result()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := st.Get(j.Hash)
	if !ok {
		t.Fatal("drained job's result is not in the reopened store")
	}
	if string(e.Result) != string(want) {
		t.Fatal("reopened store holds different bytes than the drained job returned")
	}
}

// TestServeAndDrainTimeoutIsAnError: a drain timeout shorter than the
// running job cancels it and returns an error, which main turns into
// exit status 1.
func TestServeAndDrainTimeoutIsAnError(t *testing.T) {
	spec := strings.Replace(smokeSpec, `"trials":2`, `"trials":2000`, 1)
	j, sigterm := startDrainable(t, t.TempDir(), spec, 10*time.Millisecond)
	if err := sigterm(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past its timeout returned %v, want a deadline error", err)
	}
	if s := j.State(); s != jobs.StateCancelled {
		t.Fatalf("job outliving the drain ended %s, want cancelled", s)
	}
}

// TestSmokeClean runs the -smoke self-check as CI does and expects it to
// pass end to end: run, cache hit, clean audit.
func TestSmokeClean(t *testing.T) {
	if err := runSmoke(2, nil); err != nil {
		t.Fatalf("clean smoke failed: %v", err)
	}
}

// TestSmokeFailsOnTamperedStore is the audit exit-path regression test: a
// corrupted store entry must make the smoke fail via the audit-mismatch
// check, not sneak through as a "verified" cache hit. This is the contract
// behind `spinelessd -smoke`'s non-zero exit on audit mismatch.
func TestSmokeFailsOnTamperedStore(t *testing.T) {
	err := runSmoke(2, func(st *store.Store, hash string) error {
		ent, ok := st.Get(hash)
		if !ok {
			return fmt.Errorf("store lost %s before tampering", hash)
		}
		tampered := append([]byte(nil), ent.Result...)
		tampered[len(tampered)/2] ^= 0x20
		st.Invalidate(hash)
		return st.Put(hash, ent.Spec, tampered)
	})
	if err == nil {
		t.Fatal("smoke passed over a tampered store entry")
	}
	if !strings.Contains(err.Error(), "audit mismatch") {
		t.Fatalf("smoke failed for the wrong reason: %v", err)
	}
}
