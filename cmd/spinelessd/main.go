// Command spinelessd serves the spineless experiment engine over HTTP: a
// bounded job queue with singleflight deduplication, NDJSON progress
// streaming, a content-addressed on-disk result cache, and Prometheus text
// metrics. See internal/serve for the API and DESIGN.md §10 for the
// protocol.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener stops accepting,
// queued and running jobs finish (bounded by -drain-timeout, after which
// they are cancelled), the store index is flushed, and the process exits.
//
// -smoke runs a self-contained end-to-end check instead of serving: it
// boots the server on an ephemeral port, submits a tiny telemetry-enabled
// experiment twice through the real HTTP API, streams /v1/telemetry while
// the first run executes (the live twin must show the job's traffic), and
// verifies the second submission is a cache hit whose result bytes are
// identical to the first run's — with no new simulator work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spineless/internal/jobs"
	"spineless/internal/serve"
	"spineless/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spinelessd: ")
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		storeDir     = flag.String("store", "", "result store directory (empty = no cache, every job runs fresh)")
		storeMax     = flag.Int64("store-max-bytes", 1<<30, "result store size cap in bytes (0 = uncapped)")
		queueDepth   = flag.Int("queue", 64, "bounded queue depth; submissions beyond it get 503")
		shedDepth    = flag.Int("shed-depth", 48, "admission-control watermark: shed new submissions with 429 once the queue holds this many (0 = off; keep below -queue)")
		maxInflight  = flag.Int("max-inflight", 0, "cap on pending+running distinct specs; beyond it new specs get 429 (0 = uncapped)")
		executors    = flag.Int("jobs", 1, "jobs run concurrently")
		workers      = flag.Int("workers", 0, "trial-level workers per job (0 = one per CPU); never affects results")
		auditEvery   = flag.Int("audit-every", 16, "re-execute every Nth cache hit and verify it matches the stored result (0 = off)")
		heartbeat    = flag.Duration("heartbeat", serve.DefaultHeartbeat, "NDJSON event-stream keepalive comment period")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight jobs on shutdown")
		smoke        = flag.Bool("smoke", false, "run the end-to-end self-check and exit")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(*workers, nil); err != nil {
			log.Fatal(err)
		}
		fmt.Println("smoke: OK")
		return
	}

	m, err := newManager(*storeDir, *storeMax, jobs.Config{
		QueueDepth:   *queueDepth,
		ShedDepth:    *shedDepth,
		MaxInflight:  *maxInflight,
		Executors:    *executors,
		TrialWorkers: *workers,
		AuditEvery:   *auditEvery,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	h := serve.New(m, log.Printf)
	h.Heartbeat = *heartbeat
	log.Printf("listening on http://%s (store=%q queue=%d jobs=%d)", ln.Addr(), *storeDir, *queueDepth, *executors)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := serveAndDrain(ctx, ln, h, m, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

// serveAndDrain serves h on ln until ctx is done (main's SIGINT/SIGTERM),
// then stops accepting, waits up to drainTimeout for m's queued and running
// jobs, and closes m's store. It returns the serve error if serving fails
// first, and an error if the drain overruns drainTimeout (the running jobs
// are then cancelled and their results are not stored).
func serveAndDrain(ctx context.Context, ln net.Listener, h http.Handler, m *jobs.Manager, drainTimeout time.Duration) error {
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining jobs (up to %v)", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := m.Drain(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}

func newManager(dir string, maxBytes int64, cfg jobs.Config) (*jobs.Manager, error) {
	var st *store.Store
	if dir != "" {
		var err error
		st, err = store.Open(dir, store.Options{MaxBytes: maxBytes})
		if err != nil {
			return nil, err
		}
	}
	return jobs.New(st, cfg), nil
}

// smokeSpec is the tiny experiment the self-check runs: a scaled-down
// Figure 4 cell small enough to finish in about a second. The first
// submission uses smokeTelemetrySpec — the same spec with live telemetry
// on — so the later plain resubmissions double as an end-to-end check that
// the telemetry flag is hash-exempt (they must hit the first run's cache
// entry).
const smokeSpec = `{"kind":"fct","topo":{"scale":8},"fabric":"rrg","scheme":"ecmp","tm":"A2A","util":0.2,"window_sec":0.002,"seed":1,"max_flows":40,"trials":2}`

var smokeTelemetrySpec = strings.Replace(smokeSpec, `{"kind":"fct"`, `{"kind":"fct","telemetry":true`, 1)

// runSmoke boots a server on an ephemeral port backed by a temp store and
// drives the real HTTP API: submit, wait via the event stream (which runs a
// fast heartbeat so the keepalive protocol is exercised too), fetch the
// result, resubmit twice, and prove the cache is both fast and *honest* —
// same hash, byte-identical result, hit counters incremented, zero new
// simulator events on the first hit, and a sampled re-execution audit on
// the second hit that must report zero mismatches. An audit mismatch is the
// one failure that means the store is lying, so it exits non-zero ahead of
// every other check.
//
// tamper, when non-nil, is called with the store and result hash between
// the first run and the resubmissions — the test hook that proves a
// corrupted entry actually trips the audit exit path.
func runSmoke(workers int, tamper func(st *store.Store, hash string) error) error {
	dir, err := os.MkdirTemp("", "spinelessd-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	// AuditEvery 2: the first cache hit stays audit-free (so the
	// hits-are-free check below sees unchanged sim-event counts), the
	// second takes the sampled re-execution.
	m := jobs.New(st, jobs.Config{
		QueueDepth:   4,
		Executors:    1,
		TrialWorkers: workers,
		AuditEvery:   2,
		Logf:         log.Printf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := serve.New(m, nil)
	h.Heartbeat = 500 * time.Millisecond
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		m.Drain(ctx)
	}()

	c := smokeClient{base: base}
	sub1, err := c.submit(smokeSpec)
	if err != nil {
		return fmt.Errorf("first submit: %w", err)
	}
	if sub1.Cached {
		return errors.New("first submission claims to be cached")
	}
	log.Printf("smoke: submitted %s (hash %.12s), streaming events", sub1.Job, sub1.Hash)
	if err := c.waitDone(sub1.Job); err != nil {
		return err
	}
	res1, err := c.result(sub1.Hash)
	if err != nil {
		return fmt.Errorf("first result: %w", err)
	}
	events1, err := c.simEvents()
	if err != nil {
		return err
	}
	if events1 == 0 {
		return errors.New("first run reports zero simulator events")
	}

	if tamper != nil {
		if err := tamper(st, sub1.Hash); err != nil {
			return fmt.Errorf("tamper hook: %w", err)
		}
	}

	// First resubmission: a cache hit must cost zero simulator work.
	sub2, err := c.submit(smokeSpec)
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	if !sub2.Cached {
		return errors.New("resubmission was not served from the cache")
	}
	if sub2.Hash != sub1.Hash {
		return fmt.Errorf("hash changed across identical submissions: %s vs %s", sub1.Hash, sub2.Hash)
	}
	events2, err := c.simEvents()
	if err != nil {
		return err
	}
	if events2 != events1 {
		return fmt.Errorf("cache hit ran the simulator: events %d → %d", events1, events2)
	}

	// Second resubmission draws the sampled audit: a background
	// re-execution of the spec compared byte-for-byte against the store.
	if _, err := c.submit(smokeSpec); err != nil {
		return fmt.Errorf("audited resubmit: %w", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		audits, err := c.metric("spinelessd_audit_runs_total")
		if err != nil {
			return err
		}
		if audits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("sampled audit never completed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if bad, err := c.metric("spinelessd_audit_mismatch_total"); err != nil {
		return err
	} else if bad > 0 {
		return fmt.Errorf("audit mismatch: %v cached result(s) differ from re-execution — the result store is not to be trusted", bad)
	}

	res2, err := c.result(sub2.Hash)
	if err != nil {
		return fmt.Errorf("second result: %w", err)
	}
	if string(res1) != string(res2) {
		return errors.New("cache hit returned different bytes than the original run")
	}
	hits, err := c.metric("spinelessd_cache_hits_total")
	if err != nil {
		return err
	}
	if int(hits) != 2 {
		return fmt.Errorf("cache hit counter = %v, want 2", hits)
	}
	log.Printf("smoke: cache verified — byte-identical result, audit clean, %d sim events saved per hit", events1)

	if err := smokeTelemetry(c, sub1.Hash); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	log.Printf("smoke: live telemetry verified — hash-exempt flag, job visible on the twin while running, hub idle after settle")
	return nil
}

// smokeTelemetry drives the digital-twin surface: the telemetry flag must
// be hash-exempt (its spec hits the plain run's cache entry), a slow
// telemetry-enabled run must appear on the /v1/telemetry stream with live
// traffic while it executes, and the hub must drain once the job settles.
func smokeTelemetry(c smokeClient, plainHash string) error {
	subT, err := c.submit(smokeTelemetrySpec)
	if err != nil {
		return fmt.Errorf("telemetry-spec submit: %w", err)
	}
	if !subT.Cached || subT.Hash != plainHash {
		return fmt.Errorf("telemetry flag fragments the cache: cached=%v hash %.12s vs %.12s",
			subT.Cached, subT.Hash, plainHash)
	}

	// A slow observed run (fresh seed, many trial windows) so the stream
	// has time to catch it live; cancelled once seen.
	slow := strings.Replace(smokeTelemetrySpec, `"trials":2`, `"trials":2000`, 1)
	slow = strings.Replace(slow, `"seed":1`, `"seed":7`, 1)
	telCtx, telCancel := context.WithCancel(context.Background())
	defer telCancel()
	subL, err := c.submit(slow)
	if err != nil {
		return fmt.Errorf("slow submit: %w", err)
	}
	if subL.Cached {
		return errors.New("fresh telemetry run claims to be cached")
	}
	telCh := make(chan error, 1)
	go func() { telCh <- c.watchTelemetry(telCtx, subL.Job) }()
	select {
	case err := <-telCh:
		if err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	case <-time.After(time.Minute):
		telCancel()
		return errors.New("stream never showed the running job")
	}
	if err := c.cancel(subL.Job); err != nil {
		return fmt.Errorf("cancelling observed job: %w", err)
	}
	// Settled jobs leave the hub: a bounded poll must drain to idle.
	deadline := time.Now().Add(30 * time.Second)
	for {
		active, err := c.telemetryActive()
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if active == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hub still reports %d active jobs after settle", active)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
