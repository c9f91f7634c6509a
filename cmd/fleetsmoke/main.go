// Command fleetsmoke is the fleet's end-to-end fault-tolerance check: it
// boots a multi-process spinelessd fleet (each worker is this same binary
// re-executed with -worker), drives sustained load through a fleet
// coordinator while a chaos schedule kills, restarts, partitions and slows
// workers mid-flight, and then proves the robustness contract:
//
//   - zero lost jobs: every accepted submission reaches a terminal state;
//   - byte-identical results: every result equals an independent clean
//     in-process computation of the same spec;
//   - audits work across workers: sampled cache hits are re-executed on a
//     different worker with zero mismatches;
//   - overload sheds before it saturates: a flood draws 429s and never a
//     queue-full 503;
//   - workers drain cleanly: SIGTERM at the end exits 0 (run the smoke
//     under -race and this also shouts about data races).
//
// Exit status is non-zero if any assertion fails. This is the CI
// fleet-smoke job; it is also runnable by hand:
//
//	go run -race ./cmd/fleetsmoke -v
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"spineless/internal/fleet"
	"spineless/internal/fleet/chaos"
	"spineless/internal/jobs"
	"spineless/internal/retry"
	"spineless/internal/serve"
	"spineless/internal/store"
)

func main() {
	log.SetFlags(0)
	var (
		worker   = flag.Bool("worker", false, "internal: run as a fleet worker process")
		addr     = flag.String("addr", "", "worker listen address")
		storeDir = flag.String("store", "", "worker store directory")
		hb       = flag.Duration("hb", 200*time.Millisecond, "worker event-stream heartbeat")
		shed     = flag.Int("shed-depth", 8, "worker admission-control watermark")
		queue    = flag.Int("queue", 16, "worker queue depth")

		workers = flag.Int("n", 3, "fleet size")
		jobsN   = flag.Int("load", 18, "jobs submitted across the chaos window")
		seed    = flag.Int64("seed", 1, "chaos schedule seed")
		timeout = flag.Duration("timeout", 4*time.Minute, "overall smoke deadline")
		verbose = flag.Bool("v", false, "log coordinator and chaos activity")
	)
	flag.Parse()

	if *worker {
		if err := runWorker(*addr, *storeDir, *hb, *shed, *queue); err != nil {
			log.Fatalf("worker %s: %v", *addr, err)
		}
		return
	}
	log.SetPrefix("fleetsmoke: ")
	if err := run(*workers, *jobsN, *seed, *timeout, *verbose); err != nil {
		log.Fatal(err)
	}
	fmt.Println("fleetsmoke: OK")
}

// runWorker is the child-process mode: one spinelessd worker bound to a
// fixed address with a persistent store, draining on SIGTERM. The bind
// retries because a chaos restart can race the kernel releasing the dead
// predecessor's socket.
func runWorker(addr, storeDir string, hb time.Duration, shed, queue int) error {
	log.SetPrefix("worker " + addr + ": ")
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return err
	}
	m := jobs.New(st, jobs.Config{
		QueueDepth:   queue,
		ShedDepth:    shed,
		Executors:    2,
		TrialWorkers: 2,
	})
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 50 {
			return fmt.Errorf("binding %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	h := serve.New(m, nil)
	h.Heartbeat = hb
	srv := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return m.Drain(shutdownCtx)
}

// procs supervises the worker processes so chaos can kill and restart them
// by index.
type procs struct {
	self  string
	addrs []string
	dirs  []string
	args  []string

	mu  sync.Mutex
	cmd []*exec.Cmd
}

func (p *procs) start(w int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.startLocked(w)
}

func (p *procs) startLocked(w int) error {
	args := append([]string{"-worker", "-addr", p.addrs[w], "-store", p.dirs[w]}, p.args...)
	cmd := exec.Command(p.self, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmd[w] = cmd
	return nil
}

func (p *procs) kill(w int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	cmd := p.cmd[w]
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("worker %d not running", w)
	}
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	_ = cmd.Wait() // reap; a SIGKILLed child's non-zero status is expected
	p.cmd[w] = nil
	return nil
}

// shutdown SIGTERMs every live worker and returns an error if any fails to
// drain and exit cleanly.
func (p *procs) shutdown() error {
	p.mu.Lock()
	cmds := append([]*exec.Cmd(nil), p.cmd...)
	p.mu.Unlock()
	var firstErr error
	for w, cmd := range cmds {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		_ = cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker %d did not drain cleanly: %w", w, err)
		}
	}
	return firstErr
}

func run(n, load int, seed int64, timeout time.Duration, verbose bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	logf := func(string, ...any) {}
	if verbose {
		logf = log.Printf
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp("", "fleetsmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Reserve one fixed port per worker: a restarted worker must come back
	// at the same URL, so :0 ephemeral binding is only used to pick them.
	p := &procs{self: self, cmd: make([]*exec.Cmd, n)}
	urls := make([]string, n)
	for w := 0; w < n; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrStr := ln.Addr().String()
		ln.Close()
		p.addrs = append(p.addrs, addrStr)
		dir := fmt.Sprintf("%s/worker%d", root, w)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		p.dirs = append(p.dirs, dir)
		urls[w] = "http://" + addrStr
	}
	for w := 0; w < n; w++ {
		if err := p.start(w); err != nil {
			return fmt.Errorf("starting worker %d: %w", w, err)
		}
	}
	defer p.shutdown()

	// The chaos plan, scaled to the load window: one worker SIGKILLed and
	// later restarted, one partitioned and healed, one slowed throughout.
	var sched chaos.Schedule
	sched.Seed = seed
	if n >= 2 {
		sched.Kill(1500*time.Millisecond, 1%n)
		sched.Restart(5*time.Second, 1%n)
	}
	if n >= 3 {
		sched.Partition(2500*time.Millisecond, 2)
		sched.Heal(6*time.Second, 2)
	}
	sched.Slow(500*time.Millisecond, 0, 0.5)
	sched.Heal(7*time.Second, 0)
	ctl, err := chaos.NewController(&sched, urls, chaos.Actions{
		Kill:    p.kill,
		Restart: p.start,
	}, log.Printf)
	if err != nil {
		return err
	}

	coord, err := fleet.New(fleet.Config{
		Workers:       urls,
		ProbeEvery:    150 * time.Millisecond,
		ProbeTimeout:  time.Second,
		SuspectAfter:  1,
		DeadAfter:     3,
		StreamSilence: 1500 * time.Millisecond,
		AuditEvery:    2,
		AuditTimeout:  time.Minute,
		RPC: retry.Policy{
			MaxAttempts:    4,
			BaseDelay:      50 * time.Millisecond,
			MaxDelay:       500 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
			Budget:         &retry.Budget{Ratio: 0.5, Burst: 50},
		},
		Client: &http.Client{Transport: ctl.Transport(nil)},
		Logf:   logf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	if err := waitHealthy(ctx, urls); err != nil {
		return err
	}
	log.Printf("%d workers up at %v", n, p.addrs)

	// Phase 1: sustained load under chaos. Submissions are staggered so
	// they straddle every scheduled fault; each Run must come back with the
	// same bytes a clean in-process execution of its spec produces.
	chaosDone := make(chan struct{})
	go func() { defer close(chaosDone); ctl.Play(ctx.Done()) }()

	type outcome struct {
		i   int
		res fleet.RunResult
		err error
	}
	results := make(chan outcome, load)
	var wg sync.WaitGroup
	for i := 0; i < load; i++ {
		sp, err := smokeSpec(int64(i+1), 20)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, sp jobs.Spec) {
			defer wg.Done()
			res, err := coord.Run(ctx, sp)
			results <- outcome{i, res, err}
		}(i, sp)
		if err := retry.Sleep(ctx, 400*time.Millisecond); err != nil {
			return err
		}
	}
	wg.Wait()
	close(results)
	<-chaosDone

	lost, diverted := 0, 0
	byIdx := make([]fleet.RunResult, load)
	for o := range results {
		if o.err != nil {
			lost++
			log.Printf("LOST job %d: %v", o.i, o.err)
			continue
		}
		byIdx[o.i] = o.res
		if owner := coord.Rank(o.res.Hash)[0]; o.res.Worker != owner {
			diverted++ // the rendezvous owner was dead or dying; placement routed around it
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d of %d jobs lost under chaos", lost, load)
	}
	repl := coord.Metrics().Replacements
	if repl == 0 && diverted == 0 {
		return fmt.Errorf("chaos never bit: no job was re-placed or diverted off its owner")
	}
	log.Printf("phase 1: all %d jobs terminal under chaos (replacements=%d, diverted=%d)", load, repl, diverted)

	// Byte-identical to a clean run, for every job.
	for i := 0; i < load; i++ {
		sp, _ := smokeSpec(int64(i+1), 20)
		clean, err := jobs.Execute(ctx, sp, 2, nil, nil)
		if err != nil {
			return fmt.Errorf("clean run of job %d: %w", i, err)
		}
		want, err := json.Marshal(clean)
		if err != nil {
			return err
		}
		if string(byIdx[i].Bytes) != string(want) {
			return fmt.Errorf("job %d: chaos-run result differs from clean run\n got %s\nwant %s", i, byIdx[i].Bytes, want)
		}
	}
	log.Printf("phase 1: all %d results byte-identical to clean runs", load)

	// Phase 2: resubmit everything. The fleet is healed, so these are cache
	// hits, and every second one is audited on a *different* worker.
	for i := 0; i < load; i++ {
		sp, _ := smokeSpec(int64(i+1), 20)
		res, err := coord.Run(ctx, sp)
		if err != nil {
			return fmt.Errorf("resubmit job %d: %w", i, err)
		}
		if string(res.Bytes) != string(byIdx[i].Bytes) {
			return fmt.Errorf("resubmit job %d returned different bytes", i)
		}
	}
	coord.WaitAudits()
	m := coord.Metrics()
	if m.CacheHits == 0 {
		return fmt.Errorf("resubmission phase produced no cache hits (metrics %+v)", m)
	}
	if m.Audits == 0 {
		return fmt.Errorf("no cross-worker audits completed (metrics %+v)", m)
	}
	if m.AuditBad != 0 {
		return fmt.Errorf("%d cross-worker audit mismatches (metrics %+v)", m.AuditBad, m)
	}
	log.Printf("phase 2: %d cache hits, %d cross-worker audits, 0 mismatches", m.CacheHits, m.Audits)

	// Phase 3: overload one worker directly. Admission control must shed
	// with 429 before the queue saturates: some 429s, zero 503s.
	var tooMany, full, accepted int
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 40; i++ {
		sp, err := smokeSpec(int64(1000+i), 40)
		if err != nil {
			return err
		}
		body, _ := json.Marshal(sp)
		resp, err := client.Post(urls[0]+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return fmt.Errorf("flood submit %d: %w", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			accepted++
		case http.StatusTooManyRequests:
			tooMany++
		case http.StatusServiceUnavailable:
			full++
		default:
			return fmt.Errorf("flood submit %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if full > 0 {
		return fmt.Errorf("overload reached queue saturation: %d full-queue 503s (sheds=%d)", full, tooMany)
	}
	if tooMany == 0 {
		return fmt.Errorf("overload flood was never shed (accepted=%d)", accepted)
	}
	if accepted == 0 {
		return fmt.Errorf("overload shed everything; admission control is over-eager")
	}
	log.Printf("phase 3: flood of 40 → %d accepted, %d shed with 429, 0 queue-full 503s", accepted, tooMany)

	// Phase 4: graceful drain. SIGTERM everyone (including the worker still
	// digesting the flood) and require clean exits.
	if err := p.shutdown(); err != nil {
		return err
	}
	log.Printf("phase 4: all workers drained and exited 0")
	return nil
}

func waitHealthy(ctx context.Context, urls []string) error {
	client := &http.Client{Timeout: time.Second}
	for _, u := range urls {
		for {
			resp, err := client.Get(u + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if err := retry.Sleep(ctx, 100*time.Millisecond); err != nil {
				return fmt.Errorf("worker %s never became healthy: %w", u, err)
			}
		}
	}
	return nil
}

// smokeSpec is the same scaled-down Figure 4 cell the spinelessd smoke
// uses, with the seed varied per job so every job is distinct work.
func smokeSpec(seed int64, trials int) (jobs.Spec, error) {
	raw := `{"kind":"fct","topo":{"scale":8},"fabric":"rrg","scheme":"ecmp","tm":"A2A","util":0.2,"window_sec":0.002,"seed":1,"max_flows":40,"trials":2}`
	var sp jobs.Spec
	if err := json.Unmarshal([]byte(raw), &sp); err != nil {
		return sp, err
	}
	sp.Seed = seed
	sp.Trials = trials
	return sp.Normalized(), nil
}
