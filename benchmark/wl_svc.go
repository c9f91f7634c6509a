package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spineless/internal/core"
	"spineless/internal/jobs"
	"spineless/internal/netsim"
	"spineless/internal/serve"
	"spineless/internal/store"
)

// svc-mix: the spinelessd stack in process — store on a scratch directory,
// job manager, HTTP server behind a loopback TCP listener (traffic crosses
// the host's loopback interface, not a real link) — driven by one client over
// one keep-alive connection. Every round submits a few cold fct jobs, follows
// their event streams and fetches their results, then replays batches of
// cache hits on the resident results in a Zipf(1) order.
var svcMix = &workloadDef{
	name:      "svc-mix",
	workUnit:  "HTTP requests",
	setupReps: 8,
	setup:     setupSvc,
}

// Shape of a svc-mix round. A warm step is a single POST + GET pair (about
// 0.2 ms) and the round is short, because a request is two goroutine hand-offs
// and the host's disturbances last milliseconds: a 100-request step never saw
// an undisturbed sample, while a 2-request step repeated in some 200 rounds
// does.
const (
	svcResidents   = 16
	svcColdPerRnd  = 3
	svcWarmBatch   = 1 // (POST + GET) pairs per warm step
	svcWarmBatches = 200
	// svcHitsPerProbe is how many direct cache-hit submits the jobs probe
	// makes per traced round.
	svcHitsPerProbe = 64
)

// svcSpec is the fct spec both kinds of job use. The fabric is paper scale
// with few flows on purpose: the program samples the paper's heavy-tailed
// flow sizes itself, so a job's simulated events swing widely with its seed,
// while the fabric and FIB it must build first cost the same for every seed —
// what a cold job pays is then mostly that fixed part, as it is for the
// single-cell jobs the service was built for.
func svcSpec(seed int64, small bool) jobs.Spec {
	sp := jobs.Spec{
		Kind: "fct", Fabric: "dring", Scheme: "su2", TM: string(core.TMA2A),
		Util: 0.30, WindowSec: 0.002, Seed: seed, MaxFlows: 16,
		Topo: jobs.TopoSpec{Paper: true},
	}
	if small {
		sp.Topo = jobs.TopoSpec{Scale: 8}
		sp.MaxFlows = 10
	}
	return sp
}

// svcJob is one spec the client submits, with what is known about it.
type svcJob struct {
	spec jobs.Spec
	body []byte // the POST body
	hash string
	// result is the result document first fetched for hash; every later
	// fetch must return the same bytes.
	result []byte
}

func newSvcJob(sp jobs.Spec) (*svcJob, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	hash, err := sp.Hash()
	if err != nil {
		return nil, err
	}
	return &svcJob{spec: sp, body: body, hash: hash}, nil
}

// svcClient is the one HTTP client of the workload.
type svcClient struct {
	base   string
	http   *http.Client
	non2xx int
}

// do performs one request inside a span under sp and returns the status and
// the whole body; anything but 200/202 is an error.
func (c *svcClient) do(sp ref, span, method, path string, body []byte) (int, []byte, error) {
	s := sp.child(span)
	defer s.end(1)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		c.non2xx++
		return resp.StatusCode, raw, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, raw, nil
}

// submit POSTs the job's spec and checks the cache verdict.
func (c *svcClient) submit(sp ref, span string, j *svcJob, wantCached bool) (serve.SubmitResponse, error) {
	var sr serve.SubmitResponse
	_, raw, err := c.do(sp, span, http.MethodPost, "/v1/jobs", j.body)
	if err != nil {
		return sr, err
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		return sr, fmt.Errorf("decoding submit response: %w", err)
	}
	if sr.Hash != j.hash {
		return sr, fmt.Errorf("server hashed the spec to %s, the client to %s", sr.Hash, j.hash)
	}
	if sr.Cached != wantCached {
		return sr, fmt.Errorf("submit of %s: cached=%v, want %v", j.hash[:12], sr.Cached, wantCached)
	}
	return sr, nil
}

// fetch GETs the job's result and checks it against the bytes first seen.
func (c *svcClient) fetch(sp ref, span string, j *svcJob) error {
	_, raw, err := c.do(sp, span, http.MethodGet, "/v1/results/"+j.hash, nil)
	if err != nil {
		return err
	}
	if j.result == nil {
		if !json.Valid(raw) || len(raw) == 0 {
			return fmt.Errorf("result of %s is not JSON", j.hash[:12])
		}
		j.result = raw
		return nil
	}
	if !bytes.Equal(raw, j.result) {
		return fmt.Errorf("result of %s changed between fetches", j.hash[:12])
	}
	return nil
}

// cold runs one job the server has no result for: submit, follow the event
// stream to its terminal event, fetch the result.
func (c *svcClient) cold(sp ref, j *svcJob) error {
	sr, err := c.submit(sp, "serve.post_cold", j, false)
	if err != nil {
		return err
	}
	_, raw, err := c.do(sp, "serve.events", http.MethodGet, "/v1/jobs/"+sr.Job+"/events", nil)
	if err != nil {
		return err
	}
	var last jobs.Event
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == ':' {
			continue // heartbeat comment
		}
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			return fmt.Errorf("decoding event %q: %w", line, err)
		}
	}
	if last.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %q: %s", sr.Job, last.State, last.Error)
	}
	return c.fetch(sp, "serve.fetch_cold", j)
}

// svcInstance is everything one set-up started.
type svcInstance struct {
	dir      string
	st       *store.Store
	mgr      *jobs.Manager
	srv      *http.Server
	served   chan error
	client   *svcClient
	resident []*svcJob
	colds    []*svcJob
	order    []int // Zipf order over the residents, one entry per warm pair

	// The scratch stack the traced run's direct probes use, so they never
	// disturb the served store's counters or contents. Opened on first use.
	probeStore *store.Store
	probeMgr   *jobs.Manager
	probeIDs   []string
}

func setupSvc(opt options, st *setupTimer) (*instance, error) {
	s := &svcInstance{}
	ok := false
	defer func() {
		if !ok {
			_ = s.close() // the set-up error is the one to report
		}
	}()
	err := st.step("open store", func() (err error) {
		if err = os.MkdirAll(opt.outDir, 0o755); err != nil {
			return err
		}
		if s.dir, err = os.MkdirTemp(opt.outDir, "svc-mix-"); err != nil {
			return err
		}
		s.st, err = store.Open(filepath.Join(s.dir, "store"), store.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = st.step("start server", func() error {
		s.mgr = jobs.New(s.st, jobs.Config{Executors: 1, TrialWorkers: 1})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.srv = &http.Server{Handler: serve.New(s.mgr, nil)}
		s.served = make(chan error, 1) // one send, from the goroutine below
		go func() { s.served <- s.srv.Serve(ln) }()
		// One connection, kept alive: the workload is one closed-loop client.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s.client = &svcClient{
			base: "http://" + ln.Addr().String(),
			http: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nRes, nCold, batches, batch := svcResidents, svcColdPerRnd, svcWarmBatches, svcWarmBatch
	if opt.small {
		nRes, nCold, batches, batch = 4, 1, 2, 5
	}
	err = st.step("commit resident results", func() error {
		for i := 0; i < nRes; i++ {
			j, err := newSvcJob(svcSpec(subSeed(opt.seed, 400+i), opt.small))
			if err != nil {
				return err
			}
			if err := s.client.cold(ref{}, j); err != nil {
				return fmt.Errorf("resident %d: %w", i, err)
			}
			s.resident = append(s.resident, j)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < nCold; i++ {
		j, err := newSvcJob(svcSpec(subSeed(opt.seed, 500+i), opt.small))
		if err != nil {
			return nil, err
		}
		s.colds = append(s.colds, j)
	}
	s.order = zipfOrder(subSeed(opt.seed, 600), nRes, batches*batch)

	inst := &instance{close: s.close, between: s.forgetColds, afterRound: s.probeRound, layers: s.layers}
	for i, j := range s.colds {
		j := j
		inst.steps = append(inst.steps, step{
			name: fmt.Sprintf("cold job %d", i),
			span: "svc.cold",
			run: func(sp ref) (stepResult, error) {
				if err := s.client.cold(sp, j); err != nil {
					return stepResult{ops: 3}, err
				}
				sum := sha256.Sum256(j.result)
				return stepResult{digest: []string{j.hash, hex.EncodeToString(sum[:12])}, work: 3, ops: 3}, nil
			},
		})
	}
	for b := 0; b < batches; b++ {
		picks := s.order[b*batch : (b+1)*batch]
		inst.steps = append(inst.steps, step{
			name: fmt.Sprintf("warm batch %d", b),
			span: "svc.warm",
			run: func(sp ref) (stepResult, error) {
				n := 2 * len(picks)
				for _, p := range picks {
					j := s.resident[p]
					if _, err := s.client.submit(sp, "serve.post_warm", j, true); err != nil {
						return stepResult{ops: n}, err
					}
					if err := s.client.fetch(sp, "serve.fetch_warm", j); err != nil {
						return stepResult{ops: n}, err
					}
				}
				return stepResult{digest: picks, work: int64(n), ops: n}, nil
			},
		})
	}
	ok = true
	return inst, nil
}

// forgetColds drops the cold jobs' results from the served store, so the next
// round finds them cold again.
func (s *svcInstance) forgetColds() error {
	for _, j := range s.colds {
		s.st.Invalidate(j.hash)
	}
	return nil
}

// close stops the server and the managers, waits for them, and removes the
// scratch directory.
func (s *svcInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.client != nil {
		s.client.http.CloseIdleConnections()
	}
	if s.srv != nil {
		keep(s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			keep(err)
		}
	}
	if s.mgr != nil {
		keep(s.mgr.Drain(ctx)) // also flushes the store index
	}
	if s.probeMgr != nil {
		keep(s.probeMgr.Drain(ctx))
	}
	if s.dir != "" {
		keep(os.RemoveAll(s.dir))
	}
	return first
}

// probeRound measures store, jobs and the cold job's lower layers by direct
// calls on a scratch stack, once per traced round.
func (s *svcInstance) probeRound(tr *tracer) error {
	if s.probeStore == nil {
		st, err := store.Open(filepath.Join(s.dir, "probe-store"), store.Options{})
		if err != nil {
			return err
		}
		s.probeStore = st
		s.probeMgr = jobs.New(st, jobs.Config{Executors: 1, TrialWorkers: 1})
	}
	res := s.resident[0]
	specRaw, err := store.Canonical(res.spec.HashForm())
	if err != nil {
		return err
	}

	const reps = 16
	key := tr.start("store.key")
	for i := 0; i < reps; i++ {
		h, err := store.Key(res.spec.HashForm())
		if err != nil || h != res.hash {
			return fmt.Errorf("store.Key gave %q (%v), want %s", h, err, res.hash)
		}
	}
	key.end(reps)

	put := tr.start("store.put")
	for i := 0; i < 4; i++ {
		if err := s.probeStore.Put(res.hash, specRaw, res.result); err != nil {
			return err
		}
	}
	put.end(4)
	get := tr.start("store.get")
	for i := 0; i < reps; i++ {
		e, ok := s.probeStore.Get(res.hash)
		if !ok || !bytes.Equal(e.Result, res.result) {
			return fmt.Errorf("scratch store lost or changed %s", res.hash[:12])
		}
	}
	get.end(reps)

	hit := tr.start("jobs.submit_hit")
	for i := 0; i < svcHitsPerProbe; i++ {
		j, cached, err := s.probeMgr.Submit(res.spec)
		if err != nil || !cached {
			return fmt.Errorf("direct submit of a stored spec: cached=%v err=%v", cached, err)
		}
		s.probeIDs = append(s.probeIDs, j.ID)
	}
	hit.end(svcHitsPerProbe)
	retained := 0
	for _, id := range s.probeIDs {
		if _, ok := s.probeMgr.Get(id); ok {
			retained++
		}
	}
	held := tr.start("jobs.retained")
	held.end(int64(retained))

	for _, c := range s.colds {
		if err := s.probeCold(tr, c); err != nil {
			return err
		}
	}
	return nil
}

// probeCold runs one cold spec through a direct Manager.Submit, then replays
// what the job did layer by layer — fabric, FIB, the FCT cell, and under it
// the packet simulation — checking the replay against the served result.
func (s *svcInstance) probeCold(tr *tracer, c *svcJob) error {
	cold := tr.start("jobs.cold")
	j, cached, err := s.probeMgr.Submit(c.spec)
	if err != nil || cached {
		return fmt.Errorf("direct cold submit: cached=%v err=%v", cached, err)
	}
	<-j.Terminal()
	cold.end(1)
	raw, ok := j.Result()
	if j.State() != jobs.StateDone || !ok {
		return fmt.Errorf("direct cold job ended %s", j.State())
	}
	if !bytes.Equal(raw, c.result) {
		return fmt.Errorf("direct run of %s differs from the served result", c.hash[:12])
	}
	s.probeStore.Invalidate(c.hash)

	var served jobs.Result
	if err := json.Unmarshal(c.result, &served); err != nil || served.FCT == nil {
		return fmt.Errorf("decoding served result: %v", err)
	}
	sp := c.spec.Normalized()
	root := tr.start("jobs.execute_replay")
	topo := root.childMem("topology.build")
	rng := rand.New(rand.NewSource(sp.Seed))
	var fs *core.FabricSet
	if sp.Topo.Paper {
		fs, err = core.PaperFabrics(rng)
	} else {
		fs, err = core.ScaledFabrics(sp.Topo.Scale, rng)
	}
	topo.end(0)
	if err != nil {
		return err
	}
	fib := root.childMem("routing.fib_build")
	combo, err := core.NewCombo(sp.Fabric+" ("+sp.Scheme+")", fs.DRing, sp.Scheme)
	fib.end(0)
	if err != nil {
		return err
	}
	cfg := core.DefaultFCTConfig()
	cfg.Util, cfg.WindowSec, cfg.Seed, cfg.MaxFlows = sp.Util, sp.WindowSec, sp.Seed, sp.MaxFlows
	cfg.Workers = 1
	cfg.KeepFlows = true
	cell := root.child("core.RunFCT")
	out, err := core.RunFCT(fs, combo, core.TMKind(sp.TM), cfg)
	cell.end(int64(out.SimStats.Events))
	if err != nil {
		return err
	}
	if out.SimStats != served.FCT.SimStats {
		return fmt.Errorf("replayed cell ran %d events, the served job %d", out.SimStats.Events, served.FCT.SimStats.Events)
	}
	mk := cell.childMem("netsim.new")
	sim, err := netsim.New(combo.Fabric, combo.Scheme, cfg.Net)
	mk.end(0)
	if err != nil {
		return err
	}
	run := cell.childMem("netsim.run")
	got, err := sim.Run(out.RawFlows)
	run.end(int64(got.Stats.Events))
	if err != nil {
		return err
	}
	if got.Stats != out.SimStats {
		return fmt.Errorf("replayed netsim run differs: %d events vs %d", got.Stats.Events, out.SimStats.Events)
	}
	root.end(1)
	return nil
}

func (s *svcInstance) layers(v *traceView) map[string]float64 {
	out := netsimLayers(v, "svc.cold", "svc.warm")
	per := func(name string) float64 {
		if n := v.count(name); n > 0 {
			return v.quietNS(name) / n
		}
		return 0
	}
	out["topology.build_ms"] = v.quietNS("topology.build") / 1e6
	out["topology.build_allocs"] = v.allocs("topology.build")
	out["routing.fib_build_ms"] = v.quietNS("routing.fib_build") / 1e6
	out["routing.fib_build_allocs"] = v.allocs("routing.fib_build")
	out["store.key_us"] = per("store.key") / 1e3
	out["store.put_us"] = per("store.put") / 1e3
	out["store.get_us"] = per("store.get") / 1e3
	c := s.st.Snapshot()
	if c.Hits+c.Misses > 0 {
		out["store.hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	out["jobs.submit_hit_us"] = per("jobs.submit_hit") / 1e3
	out["jobs.cold_ms"] = per("jobs.cold") / 1e6
	out["jobs.retained"] = v.count("jobs.retained")

	warm := describe(v.durations("serve.post_warm"))
	out["serve.warm_p50_us"] = warm.MedianMS * 1e3
	out["serve.warm_hi_us"] = warm.HiMS * 1e3
	out["serve.warm_hi_pct"] = warm.HiPct
	out["serve.warm_hi_n"] = float64(warm.N)
	out["serve.fetch_p50_us"] = describe(v.durations("serve.fetch_warm")).MedianMS * 1e3
	out["serve.cold_p50_ms"] = describe(v.durations("svc.cold")).MedianMS
	out["serve.http_self_us"] = out["serve.warm_p50_us"] - out["jobs.submit_hit_us"]
	out["serve.non2xx"] = float64(s.client.non2xx)
	return out
}
