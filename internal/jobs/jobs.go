package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"spineless/internal/store"
	"spineless/internal/telemetry"
)

// State is a job's lifecycle position. The machine is strictly forward:
//
//	pending → running → done | failed
//	pending → cancelled            (cancelled before a worker claimed it)
//	running → cancelled            (context cancelled mid-run)
//
// plus the short-circuit path for cache hits, which are born done.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ErrQueueFull is returned by Submit when the bounded queue has no room;
// the HTTP layer maps it to 503 + Retry-After.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrOverloaded is returned by Submit when admission control sheds the
// request: the queue or in-flight population crossed its watermark, so the
// manager refuses new work *before* the queue saturates. The HTTP layer
// maps it to 429 + Retry-After — clients back off while already-admitted
// jobs keep their latency instead of everyone collapsing together.
var ErrOverloaded = errors.New("jobs: overloaded, shedding new submissions")

// ErrDraining is returned by Submit once shutdown has begun.
var ErrDraining = errors.New("jobs: shutting down")

// Event is one NDJSON progress record streamed to watchers.
type Event struct {
	Job       string `json:"job"`
	Hash      string `json:"hash"`
	State     State  `json:"state"`
	Done      int    `json:"done_trials"`
	Total     int    `json:"total_trials"`
	FromCache bool   `json:"from_cache,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Status is a point-in-time job snapshot (the GET /v1/jobs/{id} body).
type Status struct {
	ID        string `json:"id"`
	Hash      string `json:"hash"`
	State     State  `json:"state"`
	Spec      Spec   `json:"spec"`
	Done      int    `json:"done_trials"`
	Total     int    `json:"total_trials"`
	FromCache bool   `json:"from_cache,omitempty"`
	Error     string `json:"error,omitempty"`
	// ElapsedMS is wall time from submission to now (or to completion).
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Job is one submitted experiment.
type Job struct {
	ID   string
	Hash string
	Spec Spec // normalized

	m *Manager

	mu          sync.Mutex
	state       State
	done, total int
	fromCache   bool
	result      json.RawMessage
	errMsg      string
	created     time.Time
	finished    time.Time
	cancelRun   context.CancelFunc // set while running
	subs        map[int]chan Event
	nextSub     int
	terminal    chan struct{}
}

// Config tunes a Manager.
type Config struct {
	// QueueDepth bounds the pending-job queue (default 64). Submissions
	// beyond it fail fast with ErrQueueFull instead of queueing unboundedly.
	QueueDepth int
	// Executors is the number of jobs run concurrently (default 1: one
	// experiment at a time, each internally parallel across TrialWorkers).
	Executors int
	// TrialWorkers bounds each job's internal trial parallelism
	// (0 = one per CPU). A pure throughput knob; never affects results.
	TrialWorkers int
	// ShedDepth is the admission-control watermark on queue depth: once the
	// pending queue holds at least this many jobs, new submissions are shed
	// with ErrOverloaded instead of being allowed to fill the queue to the
	// ErrQueueFull wall (0 = shedding off). Keep it below QueueDepth so
	// well-behaved clients see 429 and back off before anyone sees 503.
	ShedDepth int
	// MaxInflight caps the pending+running job population (the singleflight
	// set); beyond it new distinct specs are shed with ErrOverloaded
	// (0 = uncapped). Dedup onto an in-flight job and cache hits are never
	// shed — they add no load.
	MaxInflight int
	// AuditEvery re-executes every Nth cache hit and compares the fresh
	// result byte-for-byte against the stored one (0 = off). A mismatch
	// invalidates the entry and increments the audit_mismatch counter —
	// the runtime proof that a hit is semantically identical to a re-run.
	AuditEvery int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Metrics is a snapshot of manager counters for the /metrics endpoint.
type Metrics struct {
	QueueDepth    int
	QueueCapacity int
	Submitted     uint64
	Deduped       uint64
	Rejected      uint64
	Shed          uint64
	ByState       map[State]uint64 // terminal tallies plus current pending/running
	CacheHits     uint64
	CacheMisses   uint64
	// FabricHits, FabricMisses and FabricEvictions count the fabric
	// cache's lookups that found a built fabric and scheme, those that
	// built one, and the entries it dropped to stay within its bound: a
	// cold job's latency is bimodal in whether its fabric was a hit.
	FabricHits      uint64
	FabricMisses    uint64
	FabricEvictions uint64
	Audits          uint64
	AuditSkipped    uint64
	AuditMismatch   uint64
	SimEvents       uint64
	BusySeconds     float64
	// LatencyBuckets[i] counts completed jobs with run latency ≤
	// LatencyBoundsMS[i] (cumulative, Prometheus histogram convention);
	// the final bucket is +Inf.
	LatencyBoundsMS []float64
	LatencyBuckets  []uint64
	LatencyCount    uint64
	LatencySumMS    float64
}

// LatencyBoundsMS are the histogram bucket upper bounds in milliseconds.
var LatencyBoundsMS = []float64{10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000}

// Manager owns the queue, the executors and the result store.
type Manager struct {
	st  *store.Store
	cfg Config
	hub *telemetry.Hub
	// fabrics holds the fabrics and schemes recent fct jobs built; the
	// executors share it and audits bypass it.
	fabrics fabricCache

	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *Job
	drainM sync.Mutex // serializes Submit's enqueue against Drain's close
	drain  bool

	mu          sync.Mutex
	seq         int
	jobs        map[string]*Job
	inflight    map[string]*Job // pending/running jobs by spec hash (singleflight)
	auditActive bool
	submitted   uint64
	deduped     uint64
	rejected    uint64
	shed        uint64
	terminals   map[State]uint64
	hits        uint64
	misses      uint64
	audits      uint64
	auditSkip   uint64
	auditBad    uint64
	simEvents   uint64
	busyNS      int64
	latBkt      []uint64
	latCount    uint64
	latSumMS    float64
}

// New builds a Manager over st (which may be nil: every submission then
// runs fresh and nothing is cached) and starts its executors.
func New(st *store.Store, cfg Config) *Manager {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		st:        st,
		cfg:       cfg,
		hub:       telemetry.NewHub(),
		ctx:       ctx,
		stop:      stop,
		queue:     make(chan *Job, cfg.QueueDepth),
		jobs:      map[string]*Job{},
		inflight:  map[string]*Job{},
		terminals: map[State]uint64{},
		latBkt:    make([]uint64, len(LatencyBoundsMS)+1),
	}
	for i := 0; i < cfg.Executors; i++ {
		m.wg.Add(1)
		go m.executor()
	}
	return m
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Submit validates, normalizes and hashes sp, then either returns the
// in-flight job already computing that hash (singleflight), a born-done job
// served from the cache, or a freshly enqueued pending job. The bool
// reports whether the result was served from the cache.
func (m *Manager) Submit(sp Spec) (*Job, bool, error) {
	sp = sp.Normalized()
	if err := sp.Validate(); err != nil {
		return nil, false, err
	}
	hash, err := sp.Hash()
	if err != nil {
		return nil, false, err
	}

	m.mu.Lock()
	if j := m.inflight[hash]; j != nil {
		m.deduped++
		m.mu.Unlock()
		return j, false, nil
	}
	m.mu.Unlock()

	// Cache lookup happens outside m.mu: store.Get may read disk on a first hit.
	if m.st != nil {
		if e, ok := m.st.Get(hash); ok {
			j := m.newJob(hash, sp)
			j.state = StateDone
			j.fromCache = true
			j.result = e.Result
			j.done, j.total = totalTrials(sp), totalTrials(sp)
			j.finished = time.Now()
			close(j.terminal)
			m.mu.Lock()
			m.hits++
			m.terminals[StateDone]++
			m.jobs[j.ID] = j
			hitNo := m.hits
			m.mu.Unlock()
			m.logf("job %s: cache hit for %s", j.ID, shortHash(hash))
			m.maybeAudit(hitNo, hash, sp)
			return j, true, nil
		}
		m.mu.Lock()
		m.misses++
		m.mu.Unlock()
	}

	// Admission control: shed fresh work at the watermarks, after the free
	// paths (dedup, cache hit) have had their chance. Shedding here — with
	// queue headroom still left — is what keeps admitted jobs' latency
	// bounded under overload; the ErrQueueFull wall below is the backstop.
	if depth := len(m.queue); m.cfg.ShedDepth > 0 && depth >= m.cfg.ShedDepth {
		m.shedOne(hash, fmt.Sprintf("queue depth %d >= watermark %d", depth, m.cfg.ShedDepth))
		return nil, false, ErrOverloaded
	}
	if m.cfg.MaxInflight > 0 {
		m.mu.Lock()
		n := len(m.inflight)
		m.mu.Unlock()
		if n >= m.cfg.MaxInflight {
			m.shedOne(hash, fmt.Sprintf("inflight %d >= cap %d", n, m.cfg.MaxInflight))
			return nil, false, ErrOverloaded
		}
	}

	j := m.newJob(hash, sp)
	j.state = StatePending
	j.total = totalTrials(sp)

	m.drainM.Lock()
	if m.drain {
		m.drainM.Unlock()
		return nil, false, ErrDraining
	}
	select {
	case m.queue <- j:
		m.drainM.Unlock()
	default:
		m.drainM.Unlock()
		m.mu.Lock()
		m.rejected++
		m.mu.Unlock()
		return nil, false, ErrQueueFull
	}

	// An executor may already have run and settled j. Under j.mu, settle
	// has either happened (j stays out of the singleflight set, which would
	// otherwise hold a finished job forever) or will find j there.
	j.mu.Lock()
	m.mu.Lock()
	m.submitted++
	m.jobs[j.ID] = j
	if !j.state.Terminal() {
		m.inflight[hash] = j
	}
	m.mu.Unlock()
	j.mu.Unlock()
	m.logf("job %s: queued %s kind=%s", j.ID, shortHash(hash), sp.Kind)
	return j, false, nil
}

// shedOne counts and logs one shed submission.
func (m *Manager) shedOne(hash, why string) {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
	m.logf("shed %s: %s", shortHash(hash), why)
}

func (m *Manager) newJob(hash string, sp Spec) *Job {
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("j%06d", m.seq)
	m.mu.Unlock()
	return &Job{
		ID:       id,
		Hash:     hash,
		Spec:     sp,
		m:        m,
		created:  time.Now(),
		subs:     map[int]chan Event{},
		terminal: make(chan struct{}),
	}
}

// totalTrials is the progress denominator a spec implies.
func totalTrials(sp Spec) int {
	if sp.Kind == "fct" && sp.Trials > 1 {
		return sp.Trials
	}
	return 1
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Pending jobs cancel immediately;
// running jobs get their context cancelled and settle when the trial loop
// notices. Terminal jobs are left alone (returns false).
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	switch j.state {
	case StatePending:
		j.settleLocked(StateCancelled, nil, context.Canceled.Error())
		j.mu.Unlock()
		return true
	case StateRunning:
		if j.cancelRun != nil {
			j.cancelRun()
		}
		j.mu.Unlock()
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// Store exposes the underlying result store (may be nil).
func (m *Manager) Store() *store.Store { return m.st }

// Hub exposes the live telemetry hub: one recorder per telemetry-enabled
// running job, registered under the job ID for the duration of its run.
func (m *Manager) Hub() *telemetry.Hub { return m.hub }

// executor pulls jobs off the bounded queue and runs them.
func (m *Manager) executor() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithCancel(m.ctx)
	j.mu.Lock()
	if j.state != StatePending { // cancelled while queued
		j.mu.Unlock()
		cancel()
		return
	}
	j.state = StateRunning
	j.cancelRun = cancel
	j.publishLocked()
	j.mu.Unlock()

	// Telemetry-enabled jobs publish a live recorder on the hub for the
	// duration of the run; /v1/telemetry streams it. Released on settle —
	// the twin mirrors running fabric state, not history (results carry
	// the durable outcome).
	var rec *telemetry.Recorder
	if j.Spec.Telemetry {
		rec = telemetry.NewRecorder(telemetry.Config{})
		release := m.hub.Register(j.ID, rec)
		defer release()
	}

	start := time.Now()
	res, err := execute(ctx, j.Spec, m.cfg.TrialWorkers, rec, func(done, total int) {
		j.progress(done, total)
	}, &m.fabrics)
	elapsed := time.Since(start)
	cancel()

	// Count the run before settling: a client that sees the job done must
	// also see its events and latency in /metrics.
	m.mu.Lock()
	m.busyNS += elapsed.Nanoseconds()
	m.simEvents += res.SimEvents()
	ms := float64(elapsed.Nanoseconds()) / 1e6
	idx := len(LatencyBoundsMS)
	for i, b := range LatencyBoundsMS {
		if ms <= b {
			idx = i
			break
		}
	}
	m.latBkt[idx]++
	m.latCount++
	m.latSumMS += ms
	m.mu.Unlock()

	switch {
	case err == nil:
		raw, merr := json.Marshal(res)
		if merr != nil {
			j.settle(StateFailed, nil, fmt.Sprintf("encoding result: %v", merr))
			break
		}
		if m.st != nil {
			// Commit the hash preimage, not the submitted spec: Put verifies
			// the archived spec hashes to the key, and the hash-exempt
			// Telemetry field would break that and lose the entry.
			specRaw, cerr := store.Canonical(j.Spec.HashForm())
			if cerr == nil {
				if perr := m.st.Put(j.Hash, specRaw, raw); perr != nil {
					m.logf("job %s: store put failed: %v", j.ID, perr)
				}
			}
		}
		j.settle(StateDone, raw, "")
	case errors.Is(err, context.Canceled):
		j.settle(StateCancelled, nil, context.Canceled.Error())
	default:
		j.settle(StateFailed, nil, err.Error())
	}
	m.logf("job %s: %s in %v", j.ID, j.State(), elapsed.Round(time.Millisecond))
}

// maybeAudit re-executes every cfg.AuditEvery-th cache hit in the
// background and compares the fresh bytes to the stored entry. The
// re-execution builds its fabric afresh (Execute, not the fabric cache),
// so it stays a recomputation independent of anything a cache served. The
// check runs outside the bounded queue so user submissions are never
// displaced, but at most one audit runs at a time (later triggers are
// skipped and counted while one is active).
func (m *Manager) maybeAudit(hitNo uint64, hash string, sp Spec) {
	if m.cfg.AuditEvery <= 0 || m.st == nil || hitNo%uint64(m.cfg.AuditEvery) != 0 {
		return
	}
	m.mu.Lock()
	if m.auditActive {
		m.auditSkip++
		m.mu.Unlock()
		return
	}
	m.auditActive = true
	m.mu.Unlock()

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer func() {
			m.mu.Lock()
			m.auditActive = false
			m.mu.Unlock()
		}()
		res, err := Execute(m.ctx, sp, m.cfg.TrialWorkers, nil, nil)
		if err != nil {
			m.logf("audit %s: re-execution failed: %v", shortHash(hash), err)
			return
		}
		fresh, err := json.Marshal(res)
		if err != nil {
			return
		}
		e, ok := m.st.Get(hash)
		if !ok {
			return // evicted meanwhile
		}
		m.mu.Lock()
		m.audits++
		m.mu.Unlock()
		if string(fresh) != string(e.Result) {
			m.mu.Lock()
			m.auditBad++
			m.mu.Unlock()
			m.st.Invalidate(hash)
			m.logf("audit %s: MISMATCH — stored result differs from re-execution; entry invalidated", shortHash(hash))
			return
		}
		m.logf("audit %s: re-execution matches stored result", shortHash(hash))
	}()
}

// Drain stops accepting new jobs, waits for queued and running work (and
// any in-flight audit) to finish, flushes the store index, and returns.
// The context bounds the wait; on expiry running jobs are cancelled and
// waited for briefly.
func (m *Manager) Drain(ctx context.Context) error {
	m.drainM.Lock()
	if !m.drain {
		m.drain = true
		close(m.queue)
	}
	m.drainM.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		m.stop() // cancel running jobs
		<-finished
		err = ctx.Err()
	}
	m.stop()
	if m.st != nil {
		if cerr := m.st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Snapshot returns current metrics.
func (m *Manager) Snapshot() Metrics {
	// Lock order is j.mu → m.mu (settleLocked, Submit); collect the job
	// list under m.mu, then query states unlocked, to avoid inverting it.
	m.mu.Lock()
	live := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		live = append(live, j)
	}
	m.mu.Unlock()
	sort.Slice(live, func(a, b int) bool { return live[a].ID < live[b].ID })
	by := map[State]uint64{}
	for _, j := range live {
		switch j.State() {
		case StatePending:
			by[StatePending]++
		case StateRunning:
			by[StateRunning]++
		}
	}

	fabHits, fabMisses, fabEvictions := m.fabrics.counts()
	m.mu.Lock()
	defer m.mu.Unlock()
	for s, n := range m.terminals {
		by[s] = n
	}
	bkt := make([]uint64, len(m.latBkt))
	copy(bkt, m.latBkt)
	// Cumulative buckets, Prometheus style.
	for i := 1; i < len(bkt); i++ {
		bkt[i] += bkt[i-1]
	}
	return Metrics{
		QueueDepth:      len(m.queue),
		QueueCapacity:   m.cfg.QueueDepth,
		Submitted:       m.submitted,
		Deduped:         m.deduped,
		Rejected:        m.rejected,
		Shed:            m.shed,
		ByState:         by,
		CacheHits:       m.hits,
		CacheMisses:     m.misses,
		FabricHits:      fabHits,
		FabricMisses:    fabMisses,
		FabricEvictions: fabEvictions,
		Audits:          m.audits,
		AuditSkipped:    m.auditSkip,
		AuditMismatch:   m.auditBad,
		SimEvents:       m.simEvents,
		BusySeconds:     float64(m.busyNS) / 1e9,
		LatencyBoundsMS: LatencyBoundsMS,
		LatencyBuckets:  bkt,
		LatencyCount:    m.latCount,
		LatencySumMS:    m.latSumMS,
	}
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// --- Job methods ---

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the HTTP layer.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return Status{
		ID:        j.ID,
		Hash:      j.Hash,
		State:     j.state,
		Spec:      j.Spec,
		Done:      j.done,
		Total:     j.total,
		FromCache: j.fromCache,
		Error:     j.errMsg,
		ElapsedMS: end.Sub(j.created).Milliseconds(),
	}
}

// Result returns the committed result bytes of a done job.
func (j *Job) Result() (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// Terminal returns a channel closed when the job reaches a final state.
func (j *Job) Terminal() <-chan struct{} { return j.terminal }

// Subscribers returns the number of live event subscriptions — the
// observable the NDJSON disconnect tests hang on: a dead client's
// subscription must be released, not leak until the job settles.
func (j *Job) Subscribers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.subs)
}

// Subscribe registers an events channel. The returned cancel func must be
// called to release it. The current state is delivered immediately; the
// channel is closed once the job settles (after the final event).
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	id := j.nextSub
	j.nextSub++
	ch <- j.eventLocked() //lint:allow locks (ch is fresh with cap 16 and unshared until registration below: the send cannot block)
	if j.state.Terminal() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}
	}
	j.subs[id] = ch
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
		j.mu.Unlock()
	}
}

func (j *Job) eventLocked() Event {
	return Event{
		Job:       j.ID,
		Hash:      j.Hash,
		State:     j.state,
		Done:      j.done,
		Total:     j.total,
		FromCache: j.fromCache,
		Error:     j.errMsg,
	}
}

// publishLocked fans the current state out to subscribers; a slow
// subscriber loses intermediate progress events (its buffer bounds memory)
// but never the terminal event, which arrives via channel close + Status.
func (j *Job) publishLocked() {
	ev := j.eventLocked()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (j *Job) progress(done, total int) {
	j.mu.Lock()
	if done > j.done {
		j.done = done
	}
	j.total = total
	j.publishLocked()
	j.mu.Unlock()
}

func (j *Job) settle(st State, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	j.settleLocked(st, result, errMsg)
	j.mu.Unlock()
}

// settleLocked moves the job to a terminal state exactly once, delivers
// the final event, closes subscriber channels and releases the
// singleflight slot.
func (j *Job) settleLocked(st State, result json.RawMessage, errMsg string) {
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	if st == StateDone && j.total > j.done {
		j.done = j.total
	}
	// Release the singleflight slot before anyone can see the job settle,
	// so a spec resubmitted after its terminal event runs (or hits the
	// store) rather than joining this finished job.
	m := j.m
	m.mu.Lock()
	if m.inflight[j.Hash] == j {
		delete(m.inflight, j.Hash)
	}
	m.terminals[st]++
	m.mu.Unlock()

	ev := j.eventLocked()
	for id, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			// Buffer full of stale progress: drain one slot so the
			// terminal event always fits.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
		close(ch)
		delete(j.subs, id)
	}
	close(j.terminal)
}
