// Package serve is spinelessd's HTTP surface: a small, stdlib-only JSON
// API over internal/jobs for submitting experiment specs, watching their
// progress as an NDJSON event stream, fetching content-addressed results,
// and scraping operational metrics in Prometheus text format.
//
//	POST   /v1/jobs               submit a spec (200 cached / 202 accepted)
//	GET    /v1/jobs/{id}          job status
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/jobs/{id}/events   NDJSON progress stream until terminal
//	GET    /v1/results/{hash}     raw result JSON from the store
//	GET    /v1/telemetry          NDJSON live-telemetry frames (digital twin)
//	GET    /v1/telemetry/heatmap  link-utilization heatmap as CSV
//	GET    /metrics               text metrics
//	GET    /healthz               liveness probe
//
// Overload maps to HTTP status: admission-control shedding (the manager's
// queue-depth/in-flight watermarks) is 429 + Retry-After, a saturated queue
// is 503 + Retry-After. Clients should treat both as backoff signals; 429
// is the polite early one.
//
// The event stream is NDJSON with one extension: lines beginning with ':'
// are heartbeat comments, sent periodically so proxies keep idle streams
// open and so the server notices dead clients by write error and releases
// their subscription. Clients must skip blank and ':' lines. Under load the
// stream degrades gracefully — buffered progress events are coalesced to
// the newest — but the terminal event is always delivered.
//
// The package-scope determinism exemption covers operational telemetry
// only (request timing and metrics formatting); no simulation state passes
// through this package — results are opaque bytes from the store.
//
//lint:allowpkg determinism
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"spineless/internal/jobs"
	"spineless/internal/store"
	"spineless/internal/telemetry"
)

// maxSpecBytes bounds a POST /v1/jobs body; specs are small.
const maxSpecBytes = 1 << 20

// DefaultHeartbeat is the event-stream heartbeat period when the Server's
// Heartbeat field is left zero.
const DefaultHeartbeat = 15 * time.Second

// Server routes HTTP requests to a jobs.Manager.
type Server struct {
	// Heartbeat is the NDJSON event-stream heartbeat period (0 =
	// DefaultHeartbeat). Tests and the -smoke self-check shrink it.
	Heartbeat time.Duration

	m    *jobs.Manager
	mux  *http.ServeMux
	logf func(format string, args ...any)
}

// SubmitResponse is the POST /v1/jobs body.
type SubmitResponse struct {
	Job    string      `json:"job"`
	Hash   string      `json:"hash"`
	Cached bool        `json:"cached"`
	Status jobs.Status `json:"status"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// New builds a Server over m. logf may be nil.
func New(m *jobs.Manager, logf func(format string, args ...any)) *Server {
	s := &Server{m: m, logf: logf}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("GET /v1/results/{hash}", s.result)
	mux.HandleFunc("GET /v1/telemetry", s.telemetry)
	mux.HandleFunc("GET /v1/telemetry/heatmap", s.heatmap)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // response writer errors are the client's problem
}

// writeError answers r with code and a JSON error body. A status of 500
// or above is the server's failure rather than the client's, so it is
// also logged through logf when New was given one.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if code >= http.StatusInternalServerError && s.logf != nil {
		s.logf("serve: %s %s: %d %s", r.Method, r.URL.Path, code, msg)
	}
	writeJSON(w, code, errorResponse{Error: msg})
}

// submit decodes a spec and hands it to the manager. Cache hits return 200
// with the terminal status; fresh submissions return 202 Accepted. A full
// queue maps to 503 + Retry-After so clients back off instead of piling on.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	var sp jobs.Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	j, cached, err := s.m.Submit(sp)
	switch {
	case err == jobs.ErrOverloaded:
		// Shed by admission control: the queue still has headroom, so this
		// is the polite 429 clients should back off on.
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusTooManyRequests, "%v", err)
		return
	case err == jobs.ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusServiceUnavailable, "%v", err)
		return
	case err == jobs.ErrDraining:
		s.writeError(w, r, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if cached {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{Job: j.ID, Hash: j.Hash, Cached: cached, Status: j.Status()})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !s.m.Cancel(j.ID) {
		s.writeError(w, r, http.StatusConflict, "job %s already %s", j.ID, j.State())
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// ndjson owns the wire framing shared by every streaming endpoint
// (/v1/jobs/{id}/events, /v1/telemetry): NDJSON headers, one JSON document
// per line, ':'-prefixed heartbeat comments, and a flush after every line
// so frames cross proxies promptly. Every write happens on the single
// handler goroutine that created it — that serialization is what makes the
// heartbeat ticker safe against the terminal event and the subscription
// close (the satellite audit of these paths found the framing correct
// exactly because nothing here is ever shared across goroutines; keeping
// both streams on this one helper keeps it that way).
type ndjson struct {
	w  http.ResponseWriter
	fl http.Flusher
	e  *json.Encoder
}

// startNDJSON writes the streaming headers and returns the framing writer.
func startNDJSON(w http.ResponseWriter) *ndjson {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	return &ndjson{w: w, fl: fl, e: json.NewEncoder(w)}
}

func (n *ndjson) flush() {
	if n.fl != nil {
		n.fl.Flush()
	}
}

// send encodes one event line. A write error means the client is gone; the
// caller must return and release its resources.
func (n *ndjson) send(v any) error {
	if err := n.e.Encode(v); err != nil {
		return err
	}
	n.flush()
	return nil
}

// heartbeat writes one comment line. Same error contract as send.
func (n *ndjson) heartbeat() error {
	if _, err := io.WriteString(n.w, ": hb\n"); err != nil {
		return err
	}
	n.flush()
	return nil
}

// heartbeatPeriod resolves the configured heartbeat.
func (s *Server) heartbeatPeriod() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	return DefaultHeartbeat
}

// events streams the job's lifecycle as NDJSON: one event per line, the
// current state first, closing after the terminal event (or when the
// client goes away — the request context and heartbeat write errors both
// release the subscription, so dead clients never pin a job's subscriber
// slot). Between events a periodic ':'-prefixed heartbeat comment line is
// written. Progress events that pile up behind a slow reader are coalesced
// to the newest (graceful degradation: granularity drops, the terminal
// event never does).
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	stream := startNDJSON(w)
	ticker := time.NewTicker(s.heartbeatPeriod())
	defer ticker.Stop()

	ch, stop := j.Subscribe()
	defer stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			// Coalesce whatever already sits in the buffer down to the
			// newest event. If the channel closes mid-drain the last event
			// received is the terminal one: encode it, then exit.
		drain:
			for {
				select {
				case next, more := <-ch:
					if !more {
						open = false
						break drain
					}
					ev = next
				default:
					break drain
				}
			}
			if err := stream.send(ev); err != nil {
				return
			}
			if !open {
				return
			}
		case <-ticker.C:
			if err := stream.heartbeat(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// TelemetryFrame is one NDJSON line on /v1/telemetry: a point-in-time view
// of every telemetry-enabled job in flight. Frames double as liveness —
// one is sent every interval even when nothing is running — so the server
// notices dead clients by write error, exactly like the events heartbeat.
type TelemetryFrame struct {
	Active int            `json:"active"`
	Jobs   []TelemetryJob `json:"jobs,omitempty"`
}

// TelemetryJob digests one job's live telemetry window.
type TelemetryJob struct {
	Job      string           `json:"job"`
	BucketNS int64            `json:"bucket_ns"`
	Buckets  int              `json:"buckets"`
	Mixed    bool             `json:"mixed,omitempty"`
	Totals   telemetry.Totals `json:"totals"`
	TopLinks []TelemetryLink  `json:"top_links,omitempty"`
}

// TelemetryLink is one busy link's utilization over the retained window.
type TelemetryLink struct {
	Link     int     `json:"link"`
	MeanUtil float64 `json:"mean_util"`
	PeakUtil float64 `json:"peak_util"`
}

// topLinkFrames digests the n busiest links of a snapshot.
func topLinkFrames(sn *telemetry.Snapshot, n int) []TelemetryLink {
	var out []TelemetryLink
	for _, l := range sn.TopLinks(n) {
		u := sn.Utilization(l)
		if u == nil {
			break
		}
		var sum, peak float64
		for _, v := range u {
			sum += v
			if v > peak {
				peak = v
			}
		}
		out = append(out, TelemetryLink{Link: l, MeanUtil: sum / float64(len(u)), PeakUtil: peak})
	}
	return out
}

// telemetry streams the manager's live telemetry hub as NDJSON frames, one
// frame per interval (?interval_ms, default 1000), until the client goes
// away or ?frames=N frames have been sent (0 = unbounded). Each frame
// digests every telemetry-enabled running job: lifetime totals plus the
// busiest links' utilization over the retained window.
func (s *Server) telemetry(w http.ResponseWriter, r *http.Request) {
	interval := time.Second
	if ms := r.URL.Query().Get("interval_ms"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil || v <= 0 {
			s.writeError(w, r, http.StatusBadRequest, "bad interval_ms %q", ms)
			return
		}
		if v < 10 {
			v = 10
		}
		interval = time.Duration(v) * time.Millisecond
	}
	maxFrames := 0
	if fs := r.URL.Query().Get("frames"); fs != "" {
		v, err := strconv.Atoi(fs)
		if err != nil || v < 0 {
			s.writeError(w, r, http.StatusBadRequest, "bad frames %q", fs)
			return
		}
		maxFrames = v
	}

	stream := startNDJSON(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sent := 0
	for {
		frame := TelemetryFrame{}
		for _, e := range s.m.Hub().Snapshot() {
			frame.Jobs = append(frame.Jobs, TelemetryJob{
				Job:      e.ID,
				BucketNS: e.Snap.BucketNS,
				Buckets:  e.Snap.Buckets(),
				Mixed:    e.Snap.Mixed,
				Totals:   e.Snap.Totals,
				TopLinks: topLinkFrames(e.Snap, 5),
			})
		}
		frame.Active = len(frame.Jobs)
		if err := stream.send(frame); err != nil {
			return
		}
		sent++
		if maxFrames > 0 && sent >= maxFrames {
			return
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

// heatmap renders one running job's link-utilization window as CSV
// (metrics.Heatmap, Y = link id, X = bucket start in µs). ?job selects the
// job; with exactly one telemetry-enabled job running it may be omitted.
// ?links bounds the busiest-links row count (default 16).
func (s *Server) heatmap(w http.ResponseWriter, r *http.Request) {
	maxLinks := 16
	if ls := r.URL.Query().Get("links"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v <= 0 {
			s.writeError(w, r, http.StatusBadRequest, "bad links %q", ls)
			return
		}
		maxLinks = v
	}
	id := r.URL.Query().Get("job")
	var rec *telemetry.Recorder
	if id == "" {
		entries := s.m.Hub().Snapshot()
		if len(entries) != 1 {
			s.writeError(w, r, http.StatusNotFound, "%d telemetry-enabled jobs running; pass ?job=", len(entries))
			return
		}
		id = entries[0].ID
	}
	rec = s.m.Hub().Get(id)
	if rec == nil {
		s.writeError(w, r, http.StatusNotFound, "no live telemetry for job %q", id)
		return
	}
	sn := rec.Snapshot()
	if sn.Mixed {
		s.writeError(w, r, http.StatusConflict, "job %q merged mixed fabric shapes; no per-link series", id)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, sn.UtilHeatmap("link utilization "+id, maxLinks).CSV())
}

// result serves the raw result document for a content hash, straight from
// the store. The bytes are exactly what the producing job committed, so
// repeated fetches of the same hash are byte-identical.
func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !store.ValidKey(hash) {
		s.writeError(w, r, http.StatusBadRequest, "malformed hash %q", hash)
		return
	}
	st := s.m.Store()
	if st == nil {
		s.writeError(w, r, http.StatusNotFound, "no result store configured")
		return
	}
	e, ok := st.Get(hash)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no result for %s", hash)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.Result)
}

// metrics renders manager and store counters in Prometheus text format.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	snap := s.m.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	gauge("spinelessd_queue_depth", "Jobs waiting in the bounded queue.", float64(snap.QueueDepth))
	gauge("spinelessd_queue_capacity", "Capacity of the bounded queue.", float64(snap.QueueCapacity))
	counter("spinelessd_jobs_submitted_total", "Jobs accepted onto the queue.", float64(snap.Submitted))
	counter("spinelessd_jobs_deduped_total", "Submissions coalesced onto an in-flight identical spec.", float64(snap.Deduped))
	counter("spinelessd_jobs_rejected_total", "Submissions rejected because the queue was full.", float64(snap.Rejected))
	counter("spinelessd_jobs_shed_total", "Submissions shed by admission control before queue saturation.", float64(snap.Shed))

	states := make([]string, 0, len(snap.ByState))
	for st := range snap.ByState {
		states = append(states, string(st))
	}
	sort.Strings(states)
	fmt.Fprintf(w, "# HELP spinelessd_jobs Jobs by lifecycle state.\n# TYPE spinelessd_jobs gauge\n")
	for _, st := range states {
		fmt.Fprintf(w, "spinelessd_jobs{state=%q} %d\n", st, snap.ByState[jobs.State(st)])
	}

	counter("spinelessd_cache_hits_total", "Submissions served from the result store.", float64(snap.CacheHits))
	counter("spinelessd_cache_misses_total", "Submissions that had to run.", float64(snap.CacheMisses))
	counter("spinelessd_audit_runs_total", "Sampled cache-hit re-executions completed.", float64(snap.Audits))
	counter("spinelessd_audit_skipped_total", "Audits skipped because one was already running.", float64(snap.AuditSkipped))
	counter("spinelessd_audit_mismatch_total", "Audits whose re-execution differed from the stored result.", float64(snap.AuditMismatch))
	counter("spinelessd_sim_events_total", "Packet-simulator events processed by completed jobs.", float64(snap.SimEvents))
	counter("spinelessd_busy_seconds_total", "Wall-clock seconds executors spent running jobs.", snap.BusySeconds)

	fmt.Fprintf(w, "# HELP spinelessd_job_latency_ms Job run latency in milliseconds.\n# TYPE spinelessd_job_latency_ms histogram\n")
	for i, b := range snap.LatencyBoundsMS {
		fmt.Fprintf(w, "spinelessd_job_latency_ms_bucket{le=\"%g\"} %d\n", b, snap.LatencyBuckets[i])
	}
	fmt.Fprintf(w, "spinelessd_job_latency_ms_bucket{le=\"+Inf\"} %d\n", snap.LatencyBuckets[len(snap.LatencyBuckets)-1])
	fmt.Fprintf(w, "spinelessd_job_latency_ms_sum %g\n", snap.LatencySumMS)
	fmt.Fprintf(w, "spinelessd_job_latency_ms_count %d\n", snap.LatencyCount)

	// Live telemetry: one gauge set per telemetry-enabled running job.
	// These are gauges, not counters — entries leave the hub when their job
	// settles, so the series reflect the running fabric twin, not history.
	entries := s.m.Hub().Snapshot()
	gauge("spinelessd_telemetry_streams", "Telemetry-enabled jobs currently running.", float64(len(entries)))
	if len(entries) > 0 {
		fmt.Fprintf(w, "# HELP spinelessd_telemetry_tx_bytes Wire bytes transmitted so far by a running job's simulation.\n# TYPE spinelessd_telemetry_tx_bytes gauge\n")
		for _, e := range entries {
			fmt.Fprintf(w, "spinelessd_telemetry_tx_bytes{job=%q} %d\n", e.ID, e.Snap.Totals.TxBytes)
		}
		fmt.Fprintf(w, "# HELP spinelessd_telemetry_drops Packet drops so far by reason for a running job's simulation.\n# TYPE spinelessd_telemetry_drops gauge\n")
		for _, e := range entries {
			d := e.Snap.Totals.Drops()
			for reason, name := range [...]string{"queue", "gray", "blackhole"} {
				fmt.Fprintf(w, "spinelessd_telemetry_drops{job=%q,reason=%q} %d\n", e.ID, name, d[reason])
			}
		}
		fmt.Fprintf(w, "# HELP spinelessd_telemetry_links_down Links currently down in a running job's fabric.\n# TYPE spinelessd_telemetry_links_down gauge\n")
		for _, e := range entries {
			fmt.Fprintf(w, "spinelessd_telemetry_links_down{job=%q} %d\n", e.ID, e.Snap.Totals.LinksDown)
		}
	}

	if st := s.m.Store(); st != nil {
		c := st.Snapshot()
		counter("spinelessd_store_hits_total", "Result-store lookups that found a valid entry.", float64(c.Hits))
		counter("spinelessd_store_misses_total", "Result-store lookups that missed.", float64(c.Misses))
		counter("spinelessd_store_puts_total", "Entries committed to the result store.", float64(c.Puts))
		counter("spinelessd_store_evictions_total", "Entries evicted to respect the size cap.", float64(c.Evictions))
		counter("spinelessd_store_corrupt_total", "Entries dropped as torn or tampered.", float64(c.Corrupt))
		gauge("spinelessd_store_entries", "Entries currently in the result store.", float64(c.Entries))
		gauge("spinelessd_store_bytes", "Bytes currently in the result store.", float64(c.Bytes))
	}
}
