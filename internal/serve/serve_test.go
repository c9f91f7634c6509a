package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spineless/internal/jobs"
	"spineless/internal/store"
)

func testServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	return testServerLogging(t, cfg, nil)
}

// testServerLogging is testServer with logf handed to New.
func testServerLogging(t *testing.T, cfg jobs.Config, logf func(format string, args ...any)) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.New(st, cfg)
	ts := httptest.NewServer(New(m, logf))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return ts, m
}

const tinySpecJSON = `{"kind":"fct","topo":{"scale":8},"fabric":"rrg","scheme":"ecmp","tm":"A2A","util":0.2,"window_sec":0.002,"seed":1,"max_flows":40,"trials":2}`

func postSpec(t *testing.T, ts *httptest.Server, spec string) (int, SubmitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sr
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEndToEndSubmitStreamFetchResubmit is the serve-layer smoke: submit a
// spec, stream its events to the terminal state, fetch the result by hash,
// resubmit the identical spec and verify it is a cache hit whose result
// bytes are identical to the first run's.
func TestEndToEndSubmitStreamFetchResubmit(t *testing.T) {
	ts, _ := testServer(t, jobs.Config{QueueDepth: 4, Executors: 1, TrialWorkers: 1})

	code, sub := postSpec(t, ts, tinySpecJSON)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if sub.Cached {
		t.Fatal("first submit reported cached")
	}

	// Stream events until the job settles; the last line must be terminal.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var last jobs.Event
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no events streamed")
	}
	if !last.State.Terminal() {
		t.Fatalf("stream ended on non-terminal state %s", last.State)
	}
	if last.State != jobs.StateDone {
		t.Fatalf("job ended %s (error %q)", last.State, last.Error)
	}
	if last.Done != last.Total || last.Done == 0 {
		t.Fatalf("terminal progress %d/%d", last.Done, last.Total)
	}

	// Status agrees.
	code, body := get(t, ts.URL+"/v1/jobs/"+sub.Job)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone || st.Hash != sub.Hash {
		t.Fatalf("status %+v", st)
	}

	// Fetch the result by content hash.
	code, res1 := get(t, ts.URL+"/v1/results/"+sub.Hash)
	if code != http.StatusOK {
		t.Fatalf("result fetch: %d %s", code, res1)
	}
	var decoded jobs.Result
	if err := json.Unmarshal(res1, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.FCT == nil || decoded.FCT.Flows == 0 {
		t.Fatalf("degenerate result: %s", res1)
	}

	// Resubmit: must be a cache hit with byte-identical result.
	code, sub2 := postSpec(t, ts, tinySpecJSON)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d", code)
	}
	if !sub2.Cached {
		t.Fatal("resubmit missed the cache")
	}
	if sub2.Hash != sub.Hash {
		t.Fatalf("resubmit hash %s != %s", sub2.Hash, sub.Hash)
	}
	code, res2 := get(t, ts.URL+"/v1/results/"+sub2.Hash)
	if code != http.StatusOK {
		t.Fatalf("second result fetch: %d", code)
	}
	if !bytes.Equal(res1, res2) {
		t.Fatal("result bytes differ between first run and cache hit")
	}

	// A cached job's event stream still delivers a terminal event.
	code, body = get(t, ts.URL+"/v1/jobs/"+sub2.Job+"/events")
	if code != http.StatusOK {
		t.Fatalf("cached events: %d", code)
	}
	var ev jobs.Event
	if err := json.Unmarshal(bytes.TrimSpace(body), &ev); err != nil {
		t.Fatalf("cached events body %q: %v", body, err)
	}
	if ev.State != jobs.StateDone || !ev.FromCache {
		t.Fatalf("cached event %+v", ev)
	}

	// Metrics reflect the session: one miss, one hit.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"spinelessd_cache_hits_total 1",
		"spinelessd_cache_misses_total 1",
		"spinelessd_jobs_submitted_total 1",
		"spinelessd_job_latency_ms_count 1",
		"spinelessd_store_entries 1",
		`spinelessd_jobs{state="done"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(string(body), "spinelessd_sim_events_total") {
		t.Error("metrics missing sim event throughput")
	}
}

func TestSubmitErrors(t *testing.T) {
	ts, _ := testServer(t, jobs.Config{QueueDepth: 4, Executors: 1})

	code, _ := postSpec(t, ts, `{"kind":"warp"}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d", code)
	}
	code, _ = postSpec(t, ts, `{"kind":"fct","bogus":1}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	// A field the spec schema dropped is rejected like any unknown field,
	// and the error names it.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"fct","seed":1,"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"shards\"`) {
		t.Errorf("removed spec field: status %d, body %s", resp.StatusCode, body)
	}
	code, _ = postSpec(t, ts, `not json`)
	if code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", code)
	}
	// Scheme names are vetted at submit, before any fabric is built.
	for _, spec := range []string{
		`{"kind":"fct","scheme":"sux"}`,
		`{"kind":"fct","scheme":"su1"}`,
		`{"kind":"fct","fabric":"dring","scheme":"selfroute"}`,
	} {
		if code, _ := postSpec(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("%s: status %d", spec, code)
		}
	}

	if code, body := get(t, ts.URL+"/v1/jobs/j999999"); code != http.StatusNotFound {
		t.Errorf("missing job: %d %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/results/nothex"); code != http.StatusBadRequest {
		t.Errorf("malformed hash: %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/results/"+strings.Repeat("ab", 32)); code != http.StatusNotFound {
		t.Errorf("absent hash: %d", code)
	}
}

func TestQueueFullMapsTo503(t *testing.T) {
	// The server logs its 5xx answers, and only those, through logf.
	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	ts, m := testServerLogging(t, jobs.Config{QueueDepth: 1, Executors: 1}, logf)
	// Slow specs (many trials) so neither job finishes during the test.
	spec := func(seed int) string {
		s := strings.Replace(tinySpecJSON, `"trials":2`, `"trials":500`, 1)
		return strings.Replace(s, `"seed":1`, `"seed":1`+strings.Repeat("0", seed), 1)
	}
	// Fill the executor and the queue with distinct specs.
	code, sub1 := postSpec(t, ts, spec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", code)
	}
	// Wait for the executor to claim job 1 so the queue slot is free.
	j1, _ := m.Get(sub1.Job)
	deadline := time.Now().Add(10 * time.Second)
	for j1.State() == jobs.StatePending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	code, sub2 := postSpec(t, ts, spec(2))
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: %d", code)
	}
	// With one running and one queued, a third distinct spec must bounce.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	mu.Lock()
	if len(logged) != 1 || !strings.Contains(logged[0], "503") || !strings.Contains(logged[0], "POST /v1/jobs") {
		t.Errorf("logf got %q, want one line naming the 503 on POST /v1/jobs", logged)
	}
	mu.Unlock()
	// Cancel the slow jobs so cleanup's Drain returns promptly.
	m.Cancel(sub1.Job)
	m.Cancel(sub2.Job)
}

// TestShedMapsTo429 pins the admission-control status mapping: a submission
// past the shed watermark gets 429 + Retry-After while the queue-full 503
// path never fires (shedding precedes saturation).
func TestShedMapsTo429(t *testing.T) {
	ts, m := testServer(t, jobs.Config{QueueDepth: 8, ShedDepth: 1, Executors: 1})
	spec := func(n int) string {
		s := strings.Replace(tinySpecJSON, `"trials":2`, `"trials":500`, 1)
		return strings.Replace(s, `"seed":1`, `"seed":1`+strings.Repeat("0", n), 1)
	}
	code, sub1 := postSpec(t, ts, spec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", code)
	}
	j1, _ := m.Get(sub1.Job)
	deadline := time.Now().Add(10 * time.Second)
	for j1.State() == jobs.StatePending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	code, sub2 := postSpec(t, ts, spec(2))
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past watermark: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(string(body), "spinelessd_jobs_shed_total 1") {
		t.Error("metrics missing shed counter")
	}
	m.Cancel(sub1.Job)
	m.Cancel(sub2.Job)
}

// TestOverloadShedsBeforeSaturation floods the server with distinct specs
// and asserts the acceptance criterion: everything beyond the watermark is
// shed with 429 before the queue saturates (no 503s), and every admitted
// job still reaches done with bounded latency — no collapse.
func TestOverloadShedsBeforeSaturation(t *testing.T) {
	ts, m := testServer(t, jobs.Config{QueueDepth: 8, ShedDepth: 4, Executors: 1, TrialWorkers: 1})
	spec := func(seed int) string {
		// Slow enough (tens of ms) that the rapid flood below outpaces the
		// single executor and actually fills the queue to the watermark.
		s := strings.Replace(tinySpecJSON, `"max_flows":40`, `"max_flows":20`, 1)
		s = strings.Replace(s, `"trials":2`, `"trials":25`, 1)
		return strings.Replace(s, `"seed":1`, fmt.Sprintf(`"seed":%d`, 1000+seed), 1)
	}
	var accepted []string
	var sheds, fulls int
	for i := 0; i < 30; i++ {
		code, sub := postSpec(t, ts, spec(i))
		switch code {
		case http.StatusAccepted, http.StatusOK:
			accepted = append(accepted, sub.Job)
		case http.StatusTooManyRequests:
			sheds++
		case http.StatusServiceUnavailable:
			fulls++
		default:
			t.Fatalf("submit %d: unexpected status %d", i, code)
		}
	}
	if fulls != 0 {
		t.Fatalf("%d submissions hit the 503 queue-full wall; shedding must fire first", fulls)
	}
	if sheds == 0 {
		t.Fatal("no submissions shed under flood")
	}
	if len(accepted) == 0 {
		t.Fatal("every submission shed; watermark admits nothing")
	}
	// Every admitted job finishes, and none took pathologically long — the
	// "p99 stays bounded" half of the criterion at test scale.
	for _, id := range accepted {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("admitted job %s vanished", id)
		}
		select {
		case <-j.Terminal():
		case <-time.After(120 * time.Second):
			t.Fatalf("admitted job %s never settled", id)
		}
		st := j.Status()
		if st.State != jobs.StateDone {
			t.Fatalf("admitted job %s ended %s (%s)", id, st.State, st.Error)
		}
		if st.ElapsedMS > 60_000 {
			t.Fatalf("admitted job %s took %dms; latency collapsed", id, st.ElapsedMS)
		}
	}
	if snap := m.Snapshot(); snap.Rejected != 0 || snap.Shed == 0 {
		t.Fatalf("counters: rejected=%d shed=%d", snap.Rejected, snap.Shed)
	}
}

// TestHeartbeatAndDisconnectReleasesSubscription pins the stream-liveness
// satellite: heartbeat comment lines flow while a job runs, and a client
// that goes away releases its subscription promptly instead of leaking it
// until the job settles.
func TestHeartbeatAndDisconnectReleasesSubscription(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.New(st, jobs.Config{QueueDepth: 4, Executors: 1})
	srv := New(m, nil)
	srv.Heartbeat = 20 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Drain(ctx)
	})

	slow := strings.Replace(tinySpecJSON, `"trials":2`, `"trials":500`, 1)
	code, sub := postSpec(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	j, ok := m.Get(sub.Job)
	if !ok {
		t.Fatal("job vanished")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The subscription is live and heartbeats arrive between events.
	sawHeartbeat := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ":") {
			sawHeartbeat = true
			break
		}
		if line == "" {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
	}
	if !sawHeartbeat {
		t.Fatal("no heartbeat comment line observed")
	}
	if n := j.Subscribers(); n != 1 {
		t.Fatalf("subscribers while streaming = %d, want 1", n)
	}

	// Client goes away: the handler must notice (request context) and
	// release the subscription while the job is still running.
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for j.Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := j.Subscribers(); n != 0 {
		t.Fatalf("subscribers after disconnect = %d, want 0", n)
	}
	if j.State() != jobs.StateRunning && j.State() != jobs.StatePending {
		t.Fatalf("job settled prematurely: %s", j.State())
	}
	m.Cancel(sub.Job)
}

func TestCancelOverHTTP(t *testing.T) {
	ts, m := testServer(t, jobs.Config{QueueDepth: 4, Executors: 1})
	slow := strings.Replace(tinySpecJSON, `"trials":2`, `"trials":500`, 1)
	code, sub := postSpec(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	j, ok := m.Get(sub.Job)
	if !ok {
		t.Fatal("job vanished")
	}
	select {
	case <-j.Terminal():
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled job never settled")
	}
	if st := j.State(); st != jobs.StateCancelled {
		t.Fatalf("state after cancel: %s", st)
	}
	// Cancelling again conflicts.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %d", resp.StatusCode)
	}
}

// telemetrySpec is tinySpecJSON with live telemetry enabled and enough
// trials to stay running while the test observes the stream.
func telemetrySpec(trials int) string {
	s := strings.Replace(tinySpecJSON, `"trials":2`, fmt.Sprintf(`"trials":%d`, trials), 1)
	return strings.Replace(s, `{"kind":"fct"`, `{"kind":"fct","telemetry":true`, 1)
}

// TestTelemetryStreamAndHeatmap drives the digital-twin surface end to
// end: a telemetry-enabled job appears in /v1/telemetry frames with live
// traffic totals, its link-utilization window renders as CSV on
// /v1/telemetry/heatmap, and /metrics carries the per-job gauges.
func TestTelemetryStreamAndHeatmap(t *testing.T) {
	ts, m := testServer(t, jobs.Config{QueueDepth: 4, Executors: 1, TrialWorkers: 1})
	code, sub := postSpec(t, ts, telemetrySpec(500))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/telemetry?interval_ms=20")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("telemetry content type %q", ct)
	}
	var live TelemetryFrame
	deadline := time.Now().Add(60 * time.Second)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, ":") {
			continue
		}
		var fr TelemetryFrame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			t.Fatalf("bad telemetry line %q: %v", line, err)
		}
		if fr.Active != len(fr.Jobs) {
			t.Fatalf("frame active=%d with %d jobs", fr.Active, len(fr.Jobs))
		}
		if fr.Active >= 1 && fr.Jobs[0].Totals.TxBytes > 0 {
			live = fr
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no live telemetry frame before deadline")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if live.Jobs[0].Job != sub.Job {
		t.Fatalf("frame names job %q, submitted %q", live.Jobs[0].Job, sub.Job)
	}
	if live.Jobs[0].BucketNS <= 0 {
		t.Fatalf("frame without bucket geometry: %+v", live.Jobs[0])
	}
	if len(live.Jobs[0].TopLinks) == 0 || live.Jobs[0].TopLinks[0].MeanUtil <= 0 {
		t.Fatalf("no busy links in live frame: %+v", live.Jobs[0])
	}

	// The heatmap endpoint renders the same window as CSV. With a single
	// running job the job param is optional.
	code, body := get(t, ts.URL+"/v1/telemetry/heatmap")
	if code != http.StatusOK {
		t.Fatalf("heatmap: %d %s", code, body)
	}
	if !strings.HasPrefix(string(body), `link\t_us`) {
		t.Fatalf("heatmap CSV header: %q", string(body)[:min(40, len(body))])
	}
	if strings.Contains(string(body), "NaN") {
		t.Fatal("heatmap CSV leaks NaN cells")
	}
	if code, _ := get(t, ts.URL+"/v1/telemetry/heatmap?job=zzz"); code != http.StatusNotFound {
		t.Fatalf("heatmap for unknown job: %d", code)
	}

	// Per-job gauges surface on /metrics while the job runs.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"spinelessd_telemetry_streams 1",
		fmt.Sprintf("spinelessd_telemetry_tx_bytes{job=%q}", sub.Job),
		fmt.Sprintf("spinelessd_telemetry_drops{job=%q,reason=\"blackhole\"}", sub.Job),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A bounded one-frame poll (the smoke-mode shape) terminates by itself.
	code, body = get(t, ts.URL+"/v1/telemetry?frames=1")
	if code != http.StatusOK {
		t.Fatalf("one-frame poll: %d", code)
	}
	var fr TelemetryFrame
	if err := json.Unmarshal(bytes.TrimSpace(body), &fr); err != nil {
		t.Fatalf("one-frame body %q: %v", body, err)
	}

	m.Cancel(sub.Job)
}

// TestStreamsSurviveClientCloseMidHeartbeat is the satellite -race test:
// both NDJSON streams (job events and telemetry) have their client vanish
// while heartbeats/frames are in flight, and every handler must notice and
// exit promptly — the test server's Close blocks on leaked handlers, so a
// stuck stream fails the watchdog rather than leaking forever.
func TestStreamsSurviveClientCloseMidHeartbeat(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.New(st, jobs.Config{QueueDepth: 4, Executors: 1})
	srv := New(m, nil)
	srv.Heartbeat = 5 * time.Millisecond
	ts := httptest.NewServer(srv)

	code, sub := postSpec(t, ts, telemetrySpec(500))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	j, ok := m.Get(sub.Job)
	if !ok {
		t.Fatal("job vanished")
	}

	// Open both streams, read until each has written at least one
	// heartbeat/frame, then cancel the clients mid-stream.
	open := func(path string) (context.CancelFunc, *http.Response) {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return cancel, resp
	}
	cancelEv, respEv := open("/v1/jobs/" + sub.Job + "/events")
	defer respEv.Body.Close()
	cancelTel, respTel := open("/v1/telemetry?interval_ms=5")
	defer respTel.Body.Close()

	buf := make([]byte, 256)
	if _, err := respEv.Body.Read(buf); err != nil {
		t.Fatalf("events stream dead on arrival: %v", err)
	}
	if _, err := respTel.Body.Read(buf); err != nil {
		t.Fatalf("telemetry stream dead on arrival: %v", err)
	}

	// Let heartbeats tick, then yank both clients between beats.
	time.Sleep(12 * time.Millisecond)
	cancelEv()
	cancelTel()

	deadline := time.Now().Add(10 * time.Second)
	for j.Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := j.Subscribers(); n != 0 {
		t.Fatalf("events subscription leaked after disconnect: %d", n)
	}

	m.Cancel(sub.Job)
	// Watchdog: Close blocks until every handler returns. A leaked stream
	// handler turns into a visible failure here instead of a hung test.
	closed := make(chan struct{})
	go func() {
		ts.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("server close timed out: a streaming handler leaked")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
