package suvd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"suvtm/internal/experiments"
)

// instantRunner completes every spec immediately with empty outcomes.
func instantRunner(ctx context.Context, specs []experiments.Spec, opts experiments.BatchOptions) ([]*experiments.Outcome, error) {
	return make([]*experiments.Outcome, len(specs)), nil
}

// blockingRunner parks every attempt until release is closed, signaling
// each arrival on started (buffered, non-blocking).
type blockingRunner struct {
	started chan string
	release chan struct{}
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, specs []experiments.Spec, opts experiments.BatchOptions) ([]*experiments.Outcome, error) {
	select {
	case b.started <- "":
	default:
	}
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return make([]*experiments.Outcome, len(specs)), nil
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Sleep == nil {
		cfg.Sleep = func(time.Duration) {} // no real backoff sleeps in tests
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submit(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func jobBody(client string, seeds ...uint64) string {
	runs := make([]string, len(seeds))
	for i, seed := range seeds {
		runs[i] = fmt.Sprintf(`{"app":"intruder","scheme":"SUV-TM","cores":2,"seed":%d,"scale":0.02}`, seed)
	}
	return fmt.Sprintf(`{"client":%q,"runs":[%s]}`, client, strings.Join(runs, ","))
}

func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("server never went idle: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: instantRunner, MaxRuns: 2})
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"no runs", `{"client":"c","runs":[]}`},
		{"unknown app", `{"runs":[{"app":"nope","scheme":"SUV-TM"}]}`},
		{"unknown scheme", `{"runs":[{"app":"intruder","scheme":"nope"}]}`},
		{"negative scale", `{"runs":[{"app":"intruder","scheme":"SUV-TM","scale":-1}]}`},
		{"too many runs", jobBody("c", 1, 2, 3)},
	}
	for _, tc := range cases {
		if rec := submit(t, h, tc.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, rec.Code, rec.Body)
		}
	}
	if got := s.counters.accepted.Load(); got != 0 {
		t.Errorf("accepted %d invalid jobs", got)
	}
}

// TestBackpressureQueueFull pins the 429 path: a full bounded queue
// rejects with Retry-After instead of queueing unboundedly, and every
// accepted job still completes once capacity frees.
func TestBackpressureQueueFull(t *testing.T) {
	br := newBlockingRunner()
	s := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 2, PerClientCap: 64,
		// High EscalateAfter keeps the shed ladder out of this test.
		EscalateAfter: 1000,
		Runner:        br.run,
	})
	h := s.Handler()

	// One job occupies the worker...
	if rec := submit(t, h, jobBody("a", 1)); rec.Code != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", rec.Code, rec.Body)
	}
	<-br.started
	// ...two fill the queue...
	for i := uint64(2); i <= 3; i++ {
		if rec := submit(t, h, jobBody("a", i)); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	// ...and the next is backpressured.
	rec := submit(t, h, jobBody("a", 4))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without a useful Retry-After (%q)", ra)
	}
	var eb errorBody
	json.Unmarshal(rec.Body.Bytes(), &eb)
	if eb.RetryAfter < 1 {
		t.Errorf("429 body retry_after = %d, want >= 1", eb.RetryAfter)
	}
	if got := s.counters.rejectedQueue.Load(); got != 1 {
		t.Errorf("rejectedQueue = %d, want 1", got)
	}

	close(br.release)
	waitIdle(t, s)
	if snap := s.Snapshot(); snap.Completed != 3 || snap.Completed != snap.Accepted {
		t.Errorf("accepted %d, completed %d — accepted jobs were dropped", snap.Accepted, snap.Completed)
	}
}

// TestBackpressurePerClientCap pins tenant isolation: one client at its
// cap gets 429 while another client is still admitted.
func TestBackpressurePerClientCap(t *testing.T) {
	br := newBlockingRunner()
	s := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 64, PerClientCap: 2,
		EscalateAfter: 1000,
		Runner:        br.run,
	})
	h := s.Handler()
	for i := uint64(1); i <= 2; i++ {
		if rec := submit(t, h, jobBody("tenant-a", i)); rec.Code != http.StatusAccepted {
			t.Fatalf("tenant-a submit %d: %d", i, rec.Code)
		}
	}
	if rec := submit(t, h, jobBody("tenant-a", 3)); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant-a over cap: %d, want 429", rec.Code)
	}
	if rec := submit(t, h, jobBody("tenant-b", 3)); rec.Code != http.StatusAccepted {
		t.Fatalf("tenant-b blocked by tenant-a's cap: %d", rec.Code)
	}
	if got := s.counters.rejectedClient.Load(); got != 1 {
		t.Errorf("rejectedClient = %d, want 1", got)
	}
	close(br.release)
	waitIdle(t, s)
}

// TestRetryLadderDeadLetter: a job whose every attempt fails with a
// retryable transient burns its attempt budget through jittered backoff
// and lands on the dead-letter list — visible, not silently dropped.
func TestRetryLadderDeadLetter(t *testing.T) {
	var mu sync.Mutex
	var sleeps []time.Duration
	s := newTestServer(t, Config{
		Workers: 1, MaxAttempts: 3,
		RetryBase: time.Millisecond, RetryCap: time.Second, RetrySeed: 7,
		Runner: instantRunner,
		Faults: &Faults{ErrorEvery: 1},
		Sleep: func(d time.Duration) {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
		},
	})
	h := s.Handler()
	rec := submit(t, h, jobBody("c", 1))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	var resp struct{ ID string }
	json.Unmarshal(rec.Body.Bytes(), &resp)
	waitIdle(t, s)

	st := get(t, h, "/v1/jobs/"+resp.ID)
	var js JobStatus
	json.Unmarshal(st.Body.Bytes(), &js)
	if js.State != "deadletter" || js.Attempts != 3 {
		t.Fatalf("job = %+v, want deadletter after 3 attempts", js)
	}
	if !strings.Contains(js.Error, "injected transient") {
		t.Errorf("dead-letter lost its cause: %q", js.Error)
	}
	if got := s.counters.retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(sleeps) != 2 {
		t.Fatalf("backoff sleeps = %v, want 2", sleeps)
	}
	// base 1ms: attempt 1 backs off in [1ms, 1.5ms], attempt 2 in
	// [2ms, 3ms] — exponential with bounded jitter.
	if sleeps[0] < time.Millisecond || sleeps[0] > 3*time.Millisecond/2 {
		t.Errorf("first backoff %v outside [1ms, 1.5ms]", sleeps[0])
	}
	if sleeps[1] < 2*time.Millisecond || sleeps[1] > 3*time.Millisecond {
		t.Errorf("second backoff %v outside [2ms, 3ms]", sleeps[1])
	}

	dl := get(t, h, "/v1/deadletters")
	var list []JobStatus
	json.Unmarshal(dl.Body.Bytes(), &list)
	if len(list) != 1 || list[0].ID != resp.ID {
		t.Errorf("deadletters = %+v, want [%s]", list, resp.ID)
	}
}

// TestWorkerPanicRecovered: an injected worker panic (the "dropped
// worker") is contained by the attempt's recover(), converted into a
// retryable error, and the job completes on the next attempt.
func TestWorkerPanicRecovered(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxAttempts: 3, RetryBase: time.Microsecond,
		Runner: instantRunner,
		Faults: &Faults{PanicEvery: 2}, // attempt #2 of the process panics
	})
	h := s.Handler()
	r1 := submit(t, h, jobBody("c", 1)) // attempt 1: clean
	r2 := submit(t, h, jobBody("c", 2)) // attempt 2 panics, attempt 3 retries clean
	if r1.Code != http.StatusAccepted || r2.Code != http.StatusAccepted {
		t.Fatalf("submits: %d, %d", r1.Code, r2.Code)
	}
	waitIdle(t, s)
	snap := s.Snapshot()
	if snap.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (panic not recovered?)", snap.Completed)
	}
	if snap.Panics != 1 || snap.Retries != 1 {
		t.Errorf("panics = %d, retries = %d, want 1, 1", snap.Panics, snap.Retries)
	}
	var resp struct{ ID string }
	json.Unmarshal(r2.Body.Bytes(), &resp)
	var js JobStatus
	json.Unmarshal(get(t, h, "/v1/jobs/"+resp.ID).Body.Bytes(), &js)
	if js.State != "completed" || js.Attempts != 2 {
		t.Errorf("panicked job = %+v, want completed on attempt 2", js)
	}
}

// TestJobDeadline: a job over its deadline fails without retry (the
// budget is spent) with a typed deadline error.
func TestJobDeadline(t *testing.T) {
	br := newBlockingRunner() // never released: only ctx ends it
	s := newTestServer(t, Config{
		Workers: 1, JobTimeout: 5 * time.Millisecond, MaxAttempts: 3,
		Runner: br.run,
	})
	h := s.Handler()
	rec := submit(t, h, jobBody("c", 1))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	var resp struct{ ID string }
	json.Unmarshal(rec.Body.Bytes(), &resp)
	waitIdle(t, s)
	var js JobStatus
	json.Unmarshal(get(t, h, "/v1/jobs/"+resp.ID).Body.Bytes(), &js)
	if js.State != "failed" || js.Attempts != 1 {
		t.Fatalf("timed-out job = %+v, want failed on attempt 1", js)
	}
	if !strings.Contains(js.Error, "deadline") {
		t.Errorf("error %q does not name the deadline", js.Error)
	}
}

// TestShedLadderUnderPressure drives the full degradation round trip at
// the HTTP surface: sustained full-queue admissions escalate to
// shed-uncached (503 for uncached work), sustained relief steps back to
// normal — every transition visible on /healthz.
func TestShedLadderUnderPressure(t *testing.T) {
	br := newBlockingRunner()
	s := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 2, PerClientCap: 64, EscalateAfter: 2,
		Runner: br.run,
	})
	h := s.Handler()
	// Saturate: one running (wait for the worker to take it, so the
	// queue count is deterministic), two queued.
	if rec := submit(t, h, jobBody("a", 1)); rec.Code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", rec.Code)
	}
	<-br.started
	for i := uint64(2); i <= 3; i++ {
		if rec := submit(t, h, jobBody("a", i)); rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, rec.Code)
		}
	}
	// First full-queue observation: still normal, backpressured 429.
	if rec := submit(t, h, jobBody("a", 4)); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit 4: %d, want 429", rec.Code)
	}
	// Second consecutive observation escalates to shed-uncached, and the
	// triggering request is itself shed with 503.
	if rec := submit(t, h, jobBody("a", 5)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("full-queue submit 5: %d, want 503 (ladder escalated)", rec.Code)
	}
	if st := s.State(); st != ShedUncached {
		t.Fatalf("state after sustained pressure = %v, want shed-uncached", st)
	}
	// Degraded: uncached work is shed with 503 even though readiness
	// holds (cached work would still be served).
	rec := submit(t, h, jobBody("a", 6))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("uncached submit in degraded mode: %d, want 503", rec.Code)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("readyz in degraded mode: %d, want 200 (still serving cached)", rec.Code)
	}

	close(br.release)
	waitIdle(t, s)
	// Relief: queue empty. The first shed observation builds relief
	// pressure (still 503); the second steps the ladder down and admits.
	if rec := submit(t, h, jobBody("a", 7)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("first relief submit: %d, want 503 (still degraded)", rec.Code)
	}
	if rec := submit(t, h, jobBody("a", 8)); rec.Code != http.StatusAccepted {
		t.Fatalf("second relief submit: %d, want 202 (recovered)", rec.Code)
	}
	if st := s.State(); st != Normal {
		t.Errorf("state after relief = %v, want normal", st)
	}
	var stats Stats
	json.Unmarshal(get(t, h, "/healthz").Body.Bytes(), &stats)
	if len(stats.Transitions) != 2 {
		t.Fatalf("transitions = %+v, want up + down", stats.Transitions)
	}
	if stats.Transitions[0].To != "shed-uncached" || stats.Transitions[1].To != "normal" {
		t.Errorf("transition history wrong: %+v", stats.Transitions)
	}
	waitIdle(t, s)
}

// TestDrainAbandonsQueueToJournal is the SIGTERM path: draining rejects
// new work with 503, finishes the in-flight job, leaves queued jobs to
// the journal, and a next-generation server replays exactly those.
func TestDrainAbandonsQueueToJournal(t *testing.T) {
	path := journalPath(t)
	br := newBlockingRunner()
	s := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 8, Journal: path,
		EscalateAfter: 1000,
		Runner:        br.run,
		DrainTimeout:  5 * time.Second,
	})
	h := s.Handler()
	ids := make([]string, 0, 3)
	for i := uint64(1); i <= 3; i++ {
		rec := submit(t, h, jobBody("a", i))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, rec.Code)
		}
		var resp struct{ ID string }
		json.Unmarshal(rec.Body.Bytes(), &resp)
		ids = append(ids, resp.ID)
	}
	<-br.started // job 1 in flight, jobs 2 and 3 queued

	s.BeginDrain()
	if rec := submit(t, h, jobBody("a", 9)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", rec.Code)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", rec.Code)
	}
	close(br.release) // let the in-flight job finish
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var js JobStatus
	json.Unmarshal(get(t, h, "/v1/jobs/"+ids[0]).Body.Bytes(), &js)
	if js.State != "completed" {
		t.Errorf("in-flight job %s = %s, want completed (drain must not kill it)", ids[0], js.State)
	}

	// Next generation: the journal hands back exactly the abandoned jobs.
	s2 := newTestServer(t, Config{Workers: 1, Journal: path, Runner: instantRunner})
	waitIdle(t, s2)
	snap := s2.Snapshot()
	if snap.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2 (the queued jobs)", snap.Replayed)
	}
	if snap.Completed != 2 {
		t.Fatalf("completed = %d, want 2 — an accepted job was dropped", snap.Completed)
	}
	for _, id := range ids[1:] {
		var js JobStatus
		json.Unmarshal(get(t, s2.Handler(), "/v1/jobs/"+id).Body.Bytes(), &js)
		if js.State != "completed" {
			t.Errorf("replayed job %s = %s, want completed", id, js.State)
		}
	}
}

// TestStreamNDJSON covers the streaming surface end to end over a real
// connection: initial status, FleetProgress rollups, terminal line.
func TestStreamNDJSON(t *testing.T) {
	progressed := make(chan struct{})
	release := make(chan struct{})
	s := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, specs []experiments.Spec, opts experiments.BatchOptions) ([]*experiments.Outcome, error) {
			opts.OnProgress(experiments.FleetProgress{Done: 1, Total: len(specs)})
			close(progressed)
			<-release
			opts.OnProgress(experiments.FleetProgress{Done: len(specs), Total: len(specs)})
			return make([]*experiments.Outcome, len(specs)), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := strings.NewReader(jobBody("c", 1, 2))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ ID string }
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	<-progressed

	stream, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	dec := json.NewDecoder(stream.Body)
	var first streamMsg
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.JobID != sub.ID || first.Progress == nil || first.Progress.Done != 1 {
		t.Fatalf("first stream line = %+v, want running with progress 1/2", first)
	}
	close(release)
	var last streamMsg
	for {
		var msg streamMsg
		if err := dec.Decode(&msg); err != nil {
			t.Fatalf("stream ended before terminal line: %v (last %+v)", err, last)
		}
		last = msg
		if msg.Final {
			break
		}
	}
	if last.State != "completed" {
		t.Errorf("terminal stream line = %+v, want completed", last)
	}
}

// TestMetricsExposition: /metrics serves the daemon counters, queue
// gauges and latency histograms in Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: instantRunner})
	h := s.Handler()
	submit(t, h, jobBody("c", 1))
	waitIdle(t, s)
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`suv_suvd_jobs_accepted{service="suvd"} 1`,
		`suv_suvd_jobs_completed{service="suvd"} 1`,
		"# TYPE suv_suvd_queue_depth gauge",
		"# TYPE suv_suvd_request_latency histogram",
		"# TYPE suv_suvd_job_latency histogram",
		"# TYPE suv_fleet_cache_hits counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestJobNotFound(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: instantRunner})
	h := s.Handler()
	if rec := get(t, h, "/v1/jobs/j-404"); rec.Code != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/v1/jobs/j-404/stream"); rec.Code != http.StatusNotFound {
		t.Errorf("missing job stream: %d, want 404", rec.Code)
	}
}

// TestListJobs pins submission-order listing across states.
func TestListJobs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Runner: instantRunner})
	h := s.Handler()
	for i := uint64(1); i <= 3; i++ {
		submit(t, h, jobBody("c", i))
	}
	waitIdle(t, s)
	var list []JobStatus
	json.Unmarshal(get(t, h, "/v1/jobs").Body.Bytes(), &list)
	if len(list) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list))
	}
	for i, js := range list {
		if js.State != "completed" {
			t.Errorf("job %d state %s, want completed", i, js.State)
		}
	}
}
