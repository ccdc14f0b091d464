package suvd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"suvtm/internal/experiments"
	"suvtm/internal/metrics"
)

// serverCounters are the daemon's cumulative event counts, exported on
// /metrics and /healthz.
type serverCounters struct {
	requests       atomic.Uint64
	accepted       atomic.Uint64
	completed      atomic.Uint64
	failed         atomic.Uint64
	deadLettered   atomic.Uint64
	retries        atomic.Uint64
	panics         atomic.Uint64
	rejectedQueue  atomic.Uint64 // 429: queue full
	rejectedClient atomic.Uint64 // 429: per-client cap
	shed           atomic.Uint64 // 503: ladder shed uncached work
	rejectedDrain  atomic.Uint64 // 503: draining
	journalErrors  atomic.Uint64
	replayed       atomic.Uint64 // jobs re-enqueued from the journal
}

// Server is the suvd daemon: admission control in front of a bounded
// queue, a worker pool driving the fleet engine, the WAL, and the
// shedding ladder. Construct with New, serve Handler, stop with Close.
type Server struct {
	cfg     Config
	runner  Runner
	journal *Journal
	ladder  *shedLadder
	queue   chan *job

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	mu          sync.Mutex
	jobs        map[string]*job
	order       []string // submission order (replayed jobs first)
	perClient   map[string]int
	queued      int // accepted, not yet picked up by a worker
	inflight    int // being executed right now
	nextID      uint64
	draining    bool
	deadLetters []string

	rngMu sync.Mutex
	rng   *rand.Rand

	latMu  sync.Mutex
	reqLat *metrics.Histogram // request latency, microseconds
	jobLat *metrics.Histogram // accepted-to-terminal job latency, microseconds

	counters serverCounters
}

// New builds the server: opens and replays the journal, re-enqueues
// incomplete jobs, compacts the WAL, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var journal *Journal
	var incomplete []*Record
	if cfg.Journal != "" {
		var err error
		journal, incomplete, err = OpenJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		if cfg.Faults != nil && cfg.Faults.JournalCrashAt > 0 {
			journal.crashAt = uint64(cfg.Faults.JournalCrashAt)
		}
	}
	// Replayed jobs must all fit: the queue is sized to the configured
	// capacity or the backlog, whichever is larger.
	capQ := cfg.QueueCapacity
	if len(incomplete) > capQ {
		capQ = len(incomplete)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		runner:    cfg.Runner,
		journal:   journal,
		ladder:    newShedLadder(cfg),
		queue:     make(chan *job, capQ),
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*job),
		perClient: make(map[string]int),
		rng:       rand.New(rand.NewSource(int64(cfg.RetrySeed))),
		reqLat:    metrics.NewHistogram("suvd.request.latency", "us"),
		jobLat:    metrics.NewHistogram("suvd.job.latency", "us"),
	}
	if s.runner == nil {
		s.runner = fleetRunner
	}
	if cfg.Faults != nil && cfg.Faults.Sleep == nil {
		cfg.Faults.Sleep = s.cfg.Sleep
	}
	for _, rec := range incomplete {
		jb := newJob(rec.ID, rec.Client, rec.Runs)
		s.jobs[jb.id] = jb
		s.order = append(s.order, jb.id)
		s.perClient[jb.client]++
		s.queued++
		if n := idNumber(rec.ID); n >= s.nextID {
			s.nextID = n
		}
		s.counters.replayed.Add(1)
		s.queue <- jb
	}
	// Bound WAL growth: after replay the file holds only the backlog.
	if err := journal.Compact(incomplete); err != nil && !errors.Is(err, errJournalCrash) {
		journal.Close()
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// idNumber extracts the numeric suffix of a job id ("j-42" -> 42).
func idNumber(id string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, "j-"), 10, 64)
	return n
}

// worker pulls jobs until the queue closes. During drain, pulled jobs
// are abandoned un-run: their accepted records stay in the journal, so
// the next daemon generation replays them.
func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.mu.Lock()
		s.queued--
		if s.draining {
			s.mu.Unlock()
			continue
		}
		s.inflight++
		s.mu.Unlock()
		s.execute(jb)
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}
}

// Admit validates and admits one job request, returning the accepted
// job or an admission error (ErrDraining, ErrShed, ErrClientCap,
// ErrQueueFull). retryAfter is the backoff hint in seconds for the
// 429/503 responses.
func (s *Server) Admit(req JobRequest, remote string) (jb *job, retryAfter int, err error) {
	client := req.Client
	if client == "" {
		client = remote
	}
	if len(req.Runs) == 0 {
		return nil, 0, fmt.Errorf("suvd: job has no runs")
	}
	if len(req.Runs) > s.cfg.MaxRuns {
		return nil, 0, fmt.Errorf("suvd: job has %d runs, cap is %d", len(req.Runs), s.cfg.MaxRuns)
	}
	for i, r := range req.Runs {
		if verr := r.validate(); verr != nil {
			return nil, 0, fmt.Errorf("suvd: run %d: %w", i, verr)
		}
	}
	// Probe cache residency outside the lock: the shed ladder admits
	// only cache-servable work when degraded.
	allCached := true
	for _, r := range req.Runs {
		if !experiments.Cached(r.Spec()) {
			allCached = false
			break
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.counters.rejectedDrain.Add(1)
		return nil, s.retryAfterLocked(), ErrDraining
	}
	occ := float64(s.queued) / float64(s.cfg.QueueCapacity)
	if s.queued >= s.cfg.QueueCapacity {
		occ = 1.0 + 1.0/float64(s.cfg.QueueCapacity)
	}
	state := s.ladder.observe(occ)
	switch state {
	case Normal:
	case ShedUncached, CacheOnly:
		// Both rungs shed work that would simulate; they differ in how
		// they relax (CacheOnly needs sustained relief to step down
		// through ShedUncached first).
		if !allCached {
			s.counters.shed.Add(1)
			return nil, s.retryAfterLocked(), ErrShed
		}
	case Draining:
		s.counters.rejectedDrain.Add(1)
		return nil, s.retryAfterLocked(), ErrDraining
	default:
		panic(fmt.Sprintf("suvd: unknown shed state %d", uint8(state)))
	}
	if s.perClient[client] >= s.cfg.PerClientCap {
		s.counters.rejectedClient.Add(1)
		return nil, s.retryAfterLocked(), ErrClientCap
	}
	if s.queued >= s.cfg.QueueCapacity {
		s.counters.rejectedQueue.Add(1)
		return nil, s.retryAfterLocked(), ErrQueueFull
	}
	s.nextID++
	jb = newJob(fmt.Sprintf("j-%d", s.nextID), client, req.Runs)
	// WAL before ack: the fsync'd accepted record is what makes the 202
	// a durable promise. Appending under the admission lock keeps WAL
	// order identical to acceptance order (deterministic replay) and
	// makes the fsync the natural admission rate limiter.
	if jerr := s.journal.Append(&Record{Kind: recAccepted, ID: jb.id, Client: client, Runs: req.Runs}); jerr != nil {
		s.counters.journalErrors.Add(1)
		s.nextID--
		return nil, 0, fmt.Errorf("suvd: journal append: %w", jerr)
	}
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	s.perClient[client]++
	s.queued++
	s.counters.accepted.Add(1)
	// Cannot block: queued <= QueueCapacity <= cap(queue), all under mu.
	s.queue <- jb
	return jb, 0, nil
}

// retryAfterLocked estimates seconds until a slot frees: queue depth
// over worker count, floored at 1.
func (s *Server) retryAfterLocked() int {
	ra := 1 + s.queued/max(1, s.cfg.Workers)
	if ra > 60 {
		ra = 60
	}
	return ra
}

// finishJob journals the terminal record, publishes it to watchers, and
// releases the client slot.
func (s *Server) finishJob(jb *job, state JobState, errText string, results []RunSummary) {
	var status string
	switch state {
	case JobCompleted:
		status = statusCompleted
		s.counters.completed.Add(1)
	case JobFailed:
		status = statusFailed
		s.counters.failed.Add(1)
	case JobDeadLetter:
		status = statusDeadLetter
		s.counters.deadLettered.Add(1)
	case JobQueued, JobRunning:
		panic("suvd: finishJob called with non-terminal state " + state.String())
	default:
		panic(fmt.Sprintf("suvd: unknown job state %d", uint8(state)))
	}
	if err := s.journal.Append(&Record{Kind: recDone, ID: jb.id, Status: status, Error: errText}); err != nil {
		// The job still finishes: a dead journal costs replay
		// idempotence (the job re-runs next start — a cache lookup),
		// never correctness.
		s.counters.journalErrors.Add(1)
	}
	jb.mu.Lock()
	jb.state = state
	jb.errText = errText
	jb.results = results
	final := streamMsg{JobID: jb.id, State: state.String(), Error: errText, Final: true}
	for _, w := range jb.watchers {
		select {
		case w <- final:
		default:
		}
	}
	close(jb.done)
	jb.mu.Unlock()
	s.mu.Lock()
	s.perClient[jb.client]--
	if s.perClient[jb.client] <= 0 {
		delete(s.perClient, jb.client)
	}
	if state == JobDeadLetter {
		s.deadLetters = append(s.deadLetters, jb.id)
	}
	s.mu.Unlock()
}

// BeginDrain flips the daemon into its terminal state: admission
// rejects everything with 503, workers finish their in-flight job and
// abandon the rest of the queue to the journal.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()
	s.ladder.drain()
}

// Close drains and waits for in-flight jobs up to DrainTimeout; past
// it, in-flight batches are context-canceled and given one more
// DrainTimeout before Close gives up.
func (s *Server) Close() error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.cancelAll()
		select {
		case <-done:
		case <-time.After(s.cfg.DrainTimeout):
			return fmt.Errorf("suvd: drain timeout: in-flight jobs did not stop")
		}
	}
	s.cancelAll()
	return s.journal.Close()
}

// WaitIdle blocks until no job is queued or in flight (or ctx ends).
// Tests and the loadtest driver use it to assert zero dropped jobs.
func (s *Server) WaitIdle(ctx context.Context) error {
	for {
		s.mu.Lock()
		idle := s.queued == 0 && s.inflight == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// State returns the shedding ladder's current state.
func (s *Server) State() State { return s.ladder.State() }

// Stats is the /healthz body: daemon state, counters, queue and journal
// health, and the full shed-transition history.
type Stats struct {
	State       string       `json:"state"`
	Ready       bool         `json:"ready"`
	Queued      int          `json:"queued"`
	Inflight    int          `json:"inflight"`
	Capacity    int          `json:"capacity"`
	Workers     int          `json:"workers"`
	Accepted    uint64       `json:"accepted"`
	Completed   uint64       `json:"completed"`
	Failed      uint64       `json:"failed"`
	DeadLetters uint64       `json:"deadletters"`
	Retries     uint64       `json:"retries"`
	Panics      uint64       `json:"panics"`
	Rejected429 uint64       `json:"rejected_429"`
	Shed503     uint64       `json:"shed_503"`
	Replayed    uint64       `json:"replayed"`
	Journal     JournalStats `json:"journal"`
	Transitions []Transition `json:"transitions,omitempty"`
}

// Snapshot collects the current daemon stats.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	queued, inflight := s.queued, s.inflight
	s.mu.Unlock()
	state := s.ladder.State()
	return Stats{
		State:       state.String(),
		Ready:       state != Draining,
		Queued:      queued,
		Inflight:    inflight,
		Capacity:    s.cfg.QueueCapacity,
		Workers:     s.cfg.Workers,
		Accepted:    s.counters.accepted.Load(),
		Completed:   s.counters.completed.Load(),
		Failed:      s.counters.failed.Load(),
		DeadLetters: s.counters.deadLettered.Load(),
		Retries:     s.counters.retries.Load(),
		Panics:      s.counters.panics.Load(),
		Rejected429: s.counters.rejectedQueue.Load() + s.counters.rejectedClient.Load(),
		Shed503:     s.counters.shed.Load() + s.counters.rejectedDrain.Load(),
		Replayed:    s.counters.replayed.Load(),
		Journal:     s.journal.Stats(),
		Transitions: s.ladder.Transitions(),
	}
}

func (s *Server) observeJobLatency(d time.Duration) {
	s.latMu.Lock()
	s.jobLat.Observe(uint64(d.Microseconds()))
	s.latMu.Unlock()
}

// ---------------------------------------------------------------------
// HTTP surface.

// Handler returns the daemon's HTTP handler, instrumented and (when
// Config.Faults is set) wrapped in the chaos middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/deadletters", s.handleDeadLetters)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	var h http.Handler = s.instrument(mux)
	if s.cfg.Faults != nil {
		h = s.cfg.Faults.Middleware(h)
	}
	return h
}

// instrument counts requests and records request latency.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.counters.requests.Add(1)
		start := time.Now()
		next.ServeHTTP(w, r)
		s.latMu.Lock()
		s.reqLat.Observe(uint64(time.Since(start).Microseconds()))
		s.latMu.Unlock()
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return
	}
	jb, retryAfter, err := s.Admit(req, r.RemoteAddr)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClientCap):
			code = http.StatusTooManyRequests
		case errors.Is(err, ErrShed), errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
		case errors.Is(err, errJournalCrash):
			code = http.StatusInternalServerError
		}
		if retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		}
		writeJSON(w, code, errorBody{Error: err.Error(), RetryAfter: retryAfter})
		return
	}
	s.mu.Lock()
	depth := s.queued
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": jb.id, "state": "queued", "queue_depth": depth,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	jb, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	return jb, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, jb.status())
}

// handleStream serves the job's NDJSON stream: the current status
// first, then FleetProgress rollups as the batch advances, then the
// terminal record. The connection closes when the job reaches a
// terminal state or the client goes away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	ch, cancel := jb.watch()
	defer cancel()
	// Current status first, so a late subscriber is never blind.
	st := jb.status()
	enc.Encode(streamMsg{JobID: jb.id, State: st.State, Progress: st.Progress, Error: st.Error, Final: terminalName(st.State)})
	flush()
	if terminalName(st.State) {
		// That line was the terminal one. A job that finished after the
		// snapshot still gets its terminal line from the loop below.
		return
	}
	for {
		select {
		case msg := <-ch:
			enc.Encode(msg)
			flush()
			if msg.Final {
				return
			}
		case <-jb.done:
			// Drain anything buffered, then emit the terminal line.
			for {
				select {
				case msg := <-ch:
					enc.Encode(msg)
					flush()
					if msg.Final {
						return
					}
					continue
				default:
				}
				break
			}
			st := jb.status()
			enc.Encode(streamMsg{JobID: jb.id, State: st.State, Error: st.Error, Final: true})
			flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// terminalName maps an API state string back to terminality (for the
// initial stream line, which is built from a JobStatus snapshot).
func terminalName(name string) bool {
	switch name {
	case "completed", "failed", "deadletter":
		return true
	}
	return false
}

func (s *Server) handleDeadLetters(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.deadLetters))
	for _, id := range s.deadLetters {
		if jb, ok := s.jobs[id]; ok {
			list = append(list, jb.status())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

// handleHealthz is liveness: 200 as long as the process serves, with
// the full Stats body (including the shed-transition history).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleReadyz is readiness: 200 while the daemon accepts any work
// (degraded modes included — they still serve cached jobs), 503 once
// draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	code := http.StatusOK
	if !snap.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"state": snap.State, "ready": snap.Ready})
}

// handleMetrics serves the daemon's counters, gauges and latency
// histograms — plus the fleet-layer cache counters — in the Prometheus
// text exposition format via metrics.Snapshot.WriteProm.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued, inflight := s.queued, s.inflight
	s.mu.Unlock()
	fs := experiments.FleetSnapshot()
	js := s.journal.Stats()
	s.latMu.Lock()
	hists := []metrics.HistogramSnapshot{s.reqLat.Snapshot(), s.jobLat.Snapshot()}
	s.latMu.Unlock()
	snap := &metrics.Snapshot{
		Meta: map[string]string{"service": "suvd"},
		Counters: map[string]uint64{
			"suvd.http.requests":     s.counters.requests.Load(),
			"suvd.jobs.accepted":     s.counters.accepted.Load(),
			"suvd.jobs.completed":    s.counters.completed.Load(),
			"suvd.jobs.failed":       s.counters.failed.Load(),
			"suvd.jobs.deadletter":   s.counters.deadLettered.Load(),
			"suvd.jobs.retries":      s.counters.retries.Load(),
			"suvd.jobs.panics":       s.counters.panics.Load(),
			"suvd.jobs.replayed":     s.counters.replayed.Load(),
			"suvd.reject.queue_full": s.counters.rejectedQueue.Load(),
			"suvd.reject.client_cap": s.counters.rejectedClient.Load(),
			"suvd.reject.shed":       s.counters.shed.Load(),
			"suvd.reject.draining":   s.counters.rejectedDrain.Load(),
			"suvd.journal.appended":  js.Appended,
			"suvd.journal.replayed":  js.Replayed,
			"suvd.journal.errors":    s.counters.journalErrors.Load(),
			"fleet.cache.hits":       fs.Hits,
			"fleet.cache.disk_hits":  fs.DiskHits,
			"fleet.cache.misses":     fs.Misses,
			"fleet.cache.bypasses":   fs.Bypasses,
			"fleet.cache.corrupt":    fs.Corrupt,
			"fleet.arena.reuses":     fs.ArenaReuses,
		},
		Gauges: map[string]float64{
			"suvd.queue.depth":    float64(queued),
			"suvd.queue.capacity": float64(s.cfg.QueueCapacity),
			"suvd.jobs.inflight":  float64(inflight),
			"suvd.shed.state":     float64(s.ladder.State()),
		},
		Histograms: hists,
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snap.WriteProm(w)
}
