// Package suvd is the long-running simulation service around the fleet
// engine: an HTTP/JSON daemon that accepts batches of run specs,
// executes them through experiments.RunManyWith over the
// content-addressed run cache, and streams per-scheme FleetProgress
// rollups as NDJSON.
//
// The package is organized around four robustness mechanisms, each
// independently testable:
//
//   - admission control + backpressure (server.go): a bounded job queue
//     with per-client concurrency caps. Over-capacity submissions get
//     429 + Retry-After instead of queueing unboundedly; the queue's
//     channel buffer is the hard bound.
//   - crash-safe job journal (journal.go): an append-only WAL of
//     accepted/done records with CRC-framed, fsync'd appends. A killed
//     daemon replays incomplete jobs on restart — idempotent, because
//     the run cache turns re-execution of completed work into lookups.
//   - retry/timeout ladder (retry.go): per-job deadlines, worker
//     recover() converting panics into typed errors with stack
//     post-mortems, bounded retries with seeded jittered exponential
//     backoff, then a dead-letter list.
//   - graceful degradation (shed.go): a count-based load-shedding
//     ladder — shed uncached work first, degrade to cache-only mode
//     under sustained overload, drain in-flight jobs on SIGTERM — with
//     every transition visible via /healthz, /readyz and /metrics.
//
// chaos.go is a deterministic fault-injecting middleware for the daemon
// itself (slow handlers, dropped workers, mid-journal crashes);
// loadtest.go is an RPS-ramp driver with latency-SLO gates.
//
// suvd is host-side infrastructure, exempt from the suvlint wallclock
// ban (see internal/analysis); the simulated machine it drives stays
// patrolled.
package suvd

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the default named in its comment.
type Config struct {
	// Workers is the number of concurrent job executors (0 = half of
	// GOMAXPROCS, min 1 — each job is itself a parallel batch).
	Workers int
	// QueueCapacity bounds the number of accepted-but-not-running jobs
	// (0 = 64). Admission beyond it returns 429 + Retry-After.
	QueueCapacity int
	// PerClientCap bounds one client's queued+running jobs (0 = 8).
	PerClientCap int
	// MaxRuns bounds the runs in a single job (0 = 256).
	MaxRuns int
	// MaxAttempts is the per-job execution budget before the job is
	// dead-lettered (0 = 3). Only retryable failures (worker panics,
	// injected transients) consume extra attempts.
	MaxAttempts int
	// JobTimeout is the per-job deadline (0 = none). A timed-out job
	// fails without retry: the deadline budget is already spent.
	JobTimeout time.Duration
	// RetryBase and RetryCap shape the backoff ladder: attempt n sleeps
	// base<<(n-1) capped at RetryCap, plus up to 50% seeded jitter
	// (base 0 = 50ms, cap 0 = 2s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetrySeed seeds the jitter stream (0 = 1), so a chaos scenario
	// replays with identical backoff choices.
	RetrySeed uint64
	// DrainTimeout bounds how long Close waits for in-flight jobs after
	// BeginDrain (0 = 30s); past it, in-flight batches are canceled via
	// their context and abandoned to the journal.
	DrainTimeout time.Duration

	// EscalateAfter is how many consecutive pressure observations move
	// the shedding ladder one step (0 = 3): queue occupancy at or above
	// 0.75 builds pressure, at or below 0.25 relieves it.
	EscalateAfter int

	// Journal is the WAL path ("" = ephemeral: no crash safety, used by
	// tests and throwaway instances).
	Journal string

	// Runner executes one job's specs (nil = the fleet engine,
	// experiments.RunManyWith). Tests and the chaos harness substitute
	// stubs here.
	Runner Runner
	// Sleep is the backoff sleep hook (nil = time.Sleep).
	Sleep func(time.Duration)
	// Faults, when non-nil, arms the deterministic chaos harness.
	Faults *Faults
}

// withDefaults resolves every zero field.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.PerClientCap <= 0 {
		c.PerClientCap = 8
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 256
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 2 * time.Second
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.EscalateAfter <= 0 {
		c.EscalateAfter = 3
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Typed admission/execution errors. Admission errors map to HTTP
// statuses in server.go; execution errors drive the retry ladder.
var (
	// ErrQueueFull: the bounded queue is at capacity (429).
	ErrQueueFull = errors.New("suvd: job queue full")
	// ErrClientCap: the client is at its concurrency cap (429).
	ErrClientCap = errors.New("suvd: per-client concurrency cap reached")
	// ErrShed: the shedding ladder rejected uncached work (503).
	ErrShed = errors.New("suvd: load shed: uncached work rejected in degraded mode")
	// ErrDraining: the daemon is draining and accepts nothing (503).
	ErrDraining = errors.New("suvd: draining")
	// ErrInjected is the chaos harness's retryable transient.
	ErrInjected = errors.New("suvd: injected transient fault")
)

// WorkerPanicError is a panic captured inside a job attempt, converted
// into a typed, retryable error carrying its post-mortem.
type WorkerPanicError struct {
	JobID   string
	Attempt int
	Value   string
	Stack   string
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("suvd: worker panic on job %s attempt %d: %s", e.JobID, e.Attempt, e.Value)
}

// DeadlineError is a job that exceeded its per-job deadline. Not
// retryable: the budget is spent.
type DeadlineError struct {
	JobID   string
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("suvd: job %s exceeded its %v deadline", e.JobID, e.Timeout)
}

// Retryable classifies an execution error for the retry ladder: worker
// panics and injected transients may heal on retry; deadline
// exhaustion, cancellation, and deterministic simulator errors do not.
func Retryable(err error) bool {
	var wp *WorkerPanicError
	if errors.As(err, &wp) {
		return true
	}
	return errors.Is(err, ErrInjected)
}
