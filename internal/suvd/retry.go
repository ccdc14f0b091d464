package suvd

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"suvtm/internal/experiments"
)

// Runner executes one job's specs. The default is the fleet engine;
// tests and the chaos harness substitute stubs to model slow, flaky,
// or panicking work without simulating.
type Runner func(ctx context.Context, specs []experiments.Spec, opts experiments.BatchOptions) ([]*experiments.Outcome, error)

// fleetRunner is the production Runner: the batch engine with arenas,
// run cache, LPT dispatch, and context-cancelable dispatch.
func fleetRunner(ctx context.Context, specs []experiments.Spec, opts experiments.BatchOptions) ([]*experiments.Outcome, error) {
	opts.Context = ctx
	return experiments.RunManyWith(specs, opts)
}

// execute drives one job through the retry ladder: attempt, classify,
// back off, re-attempt, until success, a non-retryable failure, or the
// attempt budget runs out (dead-letter). It runs on a worker goroutine.
func (s *Server) execute(jb *job) {
	jb.mu.Lock()
	jb.state = JobRunning
	jb.mu.Unlock()
	start := time.Now()
	var lastErr error
	for attempt := 1; attempt <= s.cfg.MaxAttempts; attempt++ {
		jb.mu.Lock()
		jb.attempts = attempt
		jb.mu.Unlock()
		results, err := s.runOnce(jb, attempt)
		if err == nil {
			s.finishJob(jb, JobCompleted, "", results)
			s.observeJobLatency(time.Since(start))
			return
		}
		lastErr = err
		if !Retryable(err) {
			break
		}
		if attempt < s.cfg.MaxAttempts {
			s.counters.retries.Add(1)
			s.cfg.Sleep(s.backoff(attempt))
		}
	}
	state := JobFailed
	if Retryable(lastErr) {
		// The error class could have healed but the budget is spent:
		// park on the dead-letter list instead of silently failing.
		state = JobDeadLetter
	}
	s.finishJob(jb, state, lastErr.Error(), nil)
	s.observeJobLatency(time.Since(start))
}

// runOnce is a single attempt: chaos injection point, per-job deadline,
// panic containment, batch execution, outcome summarization.
func (s *Server) runOnce(jb *job, attempt int) (results []RunSummary, err error) {
	defer func() {
		if r := recover(); r != nil {
			// A panic inside the attempt (chaos-injected dropped worker,
			// or a bug in spec handling) becomes a typed, retryable error
			// carrying its post-mortem instead of killing the daemon.
			s.counters.panics.Add(1)
			err = &WorkerPanicError{
				JobID: jb.id, Attempt: attempt,
				Value: fmt.Sprint(r), Stack: string(debug.Stack()),
			}
		}
	}()
	if f := s.cfg.Faults; f != nil {
		if ferr := f.beforeRun(); ferr != nil {
			return nil, ferr
		}
	}
	ctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	defer cancel()

	specs := jb.specs()
	cached := make([]bool, len(specs))
	for i := range specs {
		cached[i] = experiments.Cached(specs[i])
	}
	outs, err := s.runner(ctx, specs, experiments.BatchOptions{OnProgress: jb.publish})
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return nil, &DeadlineError{JobID: jb.id, Timeout: s.cfg.JobTimeout}
		}
		return nil, err
	}
	for i, out := range outs {
		if i >= len(jb.runs) {
			break
		}
		sum := RunSummary{
			App: jb.runs[i].App, Scheme: jb.runs[i].Scheme, CacheHit: cached[i],
		}
		if out != nil && out.Result != nil {
			sum.Cycles = uint64(out.Cycles)
			sum.Commits = out.Counters.TxCommitted
			sum.Aborts = out.Counters.TxAborted
		}
		results = append(results, sum)
	}
	return results, nil
}

// backoff returns the sleep before re-attempting after attempt n
// (1-based): base<<(n-1), capped, plus up to 50% jitter drawn from the
// server's seeded stream — exponential enough to relieve a struggling
// dependency, jittered enough that retries from many jobs don't
// synchronize, deterministic for a fixed seed and attempt sequence.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBase
	for i := 1; i < attempt && d < s.cfg.RetryCap; i++ {
		d *= 2
	}
	if d > s.cfg.RetryCap {
		d = s.cfg.RetryCap
	}
	s.rngMu.Lock()
	j := s.rng.Float64()
	s.rngMu.Unlock()
	return d + time.Duration(float64(d)*0.5*j)
}
