package suvd

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"suvtm/internal/experiments"
)

// countingRunner completes instantly and counts executions per job id
// (keyed by the first run's seed, which tests keep unique per job).
type countingRunner struct {
	mu   sync.Mutex
	runs map[uint64]int
}

func newCountingRunner() *countingRunner {
	return &countingRunner{runs: map[uint64]int{}}
}

func (c *countingRunner) run(ctx context.Context, specs []experiments.Spec, opts experiments.BatchOptions) ([]*experiments.Outcome, error) {
	c.mu.Lock()
	c.runs[specs[0].Seed]++
	c.mu.Unlock()
	return make([]*experiments.Outcome, len(specs)), nil
}

func (c *countingRunner) count(seed uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[seed]
}

// TestCrashRecoveryExactlyOnce is the headline chaos scenario: the
// journal is killed mid-append of a done record (as if the daemon took
// kill -9 during the write), the daemon "restarts", and across both
// generations every accepted job completes — with no completed job
// re-executed.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	path := journalPath(t)
	cr := newCountingRunner()

	// Generation A. Process appends: #1 accepted j-1, #2 done j-1,
	// #3 accepted j-2, #4 done j-2 (torn mid-write by the injected
	// crash). Workers=1 serializes jobs so the append order is fixed.
	sa := newTestServer(t, Config{
		Workers: 1, Journal: path,
		Runner: cr.run,
		Faults: &Faults{JournalCrashAt: 4},
	})
	ha := sa.Handler()
	ids := map[uint64]string{}
	for _, seed := range []uint64{1, 2} {
		rec := submit(t, ha, jobBody("c", seed))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("seed %d: %d %s", seed, rec.Code, rec.Body)
		}
		var resp struct{ ID string }
		json.Unmarshal(rec.Body.Bytes(), &resp)
		ids[seed] = resp.ID
		waitIdle(t, sa) // serialize: job finishes (and journals) before the next submit
	}
	// Both jobs completed from generation A's point of view...
	if snap := sa.Snapshot(); snap.Completed != 2 {
		t.Fatalf("gen A completed = %d, want 2", snap.Completed)
	}
	// ...but the journal died writing j-2's done record.
	if got := sa.counters.journalErrors.Load(); got != 1 {
		t.Fatalf("gen A journal errors = %d, want 1 (torn done record)", got)
	}
	// With a dead journal the 202 promise cannot be made durable, so
	// admission refuses rather than lying.
	if rec := submit(t, ha, jobBody("c", 3)); rec.Code != http.StatusInternalServerError {
		t.Fatalf("submit on dead journal: %d, want 500", rec.Code)
	}
	sa.Close() // the "crash": stop the process with the WAL torn

	// Generation B replays the torn WAL: j-1 has its done record and
	// stays finished; j-2's done record is the torn tail, so it is
	// exactly the job that re-runs.
	sb := newTestServer(t, Config{Workers: 1, Journal: path, Runner: cr.run})
	waitIdle(t, sb)
	snap := sb.Snapshot()
	if snap.Replayed != 1 {
		t.Fatalf("gen B replayed = %d, want 1 (only the torn job)", snap.Replayed)
	}
	if snap.Completed != 1 {
		t.Fatalf("gen B completed = %d, want 1", snap.Completed)
	}
	var js JobStatus
	json.Unmarshal(get(t, sb.Handler(), "/v1/jobs/"+ids[2]).Body.Bytes(), &js)
	if js.State != "completed" {
		t.Fatalf("replayed job %s = %s, want completed", ids[2], js.State)
	}
	if got := cr.count(1); got != 1 {
		t.Errorf("durably-completed job executed %d times, want 1 (no re-run)", got)
	}
	if got := cr.count(2); got != 2 {
		t.Errorf("torn job executed %d times across generations, want 2 (gen A + replay)", got)
	}

	// Generation C: nothing left to replay — recovery converged.
	sc := newTestServer(t, Config{Workers: 1, Journal: path, Runner: cr.run})
	if snap := sc.Snapshot(); snap.Replayed != 0 {
		t.Errorf("gen C replayed = %d, want 0", snap.Replayed)
	}
}

// TestChaosScenarioDeterministic runs an identical chaos scenario twice
// — slow + failing ingress, panicking and flaky workers, fixed request
// sequence — and requires identical observable outcomes. The harness is
// count-based, so a chaos run is a pure function of the sequence.
func TestChaosScenarioDeterministic(t *testing.T) {
	type outcome struct {
		accepted, completed, deadLettered uint64
		retries, panics                   uint64
		injected                          uint64
		http500                           int
		states                            string
	}
	runScenario := func() outcome {
		cr := newCountingRunner()
		s := newTestServer(t, Config{
			Workers: 1, MaxAttempts: 2, RetryBase: time.Microsecond, RetrySeed: 42,
			EscalateAfter: 1000,
			Runner:        cr.run,
			Faults: &Faults{
				SlowEvery: 3, SlowBy: time.Microsecond,
				FailEvery:  5,
				PanicEvery: 4,
				ErrorEvery: 7,
			},
		})
		h := s.Handler()
		var o outcome
		for seed := uint64(1); seed <= 12; seed++ {
			rec := submit(t, h, jobBody("c", seed))
			if rec.Code == http.StatusInternalServerError {
				o.http500++
			}
			waitIdle(t, s) // serialize attempts so the fault sequence is fixed
		}
		var list []JobStatus
		json.Unmarshal(get(t, h, "/v1/jobs").Body.Bytes(), &list)
		states := make([]string, len(list))
		for i, js := range list {
			states[i] = js.State
		}
		o.states = strings.Join(states, ",")
		snap := s.Snapshot()
		o.accepted, o.completed, o.deadLettered = snap.Accepted, snap.Completed, snap.DeadLetters
		o.retries, o.panics = snap.Retries, snap.Panics
		o.injected = s.cfg.Faults.Injected()
		return o
	}
	a, b := runScenario(), runScenario()
	if a != b {
		t.Fatalf("chaos scenario diverged between identical runs:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
	if a.http500 == 0 || a.panics == 0 || a.injected == 0 {
		t.Errorf("scenario injected no faults (%+v) — chaos knobs are dead", a)
	}
	if a.accepted != a.completed+a.deadLettered {
		t.Errorf("accepted %d != completed %d + deadlettered %d: a job vanished",
			a.accepted, a.completed, a.deadLettered)
	}
}

// TestShedLadderUnit drives the ladder through both rungs and back as a
// pure state machine, including the terminal drain.
func TestShedLadderUnit(t *testing.T) {
	l := newShedLadder(Config{EscalateAfter: 2}.withDefaults())
	if l.State() != Normal {
		t.Fatal("ladder not born normal")
	}
	l.observe(1.0)
	if st := l.observe(1.0); st != ShedUncached {
		t.Fatalf("after 2 high: %v, want shed-uncached", st)
	}
	l.observe(1.0)
	if st := l.observe(1.0); st != CacheOnly {
		t.Fatalf("after 4 high: %v, want cache-only", st)
	}
	// The ladder tops out at CacheOnly: more pressure cannot reach
	// Draining, which only drain() enters.
	l.observe(1.0)
	if st := l.observe(1.0); st != CacheOnly {
		t.Fatalf("pressure past cache-only: %v, want cache-only", st)
	}
	// Mid-band observations reset pressure; relief steps down one rung
	// at a time.
	l.observe(0.5)
	l.observe(0.0)
	if st := l.observe(0.0); st != ShedUncached {
		t.Fatalf("after relief: %v, want shed-uncached", st)
	}
	l.observe(0.0)
	if st := l.observe(0.0); st != Normal {
		t.Fatalf("after more relief: %v, want normal", st)
	}
	l.drain()
	if st := l.observe(0.0); st != Draining {
		t.Fatalf("after drain: %v, want draining (terminal)", st)
	}
	trs := l.Transitions()
	want := []string{"shed-uncached", "cache-only", "shed-uncached", "normal", "draining"}
	if len(trs) != len(want) {
		t.Fatalf("transitions %+v, want %v", trs, want)
	}
	for i, tr := range trs {
		if tr.To != want[i] || tr.Seq != i+1 {
			t.Errorf("transition %d = %+v, want to=%s seq=%d", i, tr, want[i], i+1)
		}
	}
}

// TestStateStringsExhaustive pins the string forms the API exposes and
// the panic on unknown values that the exhaustive lint discipline
// expects.
func TestStateStringsExhaustive(t *testing.T) {
	wantShed := map[State]string{
		Normal: "normal", ShedUncached: "shed-uncached",
		CacheOnly: "cache-only", Draining: "draining",
	}
	for st, want := range wantShed {
		if st.String() != want {
			t.Errorf("State(%d) = %q, want %q", st, st.String(), want)
		}
	}
	wantJob := map[JobState]string{
		JobQueued: "queued", JobRunning: "running", JobCompleted: "completed",
		JobFailed: "failed", JobDeadLetter: "deadletter",
	}
	for st, want := range wantJob {
		if st.String() != want {
			t.Errorf("JobState(%d) = %q, want %q", st, st.String(), want)
		}
		if got := terminalName(st.String()); got != st.terminal() {
			t.Errorf("terminalName(%q) = %v, terminal() = %v", st.String(), got, st.terminal())
		}
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on an unknown value did not panic", name)
			}
		}()
		f()
	}
	mustPanic("State.String", func() { _ = State(99).String() })
	mustPanic("JobState.String", func() { _ = JobState(99).String() })
	mustPanic("JobState.terminal", func() { _ = JobState(99).terminal() })
}
