package suvd

import (
	"encoding/json"
	"net/http"
	"testing"

	"suvtm/internal/experiments"
)

// TestEndToEndFleetRunner exercises the daemon against the real fleet
// engine: submit, simulate, summarize; resubmission is served from the
// run cache; and a degraded daemon still admits cache-resident work.
// Seeds are kept in a distinctive range so the shared fleet cache never
// collides with the stub-runner tests' specs, and the process-wide cache
// is reset first so a repeated run (-count, -cpu) starts cold too.
func TestEndToEndFleetRunner(t *testing.T) {
	if err := experiments.ResetRunCache(); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, EscalateAfter: 1000})
	h := s.Handler()

	rec := submit(t, h, jobBody("e2e", 1001, 1002))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var resp struct{ ID string }
	json.Unmarshal(rec.Body.Bytes(), &resp)
	waitIdle(t, s)

	var js JobStatus
	json.Unmarshal(get(t, h, "/v1/jobs/"+resp.ID).Body.Bytes(), &js)
	if js.State != "completed" {
		t.Fatalf("job = %+v, want completed", js)
	}
	if len(js.Results) != 2 {
		t.Fatalf("results = %+v, want 2", js.Results)
	}
	for i, r := range js.Results {
		if r.Cycles == 0 || r.Commits == 0 {
			t.Errorf("run %d has empty outcome: %+v", i, r)
		}
		if r.CacheHit {
			t.Errorf("run %d claims a cache hit on a cold cache", i)
		}
	}
	first := js.Results

	// Resubmission of identical pure specs is a cache lookup — the
	// idempotence that makes journal replay safe.
	rec = submit(t, h, jobBody("e2e", 1001, 1002))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", rec.Code)
	}
	json.Unmarshal(rec.Body.Bytes(), &resp)
	waitIdle(t, s)
	json.Unmarshal(get(t, h, "/v1/jobs/"+resp.ID).Body.Bytes(), &js)
	if js.State != "completed" {
		t.Fatalf("resubmitted job = %+v, want completed", js)
	}
	for i, r := range js.Results {
		if !r.CacheHit {
			t.Errorf("resubmitted run %d missed the cache", i)
		}
		if r.Cycles != first[i].Cycles {
			t.Errorf("cached run %d diverged: %d cycles, first run had %d", i, r.Cycles, first[i].Cycles)
		}
	}

	// Degraded mode: force the ladder to shed-uncached. Cache-resident
	// work is still admitted; work that would simulate is shed.
	s.ladder.mu.Lock()
	s.ladder.stepLocked(ShedUncached, "test")
	s.ladder.mu.Unlock()
	if rec := submit(t, h, jobBody("e2e", 1001, 1002)); rec.Code != http.StatusAccepted {
		t.Errorf("cached job shed in degraded mode: %d", rec.Code)
	}
	if rec := submit(t, h, jobBody("e2e", 1099)); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("uncached job admitted in degraded mode: %d", rec.Code)
	}
	waitIdle(t, s)
}
