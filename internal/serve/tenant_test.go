package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"qla/internal/sched"
)

// doRun posts a run spec under a tenant identity and returns the raw
// response (caller closes the body via the returned cleanup).
func doRun(t *testing.T, url, tenant, spec string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func doSweep(t *testing.T, url, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweeps", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestTenantHeaderValidation: a malformed tenant name is a 400, not a
// fresh stats bucket.
func TestTenantHeaderValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := doRun(t, ts.URL, "bad tenant!", tinySpec(60))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestInteractiveNotStarvedByBulk is the acceptance-criteria
// starvation test: tenant A floods the server with a bulk sweep that
// saturates the bulk share of a 2-worker pool; tenant B's interactive
// /v1/run must still complete while the sweep is running, admitted
// through the reserved slot. Run under -race in CI.
func TestInteractiveNotStarvedByBulk(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, InteractiveReserve: 1})

	resp := doSweep(t, ts.URL, "tenant-a", fig7Sweep(300000))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-a sweep submit: %d", resp.StatusCode)
	}
	var sb SubmitBody
	if err := json.NewDecoder(resp.Body).Decode(&sb); err != nil {
		t.Fatal(err)
	}
	// Cancel the sweep when the test ends: its points would otherwise
	// go on computing beside every later test in the process.
	t.Cleanup(func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sb.JobID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		pollJob(t, ts.URL, sb.JobID)
	})

	// Wait until bulk work actually occupies the pool.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := srv.pool.Stats()
		if st.Classes[sched.ClassBulk.String()].InUse >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bulk sweep never occupied the pool: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// Tenant B's interactive run completes while the sweep holds the
	// bulk share — the reserve guarantees it a slot.
	start := time.Now()
	resp = doRun(t, ts.URL, "tenant-b", tinySpec(61))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive run under bulk flood: status %d", resp.StatusCode)
	}
	t.Logf("interactive run completed in %v under bulk load", time.Since(start))

	st := srv.pool.Stats()
	if st.InteractiveReserve != 1 {
		t.Errorf("stats interactive_reserve = %d, want 1", st.InteractiveReserve)
	}
	if got := st.Classes[sched.ClassBulk.String()].SlotCap; got != 1 {
		t.Errorf("bulk slot_cap = %d, want 1", got)
	}

	if n := metric(t, ts.URL, "qla_sched_interactive_reserve"); n != 1 {
		t.Errorf("qla_sched_interactive_reserve = %v", n)
	}
	if n := metric(t, ts.URL, "qla_sched_queue_wait_seconds_count", `class="interactive"`); n == 0 {
		t.Error("/metrics has no interactive-class grants")
	}
	if n := metric(t, ts.URL, "qla_sched_queue_wait_seconds_count", `tenant="tenant-b"`); n == 0 {
		t.Error("tenant-b recorded no scheduler grants")
	}
	if n := metric(t, ts.URL, "qla_http_requests_total", `tenant="tenant-b"`); n == 0 {
		t.Error("/metrics has no requests from tenant-b")
	}
}

// TestTenantRateLimit429: past its token bucket a tenant's submissions
// get 429 with the unified throttle envelope — tenant and limit
// headers, a Retry-After no smaller than the bucket wait — while other
// tenants are unaffected.
func TestTenantRateLimit429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, TenantRPS: 0.1, TenantBurst: 1})

	resp := doRun(t, ts.URL, "rl", tinySpec(70))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d", resp.StatusCode)
	}
	resp = doRun(t, ts.URL, "rl", tinySpec(71))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second run: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(TenantHeader); got != "rl" {
		t.Errorf("%s = %q, want rl", TenantHeader, got)
	}
	if got := resp.Header.Get(ThrottleHeader); got != throttleRate {
		t.Errorf("%s = %q, want %q", ThrottleHeader, got, throttleRate)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Errorf("Retry-After = %q, want integer in [1,30]", resp.Header.Get("Retry-After"))
	}

	// Another tenant has its own bucket.
	resp = doRun(t, ts.URL, "other", tinySpec(72))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: %d, want 200", resp.StatusCode)
	}

	if n := metric(t, ts.URL, "qla_serve_throttled_total"); n != 1 {
		t.Errorf("throttled = %v, want 1", n)
	}
	rateLimited := metric(t, ts.URL, "qla_serve_throttled_total", `tenant="rl"`, `limit="rate"`)
	requests := metric(t, ts.URL, "qla_http_requests_total", `route="POST /v1/run"`, `tenant="rl"`)
	if rateLimited != 1 || requests != 2 {
		t.Errorf("tenant rl: requests=%v rate_limited=%v, want 2 and 1", requests, rateLimited)
	}
	_ = srv
}

// TestTenantJobQuota429: a tenant at its concurrent-job quota gets 429
// with the quota limit named; a different tenant may still submit.
func TestTenantJobQuota429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, TenantMaxJobs: 1})
	// Hold the only worker slot so the first sweep stays running (its
	// bulk points queue) for the whole test.
	release := saturate(t, srv, 0)
	defer release()

	resp := doSweep(t, ts.URL, "q", fig7Sweep(4000))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first sweep: %d", resp.StatusCode)
	}
	resp = doSweep(t, ts.URL, "q", fig7Sweep(4001))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second sweep: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(ThrottleHeader); got != throttleQuota {
		t.Errorf("%s = %q, want %q", ThrottleHeader, got, throttleQuota)
	}
	if got := resp.Header.Get(TenantHeader); got != "q" {
		t.Errorf("%s = %q, want q", TenantHeader, got)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("quota 429 missing Retry-After")
	}

	resp = doSweep(t, ts.URL, "unconstrained", fig7Sweep(4002))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant sweep: %d, want 202", resp.StatusCode)
	}

	if got := metric(t, ts.URL, "qla_serve_throttled_total", `tenant="q"`, `limit="quota"`); got != 1 {
		t.Errorf("tenant q quota throttles = %v, want 1", got)
	}
	if got := metric(t, ts.URL, "qla_jobs_events_total", `event="quota_denied"`); got != 1 {
		t.Errorf("jobs quota_denied = %v, want 1", got)
	}
}
