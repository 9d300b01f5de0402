package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinySpec is a figure7 Spec small enough to run in milliseconds; seed
// varies the content address, so distinct seeds are distinct runs.
func tinySpec(seed int) string {
	return fmt.Sprintf(`{"experiment":"figure7","params":{"phys-errors":[0.004],"trials":16,"seed":%d}}`, seed)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postRun(t *testing.T, url, spec string) (status int, xcache string, body []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), raw
}

// TestRepeatedSpecServedFromCache is the acceptance-criteria test: a
// repeated figure7 Spec served over HTTP returns a bit-identical Result
// body from cache, with the hit visible both in X-Cache and the cache
// counters.
func TestRepeatedSpecServedFromCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	status, xc, first := postRun(t, ts.URL, tinySpec(11))
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("first run: status=%d X-Cache=%q body=%s", status, xc, first)
	}
	status, xc, second := postRun(t, ts.URL, tinySpec(11))
	if status != http.StatusOK || xc != "hit" {
		t.Fatalf("second run: status=%d X-Cache=%q", status, xc)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", first, second)
	}
	var res struct {
		Experiment string `json:"experiment"`
		Seed       uint64 `json:"seed"`
	}
	if err := json.Unmarshal(second, &res); err != nil {
		t.Fatalf("Result body not JSON: %v", err)
	}
	if res.Experiment != "figure7" || res.Seed != 11 {
		t.Errorf("Result = %+v", res)
	}
	cs := srv.cache.Stats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats %+v", cs)
	}
}

// TestAliasAndDefaultsShareCacheEntry: a Spec spelled via alias with
// defaults made explicit hashes to the same content address as the
// canonical spelling, so the second request is a cache hit.
func TestAliasAndDefaultsShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	canonical := `{"experiment":"run-chain","params":{"trials":20,"seed":3}}`
	spelled := `{"experiment":"run-chain","params":{"seed":3,"trials":20,"links":2,"link-eps":0.06,"purify-rounds":1,"swap-eps":0}}`
	status, xc, first := postRun(t, ts.URL, canonical)
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("canonical: status=%d X-Cache=%q body=%s", status, xc, first)
	}
	status, xc, second := postRun(t, ts.URL, spelled)
	if status != http.StatusOK {
		t.Fatalf("spelled-out: status=%d body=%s", status, second)
	}
	if xc != "hit" {
		t.Errorf("equivalent spec missed the cache (X-Cache=%q)", xc)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("equivalent specs returned different bodies")
	}
}

// TestConcurrentRunsSingleflightAndBudget drives ≥8 concurrent POSTs —
// a mix of identical and distinct Specs — through a 2-worker budget,
// asserting (a) responses for the same Spec are byte-identical whether
// hit or miss, (b) singleflight collapses duplicates to one execution
// per distinct Spec, and (c) the global worker budget is never
// exceeded. Run under -race in CI.
func TestConcurrentRunsSingleflightAndBudget(t *testing.T) {
	const workers = 2
	srv, ts := newTestServer(t, Config{Workers: workers})

	seeds := []int{101, 101, 101, 101, 202, 202, 303, 404, 404, 303}
	bodies := make([][]byte, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i, seed int) {
			defer wg.Done()
			status, xc, body := postRun(t, ts.URL, tinySpec(seed))
			if status != http.StatusOK {
				t.Errorf("request %d: status %d body %s", i, status, body)
				return
			}
			if xc != "hit" && xc != "miss" {
				t.Errorf("request %d: X-Cache=%q", i, xc)
			}
			bodies[i] = body
		}(i, seed)
	}
	wg.Wait()

	// (a) byte-identical within each Spec group, distinct across groups.
	bySeed := map[int][]byte{}
	for i, seed := range seeds {
		if prev, ok := bySeed[seed]; ok {
			if !bytes.Equal(prev, bodies[i]) {
				t.Errorf("seed %d: divergent bodies across hit/miss", seed)
			}
		} else {
			bySeed[seed] = bodies[i]
		}
	}
	if bytes.Equal(bySeed[101], bySeed[202]) {
		t.Error("distinct seeds returned identical bodies")
	}

	// (b) one execution per distinct Spec.
	distinct := uint64(len(bySeed))
	if got := srv.runsExecuted.Value(); got != distinct {
		t.Errorf("runs executed = %d, want %d (singleflight must collapse duplicates)", got, distinct)
	}
	cs := srv.cache.Stats()
	if cs.Misses != distinct {
		t.Errorf("cache misses = %d, want %d", cs.Misses, distinct)
	}
	if cs.Hits+cs.Dedups != uint64(len(seeds))-distinct {
		t.Errorf("hits(%d)+dedups(%d) != %d duplicates", cs.Hits, cs.Dedups, len(seeds)-int(distinct))
	}

	// (c) the shared worker budget held.
	ss := srv.pool.Stats()
	if ss.Peak > workers {
		t.Errorf("scheduler peak %d exceeded the %d-worker budget", ss.Peak, workers)
	}
	if ss.InUse != 0 || ss.Waiting != 0 {
		t.Errorf("scheduler not drained: %+v", ss)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) < 20 {
		t.Fatalf("catalog has %d experiments", len(infos))
	}
	byName := map[string]ExperimentInfo{}
	for _, e := range infos {
		byName[e.Name] = e
	}
	fig7, ok := byName["figure7"]
	if !ok {
		t.Fatal("figure7 missing from the catalog")
	}
	if len(fig7.Aliases) == 0 || fig7.Title == "" || fig7.Doc == "" {
		t.Errorf("figure7 catalog entry incomplete: %+v", fig7)
	}
	var seedParam *ParamInfo
	for i := range fig7.Params {
		if fig7.Params[i].Name == "seed" {
			seedParam = &fig7.Params[i]
		}
	}
	if seedParam == nil || seedParam.Kind != "uint" || seedParam.Doc == "" {
		t.Errorf("figure7 seed parameter undocumented: %+v", seedParam)
	}
	// A zero-valued default (run-chain swap-eps: 0) must stay
	// distinguishable from no default (equation2 p0: optional).
	param := func(exp, name string) ParamInfo {
		t.Helper()
		for _, p := range byName[exp].Params {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("%s has no parameter %q", exp, name)
		return ParamInfo{}
	}
	if p := param("run-chain", "swap-eps"); p.Optional || p.Default != 0.0 {
		t.Errorf("swap-eps catalog entry lost its zero default: %+v", p)
	}
	if p := param("equation2", "p0"); !p.Optional || p.Default != nil {
		t.Errorf("p0 catalog entry not marked optional: %+v", p)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts.URL, tinySpec(5))
	postRun(t, ts.URL, tinySpec(5))
	requests := metric(t, ts.URL, "qla_http_requests_total", `route="POST /v1/run"`)
	executed := metric(t, ts.URL, "qla_serve_runs_executed_total")
	if requests != 2 || executed != 1 {
		t.Errorf("requests=%v executed=%v", requests, executed)
	}
	hits := metric(t, ts.URL, "qla_cache_hits_total", `tier="memory"`)
	misses := metric(t, ts.URL, "qla_cache_misses_total")
	if hits != 1 || misses != 1 {
		t.Errorf("cache hits=%v misses=%v", hits, misses)
	}
	if n := metric(t, ts.URL, "qla_sched_capacity"); n < 1 {
		t.Errorf("qla_sched_capacity = %v", n)
	}
	if n := metric(t, ts.URL, "qla_experiments"); n < 20 {
		t.Errorf("qla_experiments = %v", n)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body %v", body)
	}
}

// TestErrorResponses: every client mistake maps to a 400 with a JSON
// error envelope carrying the engine's validation text; deadlines map
// to 504.
func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name     string
		spec     string
		status   int
		contains string
	}{
		{"malformed JSON", `{"experiment":`, http.StatusBadRequest, "invalid spec JSON"},
		{"unknown field", `{"experiment":"table1","bogus":1}`, http.StatusBadRequest, "bogus"},
		{"trailing data", `{"experiment":"table1"} extra`, http.StatusBadRequest, "trailing data"},
		{"unknown experiment", `{"experiment":"no-such"}`, http.StatusBadRequest, "unknown experiment"},
		{"unknown parameter", `{"experiment":"figure7","params":{"bogus":1}}`, http.StatusBadRequest, "unknown parameter"},
		{"invalid chain backend", `{"experiment":"run-chain","params":{"backend":"warp"}}`, http.StatusBadRequest, `run-chain: engine: parameter "backend": invalid value "warp" (want one of "batch", "scalar")`},
		{"invalid codes backend", `{"experiment":"code-ablation","params":{"backend":"tableau"}}`, http.StatusBadRequest, `parameter "backend": invalid value "tableau" (want one of "batch", "scalar")`},
		{"machine where unused", `{"experiment":"table2","machine":{"param_set":"current"}}`, http.StatusBadRequest, "no machine configuration"},
		{"bad param set", `{"experiment":"ec-latency","machine":{"param_set":"warp"}}`, http.StatusBadRequest, `unknown parameter set "warp"`},
		{"negative level", `{"experiment":"ec-latency","machine":{"level":-1}}`, http.StatusBadRequest, "negative recursion level -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := postRun(t, ts.URL, tc.spec)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error envelope not JSON: %s", body)
			}
			if !strings.Contains(eb.Error, tc.contains) {
				t.Errorf("error %q does not contain %q", eb.Error, tc.contains)
			}
		})
	}

	t.Run("bad timeout query", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/run?timeout=banana", "application/json", strings.NewReader(tinySpec(1)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})

	t.Run("deadline exceeded", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/run?timeout=1ns", "application/json", strings.NewReader(tinySpec(77)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d, body %s", resp.StatusCode, body)
		}
	})

	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/run")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/run status %d", resp.StatusCode)
		}
	})
}

// TestTimeoutClamped: a request asking beyond MaxTimeout is clamped,
// not rejected — the tiny run still completes.
func TestTimeoutClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTimeout: 5 * time.Second})
	resp, err := http.Post(ts.URL+"/v1/run?timeout=24h", "application/json", strings.NewReader(tinySpec(9)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
}

// TestBodyLimit: a request body one byte over the 1 MiB cap is
// rejected as 413 on both POST routes, not conflated with malformed
// JSON: each body is a valid request padded with whitespace.
func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for route, doc := range map[string]string{
		"/v1/run":    tinySpec(12),
		"/v1/sweeps": fig7Sweep(64),
	} {
		body := doc + strings.Repeat(" ", 1<<20+1-len(doc))
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", route, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status %d, body %s", route, resp.StatusCode, raw)
		}
	}
}

// TestHotRunAnsweredFromMemory: a memory hit on POST /v1/run is
// answered before the shed check and the request deadline, but after
// the tenant rate limit and the ?timeout= check — and with the stored
// bytes, X-Cache: hit and the spec's X-Spec-Hash, counted as a memory
// hit.
func TestHotRunAnsweredFromMemory(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TenantRPS: 0.1, TenantBurst: 2})
	read := func(resp *http.Response) []byte {
		t.Helper()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	miss := doRun(t, ts.URL, "hot", tinySpec(90))
	first := read(miss)
	if miss.StatusCode != http.StatusOK || miss.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first run: %d %s", miss.StatusCode, miss.Header.Get("X-Cache"))
	}
	hit := doRun(t, ts.URL, "hot", tinySpec(90))
	if again := read(hit); hit.StatusCode != http.StatusOK || hit.Header.Get("X-Cache") != "hit" || !bytes.Equal(again, first) {
		t.Fatalf("repeat run: %d X-Cache %q, same bytes %v", hit.StatusCode, hit.Header.Get("X-Cache"), bytes.Equal(again, first))
	}
	if h := hit.Header.Get("X-Spec-Hash"); h == "" || h != miss.Header.Get("X-Spec-Hash") {
		t.Fatalf("X-Spec-Hash %q on the hit, %q on the miss", h, miss.Header.Get("X-Spec-Hash"))
	}
	if n := metric(t, ts.URL, "qla_cache_hits_total", `tier="memory"`); n != 1 {
		t.Errorf("memory hits = %v, want 1", n)
	}
	bad, err := http.Post(ts.URL+"/v1/run?timeout=abc", "application/json", strings.NewReader(tinySpec(90)))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("hot run with ?timeout=abc: %d, want 400", bad.StatusCode)
	}
	if limited := doRun(t, ts.URL, "hot", tinySpec(90)); limited.StatusCode != http.StatusTooManyRequests {
		t.Errorf("hot run over the tenant rate limit: %d, want 429", limited.StatusCode)
	}
}
