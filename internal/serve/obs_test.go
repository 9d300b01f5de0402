package serve

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qla/internal/obs"
)

// metricsGolden maps every family GET /metrics renders on a
// standalone server after one run and one sweep to its label names
// (sorted, comma-joined; le excluded). It pins the exposition the
// tests, CI and the benchmark read: renaming or dropping a family, or
// changing its labels, fails TestStatsGoldenShape. The benchmark reads
// eight of these families (perfbench/promtext.go) — the HTTP, cache,
// scheduler, sweep-point and journal ones marked below.
// qla_serve_throttled_total{tenant,limit} renders from the first
// refusal on; the tenant tests read it.
var metricsGolden = map[string]string{
	"qla_cache_bytes":                   "",
	"qla_cache_degrade_events_total":    "",
	"qla_cache_disk_degraded":           "",
	"qla_cache_disk_writes_total":       "",
	"qla_cache_entries":                 "",
	"qla_cache_evictions_total":         "",
	"qla_cache_hits_total":              "tier", // benchmark
	"qla_cache_misses_total":            "",     // benchmark
	"qla_cache_peer_errors_total":       "",
	"qla_cache_peer_misses_total":       "",
	"qla_cache_peer_rtt_seconds":        "",
	"qla_cache_peers_degraded":          "",
	"qla_cache_persist_errors_total":    "",
	"qla_cache_skipped_writes_total":    "",
	"qla_experiments":                   "",
	"qla_http_request_duration_seconds": "route",               // benchmark
	"qla_http_requests_inflight":        "",                    //
	"qla_http_requests_total":           "route,status,tenant", // benchmark
	"qla_jobs_events_total":             "event",
	"qla_jobs_result_bytes":             "",
	"qla_jobs_running":                  "",
	"qla_jobs_stored":                   "",
	"qla_journal_replayed_jobs_total":   "",
	"qla_sched_capacity":                "",
	"qla_sched_in_use":                  "",
	"qla_sched_interactive_reserve":     "",
	"qla_sched_queue_timeouts_total":    "class",
	"qla_sched_queue_wait_seconds":      "class,tenant", // benchmark
	"qla_sched_queued_total":            "class",
	"qla_sched_waiting":                 "",
	"qla_serve_max_queue":               "",
	"qla_serve_peer_serves_total":       "",
	"qla_serve_runs_executed_total":     "",
	"qla_sweep_point_duration_seconds":  "outcome", // benchmark
	"qla_sweep_point_retries_total":     "",
	"qla_sweep_points_retried_total":    "",
	"qla_uptime_seconds":                "",
}

// journalGolden and fleetGolden are the families a -journal-dir server
// and a fleet replica render on top of metricsGolden.
var (
	journalGolden = map[string]string{
		"qla_journal_append_seconds": "", // benchmark
		"qla_journal_dropped_total":  "",
		"qla_journal_errors_total":   "",
		"qla_journal_fsync_seconds":  "", // benchmark
		"qla_journal_records_total":  "kind",
	}
	fleetGolden = map[string]string{
		"qla_fleet_events_total": "event",
	}
)

// scrape fetches GET /metrics as text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// metric scrapes base and sums every sample of the series name whose
// labels contain each given `k="v"` pair — how a /metrics reader gets
// a counter, a gauge or (with a _count suffix) a histogram's count.
func metric(t *testing.T, base, name string, labels ...string) float64 {
	t.Helper()
	total := 0.0
	for _, line := range strings.Split(scrape(t, base), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		series, lbl := line[:cut], ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			series, lbl = series[:i], series[i:]
		}
		if series != name || !containsAll(lbl, labels) {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		total += v
	}
	return total
}

func containsAll(s string, subs []string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// familyLabels maps each family of an exposition to its sorted label
// names, le excluded.
func familyLabels(text string) map[string]string {
	out := map[string]string{}
	sets := map[string]map[string]bool{}
	var fam string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam = strings.Fields(rest)[0]
			sets[fam] = map[string]bool{}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if i := strings.IndexByte(series, '{'); i >= 0 {
			for _, kv := range strings.Split(series[i+1:len(series)-1], `",`) {
				if k, _, _ := strings.Cut(kv, "="); k != "le" {
					sets[fam][k] = true
				}
			}
		}
	}
	for f, set := range sets {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		out[f] = strings.Join(names, ",")
	}
	return out
}

// checkFamilies compares a scrape's families and label names against
// the union of the given golden maps.
func checkFamilies(t *testing.T, what, text string, goldens ...map[string]string) {
	t.Helper()
	want := map[string]string{}
	for _, g := range goldens {
		for f, l := range g {
			want[f] = l
		}
	}
	got := familyLabels(text)
	for f, l := range want {
		if gl, ok := got[f]; !ok {
			t.Errorf("%s: family %s missing from /metrics", what, f)
		} else if gl != l {
			t.Errorf("%s: family %s has labels %q, want %q", what, f, gl, l)
		}
	}
	for f, l := range got {
		if _, ok := want[f]; !ok {
			t.Errorf("%s: family %s{%s} is new: add it to the golden deliberately", what, f, l)
		}
	}
}

// TestStatsGoldenShape pins the /metrics family names and label names
// of a standalone server after one run and one sweep, of a journaled
// server, and of a fleet replica. It also pins the children a fresh
// server renders at zero — the benchmark's family guard needs the
// cache tiers and sweep outcomes present before any traffic.
func TestStatsGoldenShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fresh := scrape(t, ts.URL)
	for _, want := range []string{
		`qla_cache_hits_total{tier="memory"} 0`,
		`qla_cache_hits_total{tier="disk"} 0`,
		`qla_cache_hits_total{tier="peer"} 0`,
		`qla_cache_hits_total{tier="inflight"} 0`,
		"qla_cache_misses_total 0",
		`qla_sweep_point_duration_seconds_count{outcome="ok"} 0`,
		`qla_sweep_point_duration_seconds_count{outcome="cached"} 0`,
		`qla_sweep_point_duration_seconds_count{outcome="error"} 0`,
	} {
		if !strings.Contains(fresh, want) {
			t.Errorf("fresh server /metrics lacks %q", want)
		}
	}
	if status, _, body := postRun(t, ts.URL, tinySpec(30)); status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}
	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	pollJob(t, ts.URL, sb.JobID)
	checkFamilies(t, "standalone", scrape(t, ts.URL), metricsGolden)

	_, jts := newTestServer(t, Config{JournalDir: t.TempDir()})
	_, sb, _ = postSweep(t, jts.URL, gridSweep)
	pollJob(t, jts.URL, sb.JobID)
	postRun(t, jts.URL, tinySpec(30))
	checkFamilies(t, "journal", scrape(t, jts.URL), metricsGolden, journalGolden)

	_, urls := newFleetServers(t, 2, nil)
	postRun(t, urls[0], tinySpec(30))
	_, sb, _ = postSweep(t, urls[0], gridSweep)
	pollJob(t, urls[0], sb.JobID)
	checkFamilies(t, "fleet", scrape(t, urls[0]), metricsGolden, fleetGolden)
}

// TestMetricsEndpoint drives a run and reads GET /metrics: the
// exposition must carry the serve counters, cache tier counters, the
// per-class queue-wait histogram and the per-route HTTP vec, with
// HELP/TYPE headers in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, _, body := postRun(t, ts.URL, tinySpec(31)); status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"# TYPE qla_http_requests_total counter",
		`qla_http_requests_total{route="POST /v1/run",status="200",tenant="default"} 1`,
		"# TYPE qla_cache_hits_total counter",
		`qla_cache_hits_total{tier="memory"}`,
		"# TYPE qla_sched_queue_wait_seconds histogram",
		`qla_sched_queue_wait_seconds_bucket{class="interactive",`,
		`qla_http_requests_total{route="POST /v1/run",status="200"`,
		"qla_http_request_duration_seconds_bucket",
		"qla_sched_capacity",
		"qla_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every sample line belongs to an announced family: no typos in
	// family names, no unannounced series.
	types := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types[strings.Fields(line)[2]] = true
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok && types[trimmed] {
				base = trimmed
			}
		}
		if !types[base] {
			t.Errorf("sample %q has no # TYPE header", line)
		}
	}
}

// TestBuildinfoEndpoint: GET /buildinfo reports the module metadata
// embedded in the binary. Under `go test` only the Go version is
// guaranteed, so that is what is pinned.
func TestBuildinfoEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var bi BuildInfo
	if status := getJSON(t, ts.URL+"/buildinfo", &bi); status != http.StatusOK {
		t.Fatalf("GET /buildinfo: %d", status)
	}
	if !strings.HasPrefix(bi.GoVersion, "go") {
		t.Fatalf("buildinfo go_version %q", bi.GoVersion)
	}
}

// TestTraceHeaderRoundTrip: a well-formed client trace ID is accepted
// and echoed; an absent one is minted; a hostile one is replaced; and
// error envelopes carry the trace for log correlation.
func TestTraceHeaderRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(obs.TraceHeader, "client-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "client-trace-42" {
		t.Fatalf("client trace not echoed: %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(obs.TraceHeader)
	if len(minted) != 32 {
		t.Fatalf("minted trace %q, want 32 hex chars", minted)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(obs.TraceHeader, "bad trace\twith spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); strings.Contains(got, " ") || len(got) != 32 {
		t.Fatalf("hostile trace not replaced: %q", got)
	}

	// Error envelope: invalid spec → 4xx with the trace echoed in JSON.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader("{"))
	req.Header.Set(obs.TraceHeader, "err-trace-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error string `json:"error"`
		Trace string `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Trace != "err-trace-7" {
		t.Fatalf("error envelope trace %q, want err-trace-7 (error=%q)", envelope.Trace, envelope.Error)
	}
}

// logBuffer collects slog text output concurrently.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// lines returns the buffered log lines containing every given substring.
func (l *logBuffer) lines(subs ...string) []string {
	var out []string
outer:
	for _, line := range strings.Split(l.String(), "\n") {
		for _, s := range subs {
			if !strings.Contains(line, s) {
				continue outer
			}
		}
		out = append(out, line)
	}
	return out
}

// TestFleetTraceOneID is the acceptance-criteria tracing test: one
// client-supplied trace ID on a sweep submitted to replica A must show
// up, verbatim, in both replicas' structured logs — at both admissions
// (the forward carries X-QLA-Trace) and at the side of the fleet that
// served a peer's probe for one of the sweep's points. Ledger polls are
// an hour apart, so no prefetch can settle a point: a replica gets each
// point it did not compute by probing the peer that did, under the
// sweep's trace.
func TestFleetTraceOneID(t *testing.T) {
	logs := make([]*logBuffer, 2)
	_, urls := newFleetServers(t, 2, func(i int, cfg *Config) {
		logs[i] = &logBuffer{}
		cfg.Logger = slog.New(slog.NewTextHandler(logs[i], nil))
		cfg.FleetPoll = time.Hour
	})

	const trace = "trace-fleet-e2e-0001"
	req, _ := http.NewRequest(http.MethodPost, urls[0]+"/v1/sweeps", strings.NewReader(gridSweep))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sb struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Fatalf("sweep response trace %q", got)
	}

	snap := pollJob(t, urls[0], sb.JobID)
	if string(snap.State) != "done" {
		t.Fatalf("sweep state %s", snap.State)
	}

	if n := len(logs[0].lines("sweep admitted", "trace="+trace)); n != 1 {
		t.Fatalf("origin logged %d admission lines with trace %s:\n%s", n, trace, logs[0].String())
	}
	// The fire-and-forget forward may land after the origin sees the job
	// done; give B a moment, then let B's job settle too.
	deadline := time.Now().Add(5 * time.Second)
	for len(logs[1].lines("sweep admitted", "trace="+trace)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("peer never logged the forwarded admission with trace %s:\n%s", trace, logs[1].String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap := pollJob(t, urls[1], sb.JobID); string(snap.State) != "done" {
		t.Fatalf("peer sweep state %s", snap.State)
	}
	// The same single ID follows the work across the fleet: the peer
	// cache fetches each side served for the other log it.
	served := len(logs[0].lines("peer cache fetch served", "trace="+trace)) +
		len(logs[1].lines("peer cache fetch served", "trace="+trace))
	if served == 0 {
		t.Fatalf("no peer cache fetch carried trace %s:\nA:\n%s\nB:\n%s", trace, logs[0].String(), logs[1].String())
	}
	// Any trace attr on fleet log lines must be this trace or a minted
	// 32-char ID (peer poll prefetches run outside the request) — a
	// truncated or mangled ID would show up here.
	for i, lb := range logs {
		for _, line := range lb.lines("trace=") {
			f := line[strings.Index(line, "trace=")+len("trace="):]
			if j := strings.IndexByte(f, ' '); j >= 0 {
				f = f[:j]
			}
			if f != trace && len(f) != 32 {
				t.Errorf("replica %d logged malformed trace %q in %q", i, f, line)
			}
		}
	}
}
