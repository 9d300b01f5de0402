package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qla/internal/engine"
	"qla/internal/faultinject"
	"qla/internal/jobs"
	"qla/internal/journal"
	"qla/internal/sched"
	"qla/internal/sweep"
)

// saturate fills the scheduler: it takes every slot and parks enough
// extra acquirers to push Waiting to want. Returns a release func.
func saturate(t *testing.T, s *Server, want int) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var rels []func()
	for i := 0; i < s.cfg.Workers; i++ {
		_, rel, err := s.pool.Acquire(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	for i := 0; i < want; i++ {
		go s.pool.Acquire(ctx, 1) // parks: pool is full
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Stats().Waiting < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters: %+v", want, s.pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		cancel()
		for _, rel := range rels {
			rel()
		}
	}
}

// TestLoadShedUncachedRun: with the scheduler queue over the bound, an
// uncached POST /v1/run is refused with 503 + Retry-After — but a spec
// the cache can answer is still served.
func TestLoadShedUncachedRun(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	// Prime the cache while the server is healthy.
	if status, _, raw := postRun(t, ts.URL, tinySpec(50)); status != http.StatusOK {
		t.Fatalf("prime run: %d %s", status, raw)
	}

	release := saturate(t, srv, 1)
	defer release()

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinySpec(51)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached run under overload: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header %q", ra)
	}

	// The cached spec bypasses the shed: no fresh compute needed.
	if status, xc, raw := postRun(t, ts.URL, tinySpec(50)); status != http.StatusOK || xc != "hit" {
		t.Fatalf("cached run under overload: status %d xcache %q %s", status, xc, raw)
	}

	if n := metric(t, ts.URL, "qla_serve_throttled_total", `limit="queue"`); n != 1 {
		t.Fatalf("queue throttles = %v, want 1", n)
	}
	if n := metric(t, ts.URL, "qla_serve_max_queue"); n != 1 {
		t.Fatalf("qla_serve_max_queue = %v, want 1", n)
	}
}

// TestLoadShedSweepSubmission: fresh sweep submissions are shed under
// overload; re-submitting a finished job's sweep joins it regardless.
func TestLoadShedSweepSubmission(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	pollJob(t, ts.URL, sb.JobID)

	release := saturate(t, srv, 1)
	defer release()

	status, _, raw := postSweep(t, ts.URL, fig7Sweep(16))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("fresh sweep under overload: status %d %s", status, raw)
	}
	if !strings.Contains(string(raw), "retry after") {
		t.Fatalf("shed body %s", raw)
	}

	// Joining an existing job needs no new compute and is never shed.
	status, sb2, raw := postSweep(t, ts.URL, gridSweep)
	if status != http.StatusOK || !sb2.Existing || sb2.JobID != sb.JobID {
		t.Fatalf("existing sweep under overload: status %d body %+v %s", status, sb2, raw)
	}
}

// TestOverloadedAllocatesNothing: the sweep-submission load-shed check
// runs on every sweep submission, so it reads the backlog without
// building a scheduler stats snapshot.
func TestOverloadedAllocatesNothing(t *testing.T) {
	srv := New(Config{Workers: 2})
	if allocs := testing.AllocsPerRun(100, func() { srv.overloaded() }); allocs != 0 {
		t.Fatalf("overloaded allocates %v times per call", allocs)
	}
}

// TestCorruptDiskEntryRecomputed: a cache file that is not JSON is a
// miss, not bytes to replay — /v1/run computes afresh, answers
// X-Cache: miss, and the write-through replaces the file.
func TestCorruptDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{CacheDir: dir})
	_, _, want := postRun(t, ts.URL, tinySpec(61))
	spec, err := engine.DecodeSpec([]byte(tinySpec(61)))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := engine.MakeCanonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, canon.Hash)
	if err := os.WriteFile(path, want[:len(want)/2], 0o644); err != nil { // a torn write
		t.Fatal(err)
	}

	// A fresh process over the same directory: only the disk tier holds
	// the entry.
	_, ts2 := newTestServer(t, Config{CacheDir: dir})
	status, xc, body := postRun(t, ts2.URL, tinySpec(61))
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("corrupt entry: status=%d X-Cache=%q body=%s", status, xc, body)
	}
	// Fresh bytes: the same data as the first run, its own timing.
	var first, again struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(want, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &again); err != nil || !bytes.Equal(first.Data, again.Data) {
		t.Fatalf("recomputed body %s (%v); want the data %s", body, err, first.Data)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, body) {
		t.Fatalf("corrupt file not rewritten: %q, %v", onDisk, err)
	}
}

// TestUnboundedQueueNeverSheds: MaxQueue < 0 disables the bound.
func TestUnboundedQueueNeverSheds(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: -1})
	release := saturate(t, srv, 2)
	// Release promptly so the queued request below can actually run.
	go func() { time.Sleep(50 * time.Millisecond); release() }()
	status, _, raw := postRun(t, ts.URL, tinySpec(52))
	if status != http.StatusOK {
		t.Fatalf("unbounded queue shed a request: %d %s", status, raw)
	}
	if n := metric(t, ts.URL, "qla_serve_throttled_total", `limit="queue"`); n != 0 {
		t.Fatalf("queue throttles = %v, want 0", n)
	}
}

// TestLoadShedSparesPeerHit: a run is refused for overload only once
// every tier has missed. With replica B's queue at its bound, a spec
// replica A computed is served from B's peer tier, without a worker,
// instead of being shed.
func TestLoadShedSparesPeerHit(t *testing.T) {
	srvs, urls := newFleetServers(t, 2, func(_ int, cfg *Config) { cfg.Workers, cfg.MaxQueue = 1, 1 })
	if status, xc, raw := postRun(t, urls[0], tinySpec(54)); status != http.StatusOK || xc != "miss" {
		t.Fatalf("run on A: status %d xcache %q %s", status, xc, raw)
	}
	release := saturate(t, srvs[1], 1)
	defer release()

	if status, xc, raw := postRun(t, urls[1], tinySpec(54)); status != http.StatusOK || xc != "hit" {
		t.Fatalf("run on overloaded B: status %d xcache %q %s, want a peer-tier hit", status, xc, raw)
	}
	if n := metric(t, urls[1], "qla_cache_hits_total", `tier="peer"`); n != 1 {
		t.Fatalf("B peer-tier hits = %v, want 1", n)
	}
	if n := metric(t, urls[1], "qla_serve_throttled_total", `limit="queue"`); n != 0 {
		t.Fatalf("B queue throttles = %v, want 0", n)
	}
}

// TestLoadShedSparesIdleReserve: a queue at its bound sheds a run only
// when no worker is free for it. The one bulk slot of a 2-worker pool
// is held with two bulk acquirers queued behind it, but the reserved
// interactive slot is idle, so an uncached run computes there.
func TestLoadShedSparesIdleReserve(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, InteractiveReserve: 1, MaxQueue: 2})
	ctx, cancel := context.WithCancel(sched.WithIdentity(context.Background(), sched.Identity{Tenant: "batch", Class: sched.ClassBulk}))
	_, rel, err := srv.pool.Acquire(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cancel(); rel() }()
	for i := 0; i < 2; i++ {
		go srv.pool.Acquire(ctx, 1) // parks: bulk is at its cap
	}
	for deadline := time.Now().Add(5 * time.Second); srv.pool.Stats().Waiting < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("bulk acquirers never queued: %+v", srv.pool.Stats())
		}
	}

	if status, xc, raw := postRun(t, ts.URL, tinySpec(55)); status != http.StatusOK || xc != "miss" {
		t.Fatalf("uncached run beside an idle reserved slot: status %d xcache %q %s", status, xc, raw)
	}
}

// TestUnusableCacheDirRunsMemoryOnly: a -cache-dir the cache cannot
// create disables the disk tier, and the resolved Config says so
// instead of naming the directory.
func TestUnusableCacheDirRunsMemoryOnly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{CacheDir: filepath.Join(file, "cache"), Logger: slog.New(slog.DiscardHandler)})
	if dir := srv.Config().CacheDir; dir != "" {
		t.Fatalf("Config().CacheDir = %q for a disabled disk tier, want \"\"", dir)
	}
}

// TestJournalReplayCompletesSweep is the crash-recovery core: an
// unfinished journal entry left by a dead process is re-admitted at
// startup and completes from the persisted point cache — no HTTP
// submission, no recompute.
func TestJournalReplayCompletesSweep(t *testing.T) {
	cacheDir := t.TempDir()
	journalDir := t.TempDir()

	// Process 1 runs the sweep to completion, populating the disk cache.
	_, ts1 := newTestServer(t, Config{CacheDir: cacheDir, JournalDir: journalDir})
	_, sb, _ := postSweep(t, ts1.URL, gridSweep)
	pollJob(t, ts1.URL, sb.JobID)
	ts1.Close()

	// Fabricate the crash: an admission file nothing removed, exactly
	// what a kill -9 mid-sweep leaves behind.
	sw, err := sweep.Expand(mustDecodeSpec(t, gridSweep))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Hash != sb.JobID {
		t.Fatalf("sweep hash %s != job id %s", sw.Hash, sb.JobID)
	}
	j, err := journal.Open(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admit(sw.Hash, journal.KindSweep, "", sw.JSON); err != nil {
		t.Fatal(err)
	}

	// Process 2 replays before serving.
	srv2, ts2 := newTestServer(t, Config{CacheDir: cacheDir, JournalDir: journalDir})
	n, err := srv2.ReplayJournal()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d jobs, want 1", n)
	}
	snap := pollJob(t, ts2.URL, sb.JobID) // job exists without any POST
	if string(snap.State) != "done" {
		t.Fatalf("replayed job state %q", snap.State)
	}
	var res sweep.Result
	getJSON(t, ts2.URL+"/v1/jobs/"+sb.JobID+"/result", &res)
	if res.Cached != res.Total {
		t.Fatalf("replayed sweep recomputed: %d/%d cached", res.Cached, res.Total)
	}
	if n := metric(t, ts2.URL, "qla_journal_replayed_jobs_total"); n != 1 {
		t.Fatalf("qla_journal_replayed_jobs_total = %v, want 1", n)
	}
	// The settled entry removed its file: a third start has nothing to do.
	j3, err := journal.Open(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if pend, _ := j3.Replay(); len(pend) != 0 {
		t.Fatalf("journal not drained after completion: %+v", pend)
	}
}

// TestJournalFileLivesWithItsJob: a sweep's journal file exists only
// while its job is unfinished and holds exactly its one admission line
// all that time, in the format earlier versions wrote first, however
// many points settle. A job that settles, is cancelled or fails leaves
// no file, and neither does a fresh admission whose submission joined
// a finished job or was refused.
func TestJournalFileLivesWithItsJob(t *testing.T) {
	journalDir := t.TempDir()
	srv, ts := newTestServer(t, Config{JournalDir: journalDir, MaxJobs: 1})
	// Once hang is set, one point attempt passes the fault seam and
	// every later one hangs until its sweep ends.
	var (
		hang   atomic.Bool
		passed atomic.Int32
	)
	srv.fault = func(ctx context.Context, _ string) error {
		if hang.Load() && passed.Add(1) > 1 {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	wals := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(journalDir, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	if snap := pollJob(t, ts.URL, sb.JobID); snap.State != jobs.StateDone || len(wals()) != 0 {
		t.Fatalf("settled job: state %s, journal files %v", snap.State, wals())
	}
	if status, sb2, _ := postSweep(t, ts.URL, gridSweep); status != http.StatusOK || !sb2.Existing || len(wals()) != 0 {
		t.Fatalf("joining the finished job: status %d, journal files %v", status, wals())
	}

	hang.Store(true)
	running := fig7Sweep(16)
	_, sb, _ = postSweep(t, ts.URL, running)
	sw, err := sweep.Expand(mustDecodeSpec(t, running))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var snap jobs.Snapshot
		if getJSON(t, ts.URL+"/v1/jobs/"+sb.JobID, &snap); snap.Progress.Done == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no point of the running sweep settled")
		}
	}
	want := `{"v":1,"id":"` + sw.Hash + `","kind":"sweep","tenant":"` + sched.DefaultTenant + `","spec":` + string(sw.JSON) + "}\n"
	if got, err := os.ReadFile(filepath.Join(journalDir, sw.Hash+".wal")); err != nil || string(got) != want {
		t.Fatalf("running job's journal file %q (%v), want the one admission line %q", got, err, want)
	}
	// The store holds one job, and it is running: a new sweep is refused.
	if status, _, raw := postSweep(t, ts.URL, fig7Sweep(17)); status != http.StatusServiceUnavailable || len(wals()) != 1 {
		t.Fatalf("refused sweep: status %d %s, journal files %v", status, raw, wals())
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sb.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap := pollJob(t, ts.URL, sb.JobID); snap.State != jobs.StateCancelled || len(wals()) != 0 {
		t.Fatalf("cancelled job: state %s, journal files %v", snap.State, wals())
	}

	// A sweep whose deadline passes while its points hang fails.
	resp, err = http.Post(ts.URL+"/v1/sweeps?timeout=50ms", "application/json", strings.NewReader(fig7Sweep(18)))
	if err != nil {
		t.Fatal(err)
	}
	var failing SubmitBody
	err = json.NewDecoder(resp.Body).Decode(&failing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap := pollJob(t, ts.URL, failing.JobID); snap.State != jobs.StateFailed || len(wals()) != 0 {
		t.Fatalf("failed job: state %s, journal files %v", snap.State, wals())
	}
	if st := srv.journal.Stats(); st.Errors != 0 || st.Live != 0 {
		t.Fatalf("journal stats %+v", st)
	}
}

// TestJournalGarbageDropped: a journal entry that cannot be decoded
// back into a sweep is dropped at replay, not retried forever.
func TestJournalGarbageDropped(t *testing.T) {
	journalDir := t.TempDir()
	j, err := journal.Open(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admit("nothex", journal.KindSweep, "", []byte(`{"bogus":true}`)); err != nil {
		t.Fatal(err)
	}

	srv, _ := newTestServer(t, Config{JournalDir: journalDir})
	n, err := srv.ReplayJournal()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("garbage entry replayed as %d job(s)", n)
	}
	if st := srv.journal.Stats(); st.Dropped != 1 {
		t.Fatalf("journal stats %+v", st)
	}
}

// TestSweepRetryVisible: an injected transient failure is retried per
// policy, and the attempt counts surface in the job result and
// /metrics — the acceptance-criteria observability check.
func TestSweepRetryVisible(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// First fault-hook call fails once, transiently; every later call
	// passes. Exactly one point needs its second attempt.
	srv.fault = faultinject.New(faultinject.Rule{}).Hook()

	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	pollJob(t, ts.URL, sb.JobID)
	var res sweep.Result
	getJSON(t, ts.URL+"/v1/jobs/"+sb.JobID+"/result", &res)
	if res.OK != res.Total || res.Failed != 0 {
		t.Fatalf("sweep did not recover: %+v", res)
	}
	if res.Retried != 1 || res.RetryAttempts != 1 {
		t.Fatalf("retried=%d attempts=%d, want 1/1", res.Retried, res.RetryAttempts)
	}
	retried := 0
	for _, pr := range res.Points {
		if pr.Attempts > 1 {
			retried++
		}
	}
	if retried != 1 {
		t.Fatalf("%d points report extra attempts, want 1", retried)
	}

	retriedPoints := metric(t, ts.URL, "qla_sweep_points_retried_total")
	attempts := metric(t, ts.URL, "qla_sweep_point_retries_total")
	if retriedPoints != 1 || attempts != 1 {
		t.Fatalf("/metrics points retried %v, retry attempts %v; want 1/1", retriedPoints, attempts)
	}
}

// TestPointRetriesDisabled: PointRetries < 0 turns retries off — an
// injected failure lands as a failed point on its only attempt.
func TestPointRetriesDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Config{PointRetries: -1})
	srv.fault = faultinject.New(faultinject.Rule{}).Hook()

	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	pollJob(t, ts.URL, sb.JobID)
	var res sweep.Result
	getJSON(t, ts.URL+"/v1/jobs/"+sb.JobID+"/result", &res)
	if res.Failed != 1 || res.Retried != 0 {
		t.Fatalf("retries not disabled: %+v", res)
	}
	for _, pr := range res.Points {
		if pr.Attempts > 1 {
			t.Fatalf("point %d got %d attempts with retries off", pr.Index, pr.Attempts)
		}
	}
}

func mustDecodeSpec(t *testing.T, raw string) sweep.Spec {
	t.Helper()
	spec, err := sweep.DecodeSpec([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestJobStoreSaturationRetryAfterScaled: the 503 for a saturated job
// store quotes the same backlog-scaled Retry-After as the load-shed
// path — not a constant — so clients back off proportionally.
func TestJobStoreSaturationRetryAfterScaled(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: -1, MaxJobs: 1})
	// Park the only job slot on a sweep whose first point hangs in the
	// fault hook — upstream of the scheduler, so the pool stays ours to
	// saturate deterministically.
	srv.fault = faultinject.New(faultinject.Rule{Mode: faultinject.Hang, Times: -1}).Hook()
	_, sb, _ := postSweep(t, ts.URL, fig7Sweep(16))

	release := saturate(t, srv, 5)
	defer release()

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(gridSweep))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated job store: status %d, want 503", resp.StatusCode)
	}
	// Workers=1 with 5 parked acquirers: 1 + 5/1 = 6 seconds.
	if ra := resp.Header.Get("Retry-After"); ra != "6" {
		t.Fatalf("Retry-After = %q, want backlog-scaled \"6\"", ra)
	}

	// Unblock the hung sweep so the job goroutine can exit.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sb.JobID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// TestShedUnreadableDiskEntry: a run whose disk entry cannot be read
// is a disk miss, so under overload it is shed once the lookup has
// missed, not ridden into a saturated pool on the strength of a file
// being there. A directory squatting on the cache file path is the
// unreadable entry.
func TestShedUnreadableDiskEntry(t *testing.T) {
	cacheDir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1, CacheDir: cacheDir})

	spec, err := engine.DecodeSpec([]byte(tinySpec(53)))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := engine.MakeCanonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(cacheDir, canon.Hash), 0o755); err != nil {
		t.Fatal(err)
	}

	release := saturate(t, srv, 1)
	defer release()

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinySpec(53)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unreadable entry under overload: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header %q", ra)
	}
	if n := metric(t, ts.URL, "qla_serve_throttled_total", `limit="queue"`); n != 1 {
		t.Fatalf("queue throttles = %v, want 1", n)
	}
}
