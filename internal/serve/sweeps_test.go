package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"qla/internal/engine"
	"qla/internal/jobs"
	"qla/internal/sweep"
)

// gridSweep is the acceptance-criteria sweep: 3 axes (param-set ×
// level × bandwidth), 12 points, over the machine-aware EC-latency
// analysis.
const gridSweep = `{
  "base": {"experiment": "ec-latency"},
  "axes": [
    {"field": "machine.param_set", "values": ["expected", "current"]},
    {"field": "machine.level", "values": [1, 2]},
    {"field": "machine.bandwidth", "values": [1, 2, 4]}
  ]
}`

// fig7Sweep is a slower sweep (a few hundred ms) for tests that need
// to observe a running job.
func fig7Sweep(trials int) string {
	return fmt.Sprintf(`{
  "base": {"experiment": "figure7", "params": {"phys-errors": [0.004], "trials": %d, "seed": 3}},
  "axes": [{"field": "params.seed", "values": [31, 32, 33]}]
}`, trials)
}

func postSweep(t *testing.T, url, body string) (status int, sb SubmitBody, raw []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &sb); err != nil {
			t.Fatalf("submit body not JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, sb, raw
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("body not JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode
}

// pollJob polls /v1/jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, base, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var snap jobs.Snapshot
		if status := getJSON(t, base+"/v1/jobs/"+id, &snap); status != http.StatusOK {
			t.Fatalf("poll status %d", status)
		}
		if snap.State.Finished() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepSubmitPollResult is the acceptance-criteria test: a 3-axis
// 12-point sweep submitted via POST /v1/sweeps completes; its per-point
// results are byte-identical to the same Specs run one-by-one through
// POST /v1/run (which reports them as cache hits); and re-submitting
// the identical sweep joins the finished job instantly.
func TestSweepSubmitPollResult(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	status, sb, raw := postSweep(t, ts.URL, gridSweep)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	if sb.Points != 12 || sb.Experiment != "ec-latency" || sb.Existing || sb.JobID == "" {
		t.Fatalf("submit body %+v", sb)
	}

	snap := pollJob(t, ts.URL, sb.JobID)
	if snap.State != jobs.StateDone || snap.Progress.Done != 12 || snap.Progress.Failed != 0 {
		t.Fatalf("terminal snapshot %+v", snap)
	}

	var res sweep.Result
	if status := getJSON(t, ts.URL+"/v1/jobs/"+sb.JobID+"/result", &res); status != http.StatusOK {
		t.Fatalf("result status %d", status)
	}
	if res.Total != 12 || res.OK != 12 || res.Failed != 0 || res.SweepHash != sb.JobID {
		t.Fatalf("sweep result: total=%d ok=%d failed=%d hash=%s", res.Total, res.OK, res.Failed, res.SweepHash)
	}

	// Per-point bit-identity with the synchronous path: running each
	// point's canonical Spec through POST /v1/run must hit the cache the
	// sweep populated and return exactly the bytes the sweep recorded.
	ss, err := sweep.DecodeSpec([]byte(gridSweep))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sweep.Expand(ss)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range sw.Points {
		status, xc, body := postRun(t, ts.URL, string(pt.Canonical.JSON))
		if status != http.StatusOK {
			t.Fatalf("point %d run status %d: %s", i, status, body)
		}
		if xc != "hit" {
			t.Errorf("point %d missed the cache the sweep populated (X-Cache=%q)", i, xc)
		}
		if res.Points[i].SpecHash != pt.Canonical.Hash {
			t.Errorf("point %d hash mismatch", i)
		}
		if !bytes.Equal(body, res.Points[i].Result) {
			t.Errorf("point %d: /v1/run body differs from the sweep's recorded result", i)
		}
	}

	// Identical re-submission joins the finished job: instant, no new
	// execution.
	status, sb2, _ := postSweep(t, ts.URL, gridSweep)
	if status != http.StatusOK || !sb2.Existing || sb2.JobID != sb.JobID || sb2.State != jobs.StateDone {
		t.Fatalf("re-submit: status=%d body=%+v", status, sb2)
	}
	if got := srv.jobs.Stats(); got.Submitted != 1 || got.Deduped != 1 {
		t.Errorf("job stats %+v", got)
	}
}

// TestSweepResubmitAfterExpiryServedFromCache: once the job itself has
// expired, a re-submitted sweep runs as a fresh job whose points are
// all served from the result cache.
func TestSweepResubmitAfterExpiryServedFromCache(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: 30 * time.Millisecond})
	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	pollJob(t, ts.URL, sb.JobID)
	time.Sleep(70 * time.Millisecond) // expire the finished job

	status, sb2, _ := postSweep(t, ts.URL, gridSweep)
	if status != http.StatusAccepted || sb2.Existing {
		t.Fatalf("expired sweep did not resubmit fresh: status=%d %+v", status, sb2)
	}
	pollJob(t, ts.URL, sb2.JobID)
	var res sweep.Result
	getJSON(t, ts.URL+"/v1/jobs/"+sb2.JobID+"/result", &res)
	if res.Cached < res.Total*9/10 {
		t.Errorf("re-submitted sweep served %d/%d from cache, want >= 90%%", res.Cached, res.Total)
	}
}

// TestSweepPersistenceAcrossRestart: with a cache directory, a second
// server process serves a re-submitted sweep's points from disk.
func TestSweepPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	_, sb, _ := postSweep(t, ts1.URL, gridSweep)
	pollJob(t, ts1.URL, sb.JobID)
	ts1.Close()

	srv2, ts2 := newTestServer(t, Config{CacheDir: dir})
	_, sb2, _ := postSweep(t, ts2.URL, gridSweep)
	pollJob(t, ts2.URL, sb2.JobID)
	var res sweep.Result
	getJSON(t, ts2.URL+"/v1/jobs/"+sb2.JobID+"/result", &res)
	if res.Cached != res.Total {
		t.Errorf("restarted server served %d/%d points from the persisted cache", res.Cached, res.Total)
	}
	if cs := srv2.cache.Stats(); cs.DiskHits != uint64(res.Total) {
		t.Errorf("cache stats %+v", cs)
	}
}

// writeRecorder keeps the bytes written to it and, for each Write, the
// backing array and length of the slice it was handed.
type writeRecorder struct {
	buf    bytes.Buffer
	slices map[[2]uintptr]bool
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	if w.slices == nil {
		w.slices = map[[2]uintptr]bool{}
	}
	w.slices[sliceID(p)] = true
	return w.buf.Write(p)
}

func sliceID(p []byte) [2]uintptr {
	return [2]uintptr{uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p))}
}

// TestFinishedSweepReferencesCachedBytes: a finished sweep over cached
// points holds its point payloads by reference — each is written from
// the cache entry's own backing array — is charged its encoded length,
// and the result route writes exactly the bytes json.Marshal gives for
// the same Result, with a Content-Length equal to the body's length.
func TestFinishedSweepReferencesCachedBytes(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	ss, err := sweep.DecodeSpec([]byte(gridSweep))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sweep.Expand(ss)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range sw.Points {
		if status, _, body := postRun(t, ts.URL, string(pt.Canonical.JSON)); status != http.StatusOK {
			t.Fatalf("priming point %d: status %d: %s", i, status, body)
		}
	}
	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	if snap := pollJob(t, ts.URL, sb.JobID); snap.Progress.Cached != len(sw.Points) {
		t.Fatalf("sweep over primed points: %+v", snap)
	}

	job, ok := srv.jobs.Get(sb.JobID)
	if !ok {
		t.Fatal("finished job not stored")
	}
	body, _ := job.Body()
	var rec writeRecorder
	if n, err := body.WriteTo(&rec); err != nil || n != body.Len() {
		t.Fatalf("WriteTo = %d, %v; Len %d", n, err, body.Len())
	}
	for i, pt := range sw.Points {
		stored, ok := srv.cache.Peek(pt.Canonical.Hash)
		if !ok {
			t.Fatalf("point %d not cached", i)
		}
		if !rec.slices[sliceID(stored)] {
			t.Errorf("point %d: the job holds a copy of the cached bytes", i)
		}
	}
	// Settling publishes the state before it charges the budget.
	deadline := time.Now().Add(10 * time.Second)
	for srv.jobs.Stats().ResultBytes == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if charged := srv.jobs.Stats().ResultBytes; charged != body.Len() {
		t.Errorf("charged %d bytes for a %d-byte result", charged, body.Len())
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sb.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(raw)) || int64(len(raw)) != body.Len() {
		t.Fatalf("Content-Length %d, body %d bytes, stored %d", resp.ContentLength, len(raw), body.Len())
	}
	if !bytes.Equal(raw, rec.buf.Bytes()) {
		t.Fatal("the result route wrote other bytes than the stored body")
	}
	var res sweep.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("result bytes differ from json.Marshal of the same Result:\n got %s\nwant %s", raw, want)
	}
}

// TestConcurrentResultFetches: many clients fetching one finished job's
// result at once each get the whole, identical body (run with -race:
// every fetch encodes the shared settled form).
func TestConcurrentResultFetches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	if snap := pollJob(t, ts.URL, sb.JobID); snap.State != jobs.StateDone {
		t.Fatalf("sweep settled %+v", snap)
	}
	fetch := func() ([]byte, error) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sb.JobID + "/result")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	want, err := fetch()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				got, err := fetch()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent fetch: %v, %d bytes (want %d)", err, len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// hotFamily expands the 128-point figure7 family of the heap gate — 8
// trial counts × 16 seeds, run-hot's sweep shape — with each axis's
// values in the order that order shuffles them into (0 = sorted).
func hotFamily(t *testing.T, order uint64) *sweep.Sweep {
	t.Helper()
	trials, seeds := make([]any, 8), make([]any, 16)
	for i := range trials {
		trials[i] = 16 + i
	}
	for i := range seeds {
		seeds[i] = uint64(101 + i)
	}
	if order > 0 {
		rng := rand.New(rand.NewPCG(order, 0))
		rng.Shuffle(len(trials), func(i, j int) { trials[i], trials[j] = trials[j], trials[i] })
		rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	}
	sw, err := sweep.Expand(sweep.Spec{
		Base: engine.Spec{Experiment: "figure7", Params: engine.Params{"phys-errors": []float64{0.004}}},
		Axes: []sweep.Axis{{Field: "params.trials", Values: trials}, {Field: "params.seed", Values: seeds}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// liveHeap returns the bytes of live heap objects.
func liveHeap() uint64 {
	// Two cycles: the first may leave sync.Pool victims behind.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSettledSweepHeapPerPoint is the retention gate, in bytes rather
// than RSS: once a 128-point family is cached, every further sweep over
// it — a new job per axis order, every point a memory hit — retains at
// most 128 B of live heap per point for as long as its job is stored.
// That is the job's whole share (its point records, error texts,
// header and Job); the payloads are the cache's, counted once there.
func TestSettledSweepHeapPerPoint(t *testing.T) {
	const (
		sweeps   = 32
		maxBytes = 128
	)
	srv := New(Config{})
	settle := func(sw *sweep.Sweep) {
		t.Helper()
		job, created, err := srv.startSweep(sw, time.Minute, "", false, "")
		if err != nil || !created {
			t.Fatalf("sweep %.12s: created %v, err %v", sw.Hash, created, err)
		}
		wake, stop := job.Subscribe()
		defer stop()
		for !job.Snapshot().State.Finished() {
			<-wake
		}
		if snap := job.Snapshot(); snap.State != jobs.StateDone {
			t.Fatalf("sweep %.12s settled %+v", sw.Hash, snap)
		}
	}
	settle(hotFamily(t, 0)) // computes and caches every point
	before := liveHeap()
	for k := uint64(1); k <= sweeps; k++ {
		settle(hotFamily(t, k))
	}
	after := liveHeap()
	if s := srv.jobs.Stats(); s.Stored != sweeps+1 {
		t.Fatalf("%d jobs stored, want %d", s.Stored, sweeps+1)
	}
	if c := srv.cache.Stats(); c.Misses != 128 {
		t.Fatalf("%d points computed, want the family's 128", c.Misses)
	}
	perPoint := float64(int64(after)-int64(before)) / (sweeps * 128)
	t.Logf("%.1f B of live heap per retained point", perPoint)
	if perPoint > maxBytes {
		t.Fatalf("a settled sweep retains %.1f B per point, over the %d B gate", perPoint, maxBytes)
	}
}

// TestSweepCycleBandwidthGrid: the shipped cycle-interconnect example
// sweep — 3 axes (bandwidth × EPR generation rate × grid size), 27
// points — completes via POST /v1/sweeps; each point's canonical Spec
// is then a cache hit through POST /v1/run; and a re-submission after
// job expiry is served entirely from the per-point result cache.
func TestSweepCycleBandwidthGrid(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "sweep-cycle-bandwidth.json"))
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	_, ts := newTestServer(t, Config{JobTTL: 30 * time.Millisecond})
	status, sb, resp := postSweep(t, ts.URL, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, resp)
	}
	if sb.Points != 27 || sb.Experiment != "cycle-interconnect" {
		t.Fatalf("submit body %+v", sb)
	}
	snap := pollJob(t, ts.URL, sb.JobID)
	if snap.State != jobs.StateDone || snap.Progress.Done != 27 || snap.Progress.Failed != 0 {
		t.Fatalf("terminal snapshot %+v", snap)
	}
	var res sweep.Result
	if status := getJSON(t, ts.URL+"/v1/jobs/"+sb.JobID+"/result", &res); status != http.StatusOK {
		t.Fatalf("result status %d", status)
	}
	if res.Total != 27 || res.OK != 27 || res.Failed != 0 {
		t.Fatalf("sweep result: total=%d ok=%d failed=%d", res.Total, res.OK, res.Failed)
	}

	// Every point the sweep ran is now a synchronous cache hit.
	ss, err := sweep.DecodeSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sweep.Expand(ss)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range sw.Points {
		status, xc, body := postRun(t, ts.URL, string(pt.Canonical.JSON))
		if status != http.StatusOK {
			t.Fatalf("point %d run status %d: %s", i, status, body)
		}
		if xc != "hit" {
			t.Errorf("point %d missed the cache the sweep populated (X-Cache=%q)", i, xc)
		}
	}

	// After the job expires, an identical sweep runs fresh but every
	// point is served from the result cache.
	time.Sleep(70 * time.Millisecond)
	status, sb2, _ := postSweep(t, ts.URL, body)
	if status != http.StatusAccepted || sb2.Existing {
		t.Fatalf("expired sweep did not resubmit fresh: status=%d %+v", status, sb2)
	}
	pollJob(t, ts.URL, sb2.JobID)
	var res2 sweep.Result
	getJSON(t, ts.URL+"/v1/jobs/"+sb2.JobID+"/result", &res2)
	if res2.Cached != res2.Total {
		t.Errorf("re-submitted cycle sweep served %d/%d points from cache", res2.Cached, res2.Total)
	}
}

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes an event stream until it closes or the deadline
// passes.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestSweepSSEMonotonicProgress: the events stream delivers monotonic
// progress from the first snapshot to done == total, terminated by a
// "done" event carrying the job snapshot.
func TestSweepSSEMonotonicProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, sb, _ := postSweep(t, ts.URL, fig7Sweep(40000))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sb.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	events := readSSE(t, resp.Body) // the server closes the stream after "done"
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least progress+done: %+v", len(events), events)
	}
	last := -1
	for i, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("event %d is %q, want progress", i, ev.name)
		}
		var p jobs.Progress
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("event %d data: %v", i, err)
		}
		if p.Total != 3 {
			t.Errorf("event %d total %d", i, p.Total)
		}
		if p.Done < last {
			t.Errorf("progress rolled back: %d after %d", p.Done, last)
		}
		last = p.Done
	}
	if last != 3 {
		t.Errorf("final progress %d/3", last)
	}
	final := events[len(events)-1]
	if final.name != "done" {
		t.Fatalf("final event %q", final.name)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal([]byte(final.data), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != jobs.StateDone || snap.Progress.Done != 3 {
		t.Errorf("done snapshot %+v", snap)
	}
}

// TestSweepCancel: DELETE /v1/jobs/{id} cancels a running sweep.
func TestSweepCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, sb, _ := postSweep(t, ts.URL, fig7Sweep(120000))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sb.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	snap := pollJob(t, ts.URL, sb.JobID)
	if snap.State != jobs.StateCancelled {
		t.Fatalf("state after cancel: %+v", snap)
	}
	// The cancelled job has no result to fetch.
	if status := getJSON(t, ts.URL+"/v1/jobs/"+sb.JobID+"/result", nil); status != http.StatusGone {
		t.Errorf("result status %d, want 410", status)
	}
}

// TestSweepErrorResponses: submission and job-surface client mistakes
// map to typed statuses with the JSON error envelope.
func TestSweepErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name     string
		body     string
		status   int
		contains string
	}{
		{"malformed JSON", `{"base":`, http.StatusBadRequest, "invalid sweep JSON"},
		{"unknown field", `{"base":{"experiment":"ec-latency"},"bogus":1}`, http.StatusBadRequest, "bogus"},
		{"trailing data", `{"base":{"experiment":"ec-latency"},"axes":[{"field":"machine.level","values":[1]}]} x`, http.StatusBadRequest, "trailing data"},
		{"no axes", `{"base":{"experiment":"ec-latency"},"axes":[]}`, http.StatusBadRequest, "no axes"},
		{"unknown axis field", `{"base":{"experiment":"ec-latency"},"axes":[{"field":"machine.warp","values":[1]}]}`, http.StatusBadRequest, "unknown axis field"},
		{"bad base experiment", `{"base":{"experiment":"no-such"},"axes":[{"field":"machine.level","values":[1]}]}`, http.StatusBadRequest, "unknown experiment"},
		{"duplicate point", `{"base":{"experiment":"ec-latency"},"axes":[{"field":"machine.level","values":[0,2]}]}`, http.StatusBadRequest, "same run"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := postSweep(t, ts.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%s)", status, tc.status, raw)
			}
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); err != nil {
				t.Fatalf("error envelope not JSON: %s", raw)
			}
			if !strings.Contains(eb.Error, tc.contains) {
				t.Errorf("error %q does not contain %q", eb.Error, tc.contains)
			}
		})
	}

	t.Run("unknown job", func(t *testing.T) {
		if status := getJSON(t, ts.URL+"/v1/jobs/nope", nil); status != http.StatusNotFound {
			t.Errorf("status %d", status)
		}
		if status := getJSON(t, ts.URL+"/v1/jobs/nope/result", nil); status != http.StatusNotFound {
			t.Errorf("result status %d", status)
		}
		if status := getJSON(t, ts.URL+"/v1/jobs/nope/events", nil); status != http.StatusNotFound {
			t.Errorf("events status %d", status)
		}
	})

	t.Run("result while running", func(t *testing.T) {
		status, sb, _ := postSweep(t, ts.URL, fig7Sweep(120000))
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		var snap jobs.Snapshot
		getJSON(t, ts.URL+"/v1/jobs/"+sb.JobID, &snap)
		if !snap.State.Finished() {
			if status := getJSON(t, ts.URL+"/v1/jobs/"+sb.JobID+"/result", nil); status != http.StatusConflict {
				t.Errorf("result status %d, want 409", status)
			}
		}
		pollJob(t, ts.URL, sb.JobID)
	})
}

// TestStatsIncludeJobsAndSweeps: /metrics carries the job-manager and
// sweep counters, from which the per-point cache-hit ratio follows.
func TestStatsIncludeJobsAndSweeps(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: 20 * time.Millisecond})
	_, sb, _ := postSweep(t, ts.URL, gridSweep)
	pollJob(t, ts.URL, sb.JobID)
	time.Sleep(50 * time.Millisecond)
	_, sb2, _ := postSweep(t, ts.URL, gridSweep) // fresh job, cached points
	pollJob(t, ts.URL, sb2.JobID)

	submitted := metric(t, ts.URL, "qla_jobs_events_total", `event="submitted"`)
	completed := metric(t, ts.URL, "qla_jobs_events_total", `event="completed"`)
	if submitted != 2 || completed != 2 {
		t.Errorf("jobs submitted=%v completed=%v", submitted, completed)
	}
	requests := metric(t, ts.URL, "qla_http_requests_total", `route="POST /v1/sweeps"`)
	points := metric(t, ts.URL, "qla_sweep_point_duration_seconds_count")
	cached := metric(t, ts.URL, "qla_sweep_point_duration_seconds_count", `outcome="cached"`)
	if requests != 2 || points != 24 || cached != 12 {
		t.Errorf("sweep requests=%v points=%v cached=%v", requests, points, cached)
	}
	if got := cached / points; got < 0.49 || got > 0.51 {
		t.Errorf("cache-hit ratio %f", got)
	}
}
