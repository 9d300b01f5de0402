package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCrashRecovery is the durability acceptance test, end to end
// against the real binary: kill -9 a qlaserve mid-sweep, restart it
// over the same -journal-dir and -cache-dir, and the sweep is
// re-admitted and completes with the already-finished points served
// from the persisted cache instead of recomputed.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server process")
	}
	bin := buildServer(t)
	work := t.TempDir()
	cacheDir := filepath.Join(work, "cache")
	journalDir := filepath.Join(work, "journal")
	addr := freeAddr(t)
	base := "http://" + addr

	args := []string{
		"-addr", addr,
		"-cache-dir", cacheDir,
		"-journal-dir", journalDir,
		"-workers", "1", // slow the sweep down so the kill lands mid-run
	}
	proc1 := startServer(t, bin, args)
	waitHealthy(t, base)

	// 16 points × ~200 ms on one worker: seconds of runtime to kill into.
	sweep := `{
	  "base": {"experiment": "figure7", "params": {"phys-errors": [0.004], "trials": 60000, "seed": 3}},
	  "axes": [{"field": "params.seed", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}]
	}`
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	var sb struct {
		JobID  string `json:"job_id"`
		Points int    `json:"points"`
	}
	decodeAndClose(t, resp, &sb)
	if resp.StatusCode != http.StatusAccepted || sb.Points != 16 {
		t.Fatalf("submit: status %d body %+v", resp.StatusCode, sb)
	}

	// Let part of the sweep finish, then pull the plug.
	doneBeforeKill := waitProgress(t, base, sb.JobID, 5)
	if err := proc1.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	proc1.Wait()

	proc2 := startServer(t, bin, args)
	defer func() {
		proc2.Process.Signal(syscall.SIGTERM)
		proc2.Wait()
	}()
	waitHealthy(t, base)

	// The job must exist without any re-submission: the journal replay
	// re-admitted it at startup.
	snap := pollDone(t, base, sb.JobID)
	if snap.State != "done" {
		t.Fatalf("replayed job state %q (error %q)", snap.State, snap.Error)
	}

	var res struct {
		Total  int `json:"total"`
		OK     int `json:"ok"`
		Cached int `json:"cached"`
		Failed int `json:"failed"`
	}
	getJSON(t, base+"/v1/jobs/"+sb.JobID+"/result", &res)
	if res.OK != res.Total || res.Failed != 0 {
		t.Fatalf("recovered sweep incomplete: %+v", res)
	}
	// Everything finished before the kill must replay from the disk
	// cache; allow one torn in-flight point.
	want := doneBeforeKill * 9 / 10
	if res.Cached < want {
		t.Fatalf("only %d/%d points cached after recovery (%d done before kill, want >= %d)",
			res.Cached, res.Total, doneBeforeKill, want)
	}
	t.Logf("recovery: %d done before kill, %d/%d served from cache", doneBeforeKill, res.Cached, res.Total)

	// A clean SIGTERM on the recovered server leaves nothing to replay.
	proc2.Process.Signal(syscall.SIGTERM)
	if err := proc2.Wait(); err != nil {
		t.Fatalf("graceful shutdown exit: %v", err)
	}
	left, _ := filepath.Glob(filepath.Join(journalDir, "*.wal"))
	if len(left) != 0 {
		t.Fatalf("journal not drained after completed job: %v", left)
	}
}

// TestFleetFailover is the fleet-mode acceptance test, end to end
// against real processes: two replicas share one sweep through the
// peer cache tier, whose probes wait on the peer computing a point;
// one replica is SIGKILLed mid-sweep, and the survivor completes the
// whole grid with the dead replica's pre-kill completions served from
// its own cache (the syncer prefetched them while both were alive)
// rather than recomputed.
func TestFleetFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server processes")
	}
	bin := buildServer(t)
	work := t.TempDir()
	addrA, addrB := freeAddr(t), freeAddr(t)
	baseA, baseB := "http://"+addrA, "http://"+addrB

	common := []string{
		"-workers", "1", // slow each replica down so the kill lands mid-run
		"-fleet-poll", "100ms", // tight ledger polling: completions replicate fast
		"-peer-timeout", "500ms",
	}
	argsA := append([]string{
		"-addr", addrA, "-peers", baseB, "-self-id", "replica-a",
		"-cache-dir", filepath.Join(work, "cache-a"),
		"-journal-dir", filepath.Join(work, "journal-a"),
	}, common...)
	argsB := append([]string{
		"-addr", addrB, "-peers", baseA, "-self-id", "replica-b",
		"-cache-dir", filepath.Join(work, "cache-b"),
		"-journal-dir", filepath.Join(work, "journal-b"),
	}, common...)
	procA := startServer(t, bin, argsA)
	procB := startServer(t, bin, argsB)
	waitHealthy(t, baseA)
	waitHealthy(t, baseB)

	// 24 points × ~400 ms on one worker each: seconds of shared runtime.
	sweep := `{
	  "base": {"experiment": "figure7", "params": {"phys-errors": [0.004], "trials": 120000, "seed": 3}},
	  "axes": [{"field": "params.seed", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24]}]
	}`
	resp, err := http.Post(baseA+"/v1/sweeps", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	var sb struct {
		JobID  string `json:"job_id"`
		Points int    `json:"points"`
	}
	decodeAndClose(t, resp, &sb)
	if resp.StatusCode != http.StatusAccepted || sb.Points != 24 {
		t.Fatalf("submit: status %d body %+v", resp.StatusCode, sb)
	}

	// The forwarded submission must land on B before the kill matters.
	waitJobExists(t, baseB, sb.JobID)

	// Let A genuinely compute a few points (done minus cached — cached
	// ones came from B and prove nothing), then pull its plug.
	computedA := waitComputed(t, baseA, sb.JobID, 5)
	if err := procA.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	procA.Wait()

	// The survivor finishes the whole grid despite its peer being gone:
	// a probe held by A fails the moment A dies, so B computes that
	// point itself, and A's finished points are already in B's cache.
	snap := pollDone(t, baseB, sb.JobID)
	if snap.State != "done" {
		t.Fatalf("survivor job state %q (error %q)", snap.State, snap.Error)
	}
	var res struct {
		Total  int `json:"total"`
		OK     int `json:"ok"`
		Cached int `json:"cached"`
		Failed int `json:"failed"`
	}
	getJSON(t, baseB+"/v1/jobs/"+sb.JobID+"/result", &res)
	if res.OK != res.Total || res.Total != 24 || res.Failed != 0 {
		t.Fatalf("survivor result incomplete: %+v", res)
	}
	// ≥90% of the dead replica's computed points must reach the survivor
	// as cache hits (one may be torn mid-flight or inside one poll gap).
	want := computedA * 9 / 10
	if res.Cached < want {
		t.Fatalf("only %d/%d points cached on the survivor (%d computed on A before kill, want >= %d)",
			res.Cached, res.Total, computedA, want)
	}
	metrics := scrape(t, baseB)
	peerHits := metrics[`qla_cache_hits_total{tier="peer"}`]
	prefetched := metrics[`qla_fleet_events_total{event="prefetched"}`]
	if peerHits == 0 {
		t.Fatalf("survivor peer-tier hits = 0: nothing crossed the peer tier (prefetched %v)", prefetched)
	}
	t.Logf("failover: A computed %d before kill; survivor served %d/%d cached, peer hits=%v prefetched=%v",
		computedA, res.Cached, res.Total, peerHits, prefetched)

	procB.Process.Signal(syscall.SIGTERM)
	if err := procB.Wait(); err != nil {
		t.Fatalf("graceful survivor shutdown: %v", err)
	}
}

// waitJobExists polls until base knows the job (forwarding is async).
func waitJobExists(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s", id, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitComputed polls until base has locally computed (done minus
// cached) at least min points of the job, returning the count.
func waitComputed(t *testing.T, base, id string, min int) int {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var snap jobSnap
		getJSON(t, base+"/v1/jobs/"+id, &snap)
		if computed := snap.Progress.Done - snap.Progress.Cached; computed >= min {
			return computed
		}
		if snap.State != "running" && snap.State != "queued" {
			t.Fatalf("job settled before computing %d points locally: %+v", min, snap)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never computed %d points locally: %+v", min, snap)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qlaserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func startServer(t *testing.T, bin string, args []string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type jobSnap struct {
	State    string `json:"state"`
	Error    string `json:"error"`
	Progress struct {
		Total  int `json:"total"`
		Done   int `json:"done"`
		Cached int `json:"cached"`
	} `json:"progress"`
}

// waitProgress polls until at least min points are done and returns
// the observed count.
func waitProgress(t *testing.T, base, id string, min int) int {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var snap jobSnap
		getJSON(t, base+"/v1/jobs/"+id, &snap)
		if snap.Progress.Done >= min {
			return snap.Progress.Done
		}
		if snap.State != "running" && snap.State != "queued" {
			t.Fatalf("job settled early: %+v", snap)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached %d done points: %+v", min, snap)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func pollDone(t *testing.T, base, id string) jobSnap {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var snap jobSnap
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			t.Fatal("job missing after restart: journal replay did not re-admit it")
		}
		decodeAndClose(t, resp, &snap)
		switch snap.State {
		case "done", "failed", "cancelled":
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never finished: %+v", snap)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// scrape reads GET /metrics into a map from series (name plus label
// set, exactly as rendered) to value.
func scrape(t *testing.T, base string) map[string]float64 {
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
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeAndClose(t, resp, out)
}

func decodeAndClose(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
}
