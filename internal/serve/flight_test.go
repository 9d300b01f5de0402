package serve

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"qla/internal/jobs"
)

// The tests below pin how long a shared computation lives: while any
// caller waits for it. One caller's ?timeout=, hang-up or sweep cancel
// ends only that caller's wait; a computation nobody waits for any more
// stops and frees its worker.

type runAnswer struct {
	status int
	xcache string
	body   []byte
	err    error
}

// startRun posts spec to POST /v1/run in the background under ctx;
// query is appended to the route as is.
func startRun(ctx context.Context, base, query, spec string) <-chan runAnswer {
	out := make(chan runAnswer, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run"+query, strings.NewReader(spec))
		if err != nil {
			out <- runAnswer{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- runAnswer{err: err}
			return
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		out <- runAnswer{resp.StatusCode, resp.Header.Get("X-Cache"), body.Bytes(), err}
	}()
	return out
}

func awaitRun(t *testing.T, who string, got <-chan runAnswer) runAnswer {
	t.Helper()
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatalf("%s: %v", who, a.err)
		}
		return a
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: no answer", who)
		return runAnswer{}
	}
}

// waitUntil polls cond until it holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("never %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunFollowerOutlivesLeaderDeadline: a ?timeout=60s run collapsed
// onto the computation of a ?timeout=1s leader gets the result when the
// leader gets its 504. The only worker slot is held until after the
// leader's deadline, so the computation outlasts it on any machine.
func TestRunFollowerOutlivesLeaderDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	release := saturate(t, srv, 0)
	defer release()
	spec := tinySpec(71)
	leader := startRun(context.Background(), ts.URL, "?timeout=1s", spec)
	waitUntil(t, "saw the leader's compute queue for the slot", func() bool { return srv.pool.Stats().Waiting == 1 })
	follower := startRun(context.Background(), ts.URL, "?timeout=60s", spec)
	waitUntil(t, "saw the follower collapse onto the leader", func() bool { return srv.cache.Stats().Dedups == 1 })

	if a := awaitRun(t, "leader", leader); a.status != http.StatusGatewayTimeout {
		t.Fatalf("leader: status %d, want 504: %s", a.status, a.body)
	}
	release()
	got := awaitRun(t, "follower", follower)
	if got.status != http.StatusOK || got.xcache != "hit" {
		t.Fatalf("follower: status %d X-Cache %q, want 200 hit: %s", got.status, got.xcache, got.body)
	}
	status, xc, again := postRun(t, ts.URL, spec)
	if status != http.StatusOK || xc != "hit" || !bytes.Equal(again, got.body) {
		t.Fatalf("repeat: status %d X-Cache %q, bytes equal %v", status, xc, bytes.Equal(again, got.body))
	}
	if n := srv.runsExecuted.Value(); n != 1 {
		t.Fatalf("runs executed = %d, want 1", n)
	}
}

// TestSweepCancelStopsPointsAtOnce: DELETE /v1/jobs/{id} settles a
// sweep whose points are computing at once, and starts no further
// point, while a /v1/run collapsed onto one of its points still gets
// that point's bytes. The only worker slot is held throughout, so every
// dispatched point is mid-compute, queued on it.
func TestSweepCancelStopsPointsAtOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	release := saturate(t, srv, 0)
	defer release()
	_, sb, raw := postSweep(t, ts.URL, fig7Sweep(64))
	if sb.JobID == "" {
		t.Fatalf("submit: %s", raw)
	}
	dispatched := min(runtime.GOMAXPROCS(0), 3)
	waitUntil(t, "saw every dispatched point queue for the slot", func() bool { return srv.pool.Stats().Waiting == dispatched })
	misses := metric(t, ts.URL, "qla_cache_misses_total")
	if misses != float64(dispatched) {
		t.Fatalf("misses before the cancel = %v, want %d", misses, dispatched)
	}
	// Point 0 of fig7Sweep, as a single run: it joins the point's flight.
	point := `{"experiment":"figure7","params":{"phys-errors":[0.004],"trials":64,"seed":31}}`
	run := startRun(context.Background(), ts.URL, "", point)
	waitUntil(t, "saw the run collapse onto the point", func() bool { return srv.cache.Stats().Dedups == 1 })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sb.JobID, nil)
	cancelled := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap := pollJob(t, ts.URL, sb.JobID); snap.State != jobs.StateCancelled {
		t.Fatalf("state after cancel: %+v", snap)
	}
	if took := time.Since(cancelled); took > 2*time.Second {
		t.Fatalf("the cancelled sweep settled %v after the DELETE, want within 2s", took)
	}
	release()
	got := awaitRun(t, "collapsed run", run)
	if got.status != http.StatusOK || got.xcache != "hit" {
		t.Fatalf("collapsed run: status %d X-Cache %q, want 200 hit: %s", got.status, got.xcache, got.body)
	}
	if after := metric(t, ts.URL, "qla_cache_misses_total"); after != misses {
		t.Fatalf("misses went %v -> %v after the DELETE: a point started after its sweep was cancelled", misses, after)
	}
}

// TestAbandonedRunFreesWorker: a client that hangs up on its lone run
// stops that run's computation, so with one worker the next run is
// answered at once rather than after the abandoned one.
func TestAbandonedRunFreesWorker(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	// Minutes of compute on one core: only its cancellation frees the
	// worker in time.
	big := `{"experiment":"figure7","params":{"phys-errors":[0.004],"trials":50000000,"seed":5}}`
	ctx, hangUp := context.WithCancel(context.Background())
	abandoned := startRun(ctx, ts.URL, "", big)
	waitUntil(t, "saw the big run take the worker", func() bool { return srv.pool.Stats().InUse == 1 })
	hangUp()
	if a := <-abandoned; a.err == nil {
		t.Fatalf("the hung-up client got an answer: status %d", a.status)
	}
	started := time.Now()
	small := `{"experiment":"figure7","params":{"phys-errors":[0.004],"trials":640,"seed":6}}`
	if status, xc, body := postRun(t, ts.URL, small); status != http.StatusOK || xc != "miss" {
		t.Fatalf("next run: status %d X-Cache %q: %s", status, xc, body)
	}
	if took := time.Since(started); took > 2*time.Second {
		t.Fatalf("the next run waited %v for an abandoned computation", took)
	}
}
