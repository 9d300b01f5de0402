package serve

import (
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"qla/internal/jobs"
)

// BenchmarkFleetSweep is the fleet's sweep makespan: two in-process
// replicas, each with one worker, a cache dir and 50ms ledger polls
// (perfbench's fleet-sweep poll), logging discarded. One op submits a
// never-seen 8-point figure7 sweep of 640 trials to replica 0 and ends
// when both replicas report it done. The median op is reported as
// median-ms/op, which CI's fleet gate reads: a point that waited on a
// timer — a poll or a sleep — instead of on the peer computing it would
// floor the op at that timer, whatever the CPU.
func BenchmarkFleetSweep(b *testing.B) {
	srvs, urls := newFleetServers(b, 2, func(_ int, cfg *Config) {
		cfg.Workers = 1
		cfg.FleetPoll = 50 * time.Millisecond
		cfg.CacheDir = b.TempDir()
		cfg.Logger = slog.New(slog.DiscardHandler)
	})
	ops := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		started := time.Now()
		resp, err := http.Post(urls[0]+"/v1/sweeps", "application/json",
			strings.NewReader(fleetFig7Sweep(640, 1<<20+8*i)))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Sweep-Hash")
		if resp.StatusCode != http.StatusAccepted || id == "" {
			b.Fatalf("submit: status %d, sweep hash %q", resp.StatusCode, id)
		}
		for _, s := range srvs {
			waitJobDone(b, s, id)
		}
		ops = append(ops, time.Since(started))
	}
	b.StopTimer()
	slices.Sort(ops)
	b.ReportMetric(float64(ops[len(ops)/2].Microseconds())/1e3, "median-ms/op")
}

// waitJobDone blocks until s holds job id (a forwarded sweep lands a
// little after its submission) and the job has settled done.
func waitJobDone(tb testing.TB, s *Server, id string) {
	tb.Helper()
	deadline := time.Now().Add(60 * time.Second)
	j, ok := s.jobs.Get(id)
	for ; !ok; j, ok = s.jobs.Get(id) {
		if time.Now().After(deadline) {
			tb.Fatalf("job %s never reached replica %s", id, s.cfg.SelfID)
		}
		time.Sleep(100 * time.Microsecond)
	}
	wake, stop := j.Subscribe()
	defer stop()
	for {
		snap := j.Snapshot()
		if snap.State.Finished() {
			if snap.State != jobs.StateDone {
				tb.Fatalf("job %s on replica %s: %s %s", id, s.cfg.SelfID, snap.State, snap.Error)
			}
			return
		}
		select {
		case <-wake:
		case <-time.After(time.Until(deadline)):
			tb.Fatalf("job %s on replica %s not done: %+v", id, s.cfg.SelfID, snap)
		}
	}
}
