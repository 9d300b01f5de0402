package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// startGate returns a run function that blocks until release is called,
// then returns the given result.
func gated(result []byte, err error) (run func(context.Context, func(Progress)) ([]byte, error), release func()) {
	ch := make(chan struct{})
	var once sync.Once
	return func(ctx context.Context, report func(Progress)) ([]byte, error) {
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return result, err
	}, func() { once.Do(func() { close(ch) }) }
}

// wait polls the job until its state is terminal.
func wait(t *testing.T, j *Job) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := j.Snapshot()
		if snap.State.Finished() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", j.ID(), snap)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLifecycle(t *testing.T) {
	m := NewManager(Config{})
	j, created, err := m.Submit("job-a", SubmitOptions{Total: 3}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		for i := 1; i <= 3; i++ {
			report(Progress{Total: 3, Done: i, Cached: i - 1})
		}
		return []byte(`{"ok":true}`), nil
	})
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	snap := wait(t, j)
	if snap.State != StateDone || snap.Progress.Done != 3 || snap.Progress.Cached != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.ElapsedSeconds < 0 {
		t.Errorf("elapsed %f", snap.ElapsedSeconds)
	}
	res, rsnap := j.Result()
	if string(res) != `{"ok":true}` || rsnap.State != StateDone {
		t.Fatalf("result %q %+v", res, rsnap)
	}
	s := m.Stats()
	if s.Submitted != 1 || s.Completed != 1 || s.Running != 0 || s.Stored != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestContentAddressedDedup: submitting an existing ID joins the stored
// job — running or finished — and runs nothing new.
func TestContentAddressedDedup(t *testing.T) {
	m := NewManager(Config{})
	run, release := gated([]byte("r"), nil)
	j1, created, err := m.Submit("dup", SubmitOptions{Total: 1}, run)
	if err != nil || !created {
		t.Fatal(created, err)
	}
	boom := func(ctx context.Context, report func(Progress)) ([]byte, error) {
		t.Error("deduped submission ran anyway")
		return nil, nil
	}
	j2, created, err := m.Submit("dup", SubmitOptions{Total: 1}, boom)
	if err != nil || created || j2 != j1 {
		t.Fatalf("while running: created=%v err=%v same=%v", created, err, j2 == j1)
	}
	release()
	wait(t, j1)
	j3, created, err := m.Submit("dup", SubmitOptions{Total: 1}, boom)
	if err != nil || created || j3 != j1 {
		t.Fatalf("after done: created=%v err=%v same=%v", created, err, j3 == j1)
	}
	if s := m.Stats(); s.Submitted != 1 || s.Deduped != 2 {
		t.Errorf("stats %+v", s)
	}
}

// TestResubmitRetriesDeadJobs: a failed or cancelled job must not
// squat on its content address — re-submitting the same ID evicts it
// and runs fresh, while done and running jobs still dedup.
func TestResubmitRetriesDeadJobs(t *testing.T) {
	m := NewManager(Config{})
	jf, _, _ := m.Submit("retry", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return nil, errors.New("transient")
	})
	wait(t, jf)
	jr, created, err := m.Submit("retry", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return []byte("recovered"), nil
	})
	if err != nil || !created || jr == jf {
		t.Fatalf("failed job blocked its address: created=%v err=%v same=%v", created, err, jr == jf)
	}
	if snap := wait(t, jr); snap.State != StateDone {
		t.Fatalf("retry %+v", snap)
	}
	// Same for cancelled jobs.
	started := make(chan struct{})
	jc, _, _ := m.Submit("retry-cancel", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	jc.Cancel()
	wait(t, jc)
	if _, created, err := m.Submit("retry-cancel", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return []byte("r"), nil
	}); err != nil || !created {
		t.Fatalf("cancelled job blocked its address: created=%v err=%v", created, err)
	}
	// And for a cancel-requested job still draining: it is destined for
	// StateCancelled, so a re-submission must not join it.
	drain := make(chan struct{})
	jd, _, _ := m.Submit("retry-draining", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		<-drain
		return nil, ctx.Err()
	})
	jd.Cancel() // the body ignores ctx until drain closes: still running
	jn, created, err := m.Submit("retry-draining", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return []byte("r"), nil
	})
	if err != nil || !created || jn == jd {
		t.Fatalf("draining cancelled job blocked its address: created=%v err=%v same=%v", created, err, jn == jd)
	}
	close(drain)
	if snap := wait(t, jn); snap.State != StateDone {
		t.Fatalf("retry after draining cancel %+v", snap)
	}
	if s := m.Stats(); s.Evicted != 3 {
		t.Errorf("stats %+v", s)
	}
}

func TestFailureAndPanic(t *testing.T) {
	m := NewManager(Config{})
	jf, _, _ := m.Submit("fails", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return nil, errors.New("the grid is haunted")
	})
	if snap := wait(t, jf); snap.State != StateFailed || !strings.Contains(snap.Error, "haunted") {
		t.Fatalf("snapshot %+v", snap)
	}
	if res, snap := jf.Result(); res != nil || snap.State != StateFailed {
		t.Fatalf("failed job leaked a result: %q %+v", res, snap)
	}
	jp, _, _ := m.Submit("panics", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		panic("boom")
	})
	if snap := wait(t, jp); snap.State != StateFailed || !strings.Contains(snap.Error, "panicked: boom") {
		t.Fatalf("snapshot %+v", snap)
	}
	if s := m.Stats(); s.Failed != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestCancel(t *testing.T) {
	m := NewManager(Config{})
	started := make(chan struct{})
	j, _, _ := m.Submit("cancel-me", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	j.Cancel()
	snap := wait(t, j)
	if snap.State != StateCancelled {
		t.Fatalf("snapshot %+v", snap)
	}
	// Cancel on a finished job is a no-op.
	if again := j.Cancel(); again.State != StateCancelled {
		t.Errorf("re-cancel %+v", again)
	}
	if s := m.Stats(); s.Cancelled != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestSettledJobReleasesContext: a settled job keeps no cancel func —
// and with it no context — for as long as it is stored, whatever way it
// settled, and Cancel on it still answers the terminal snapshot.
func TestSettledJobReleasesContext(t *testing.T) {
	m := NewManager(Config{})
	var jobCtx context.Context
	done, _, _ := m.Submit("done", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		jobCtx = ctx
		return []byte(`{}`), nil
	})
	failed, _, _ := m.Submit("failed", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return nil, errors.New("no")
	})
	panicked, _, _ := m.Submit("panicked", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		panic("boom")
	})
	for _, j := range []*Job{done, failed, panicked} {
		want := wait(t, j).State
		j.mu.Lock()
		held := j.cancel != nil
		j.mu.Unlock()
		if held {
			t.Errorf("settled job %s (%s) still holds its cancel func", j.ID(), want)
		}
		if snap := j.Cancel(); snap.State != want {
			t.Errorf("Cancel on settled job %s: state %s, want %s", j.ID(), snap.State, want)
		}
	}
	if jobCtx.Err() == nil {
		t.Error("a settled job's context was never cancelled")
	}
}

// TestStoreBound: a full store evicts the oldest finished job to admit
// new work, and rejects cleanly when everything is still running.
func TestStoreBound(t *testing.T) {
	m := NewManager(Config{MaxJobs: 2})
	jDone, _, _ := m.Submit("finished", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return []byte("r"), nil
	})
	wait(t, jDone)
	run1, release1 := gated(nil, nil)
	m.Submit("running-1", SubmitOptions{Total: 1}, run1)
	defer release1()

	// Third submission: the finished job is the victim.
	run2, release2 := gated(nil, nil)
	_, created, err := m.Submit("running-2", SubmitOptions{Total: 1}, run2)
	defer release2()
	if err != nil || !created {
		t.Fatalf("created=%v err=%v", created, err)
	}
	if _, ok := m.Get("finished"); ok {
		t.Error("finished job survived eviction")
	}

	// Fourth: everything is running, nothing to evict.
	if _, _, err := m.Submit("running-3", SubmitOptions{Total: 1}, run2); err == nil || !strings.Contains(err.Error(), "store full") {
		t.Fatalf("err = %v", err)
	}
	if s := m.Stats(); s.Evicted != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestResultByteBudget: retained result bytes are bounded — older
// finished jobs are evicted when a new result lands over budget, but
// the newest result always survives, even alone over budget.
func TestResultByteBudget(t *testing.T) {
	m := NewManager(Config{MaxResultBytes: 100})
	submit := func(id string, size int) *Job {
		t.Helper()
		j, _, err := m.Submit(id, SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
			return make([]byte, size), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		return j
	}
	submit("forty-a", 40)
	submit("forty-b", 40)
	if s := m.Stats(); s.ResultBytes != 80 || s.Evicted != 0 {
		t.Fatalf("stats %+v", s)
	}
	// 80 + 40 > 100: the oldest finished job goes.
	submit("forty-c", 40)
	if _, ok := m.Get("forty-a"); ok {
		t.Error("oldest job survived the byte budget")
	}
	if s := m.Stats(); s.ResultBytes != 80 || s.Evicted != 1 {
		t.Errorf("stats %+v", s)
	}
	// A result alone over budget is kept, and — since no eviction could
	// satisfy the budget anyway — the other jobs' still-valid results
	// are left alone: retained memory is bounded by the budget plus the
	// one oversized result.
	big := submit("huge", 500)
	if res, snap := big.Result(); snap.State != StateDone || len(res) != 500 {
		t.Fatalf("over-budget result dropped: %+v", snap)
	}
	s := m.Stats()
	if s.Stored != 3 || s.ResultBytes != 580 || s.Evicted != 1 {
		t.Errorf("stats %+v", s)
	}
	if _, ok := m.Get("forty-b"); !ok {
		t.Error("within-budget job destroyed for an unsatisfiable breach")
	}
	// The exemption protects only the job that is settling: the next
	// settle re-enforces the plain budget and may reclaim the
	// oversized result along with everything older.
	submit("forty-d", 40)
	if _, ok := m.Get("huge"); ok {
		t.Error("oversized result survived a later budget enforcement")
	}
	if s := m.Stats(); s.ResultBytes != 40 || s.Stored != 1 {
		t.Errorf("stats after re-enforcement %+v", s)
	}
}

// chunks is a Body held as byte slices written back to back, each
// possibly shared with another owner.
type chunks [][]byte

func (c chunks) Len() int64 {
	var n int64
	for _, p := range c {
		n += int64(len(p))
	}
	return n
}

func (c chunks) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, p := range c {
		n, err := w.Write(p)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestBodyChunks: a Body is kept as the very value the run returned —
// its shared bytes never copied — charged at its Len against the byte
// budgets, written into one slice of exactly that length by Result,
// and refunded on eviction.
func TestBodyChunks(t *testing.T) {
	m := NewManager(Config{MaxResultBytes: 100, TenantMaxResultBytes: 100})
	shared := []byte(`"payload"`)
	body := chunks{[]byte(`{"a":`), shared, []byte(`,"b":`), shared, []byte(`}`)}
	j, _, err := m.SubmitBody("chunked", SubmitOptions{Tenant: "t", Total: 1}, func(ctx context.Context, report func(Progress)) (Body, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	want := `{"a":"payload","b":"payload"}`
	if s := m.Stats(); s.ResultBytes != int64(len(want)) {
		t.Fatalf("charged %d bytes, want the encoded length %d", s.ResultBytes, len(want))
	}
	got, snap := j.Body()
	c, ok := got.(chunks)
	if snap.State != StateDone || !ok || len(c) != len(body) || &c[1][0] != &shared[0] || &c[3][0] != &shared[0] {
		t.Fatalf("stored body is not the returned one: %+v %q", snap, got)
	}
	res, _ := j.Result()
	if string(res) != want || cap(res) != len(want) {
		t.Fatalf("Result = %q (cap %d)", res, cap(res))
	}
	// The refund on eviction matches the charge.
	next, _, err := m.Submit("next", SubmitOptions{Tenant: "t", Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return make([]byte, 90), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, next)
	// Settling publishes the state before it charges the budget.
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Evicted != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := m.Stats(); s.Evicted != 1 || s.ResultBytes != 90 {
		t.Fatalf("stats after eviction %+v", s)
	}
}

// TestEmptyBody: a run that returns no Body settles done with an
// empty result, charging nothing.
func TestEmptyBody(t *testing.T) {
	m := NewManager(Config{})
	j, _, err := m.SubmitBody("empty", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) (Body, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	body, snap := j.Body()
	if snap.State != StateDone || body == nil || body.Len() != 0 {
		t.Fatalf("empty body settled as %+v, %v", snap, body)
	}
	if s := m.Stats(); s.ResultBytes != 0 || s.Completed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestTTLEviction: finished jobs expire; Get and Submit both collect.
func TestTTLEviction(t *testing.T) {
	m := NewManager(Config{TTL: 10 * time.Millisecond})
	j, _, _ := m.Submit("ephemeral", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return []byte("r"), nil
	})
	wait(t, j)
	if _, ok := m.Get("ephemeral"); !ok {
		t.Fatal("job vanished before its TTL")
	}
	time.Sleep(25 * time.Millisecond)
	if _, ok := m.Get("ephemeral"); ok {
		t.Fatal("job survived its TTL")
	}
	// A re-submission after expiry is a fresh job, not a dedup.
	_, created, err := m.Submit("ephemeral", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return []byte("r2"), nil
	})
	if err != nil || !created {
		t.Fatalf("created=%v err=%v", created, err)
	}
	if s := m.Stats(); s.Evicted != 1 || s.Submitted != 2 {
		t.Errorf("stats %+v", s)
	}
}

// TestTTLEvictionAfterScan: lookups scan the store only once the
// earliest expiry has passed, so a job that finishes after a scan has
// run — here while an expired job was being collected — must still
// arm its own expiry and leave on time.
func TestTTLEvictionAfterScan(t *testing.T) {
	const ttl = 20 * time.Millisecond
	m := NewManager(Config{TTL: ttl})
	early, _, _ := m.Submit("early", SubmitOptions{Total: 1}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		return []byte("r"), nil
	})
	wait(t, early)
	run, release := gated([]byte("late"), nil)
	late, _, _ := m.Submit("late", SubmitOptions{Total: 1}, run)
	time.Sleep(2 * ttl)
	// This lookup scans: it drops "early" and finds "late" running.
	if _, ok := m.Get("early"); ok {
		t.Fatal("early job survived its TTL")
	}
	release()
	wait(t, late)
	if _, ok := m.Get("late"); !ok {
		t.Fatal("late job vanished before its TTL")
	}
	time.Sleep(2 * ttl)
	if _, ok := m.Get("late"); ok {
		t.Fatal("a job that finished after the scan survived its TTL")
	}
	if s := m.Stats(); s.Evicted != 2 || s.Stored != 0 {
		t.Errorf("stats %+v", s)
	}
}

// TestSubscribeMonotonic: a subscriber observes non-decreasing Done
// counts ending at total, and a wake for the terminal state.
func TestSubscribeMonotonic(t *testing.T) {
	m := NewManager(Config{})
	const total = 50
	step := make(chan struct{})
	j, _, _ := m.Submit("watched", SubmitOptions{Total: total}, func(ctx context.Context, report func(Progress)) ([]byte, error) {
		for i := 1; i <= total; i++ {
			report(Progress{Total: total, Done: i})
			if i == total/2 {
				// Hold mid-run so the subscriber provably overlaps it.
				<-step
			}
		}
		return []byte("r"), nil
	})
	wake, stop := j.Subscribe()
	defer stop()
	close(step)

	last := -1
	deadline := time.After(10 * time.Second)
	for {
		snap := j.Snapshot()
		if snap.Progress.Done < last {
			t.Fatalf("progress rolled back: %d after %d", snap.Progress.Done, last)
		}
		last = snap.Progress.Done
		if snap.State.Finished() {
			if last != total {
				t.Fatalf("finished at %d/%d", last, total)
			}
			return
		}
		select {
		case <-wake:
		case <-deadline:
			t.Fatal("subscriber starved")
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{})
	if _, _, err := m.Submit("", SubmitOptions{Total: 1}, nil); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, ok := m.Get("nope"); ok {
		t.Fatal("phantom job")
	}
}

// BenchmarkJobManager measures the manager's per-job overhead: submit,
// one progress report, completion, result retrieval. The sweep points
// themselves dwarf this; the benchmark guards against the bookkeeping
// ever growing into the request path. The lookups case times the Get
// calls a hot sweep makes (submit, event stream, result) against a
// full store of 256 finished jobs, the default bound.
func BenchmarkJobManager(b *testing.B) {
	body := []byte(`{"ok":true}`)
	done := func(ctx context.Context, report func(Progress)) ([]byte, error) {
		report(Progress{Total: 1, Done: 1})
		return body, nil
	}
	b.Run("lifecycle", func(b *testing.B) {
		m := NewManager(Config{MaxJobs: 64})
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			j, _, err := m.Submit(fmt.Sprintf("job-%d", i), SubmitOptions{Total: 1}, done)
			if err != nil {
				b.Fatal(err)
			}
			wake, stop := j.Subscribe()
			for !j.Snapshot().State.Finished() {
				<-wake
			}
			stop()
			if res, snap := j.Result(); snap.State != StateDone || len(res) == 0 {
				b.Fatalf("result %q %+v", res, snap)
			}
		}
	})
	b.Run("lookups/stored=256", func(b *testing.B) {
		const stored = 256
		m := NewManager(Config{MaxJobs: stored})
		ids := make([]string, stored)
		for i := range ids {
			ids[i] = fmt.Sprintf("job-%d", i)
			j, _, err := m.Submit(ids[i], SubmitOptions{Total: 1}, done)
			if err != nil {
				b.Fatal(err)
			}
			for !j.Snapshot().State.Finished() {
				time.Sleep(time.Microsecond)
			}
		}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, ok := m.Get(ids[i%stored]); !ok {
				b.Fatal("stored job not found")
			}
		}
	})
}
