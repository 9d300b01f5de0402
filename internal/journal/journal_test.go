package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const specJSON = `{"base":{"experiment":"ec-latency"},"axes":[{"field":"machine.level","values":[1,2]}]}`

func open(t *testing.T) (*Journal, string) {
	t.Helper()
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, dir
}

func files(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+suffix))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestAdmitFinishRemoves: the happy path leaves nothing behind — a
// settled job has nothing to recover.
func TestAdmitFinishRemoves(t *testing.T) {
	j, dir := open(t)
	e, fresh, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil || !fresh {
		t.Fatalf("Admit: fresh=%v err=%v", fresh, err)
	}
	if got := files(t, dir); len(got) != 1 {
		t.Fatalf("want 1 journal file after admit, got %v", got)
	}
	if err := e.Point("p1", "ok", false, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Finish("done"); err != nil {
		t.Fatal(err)
	}
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("finished entry not removed: %v", got)
	}
	st := j.Stats()
	if st.Admitted != 1 || st.Points != 1 || st.Finished != 1 || st.Open != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestCrashReplay: an entry without a terminal record — the process
// died — replays with its recorded point completions.
func TestCrashReplay(t *testing.T) {
	j, dir := open(t)
	e, _, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	e.Point("p1", "ok", false, 1)
	e.Point("p2", "error", false, 3)
	e.Point("p2", "ok", true, 1) // a later record supersedes
	j.Close()                    // crash-equivalent: no terminal record

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pend, err := j2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 {
		t.Fatalf("want 1 pending entry, got %d", len(pend))
	}
	p := pend[0]
	if p.ID != "job1" || p.Kind != KindSweep || string(p.Spec) != specJSON {
		t.Fatalf("unexpected pending %+v", p)
	}
	if len(p.Points) != 2 {
		t.Fatalf("want 2 recorded points, got %v", p.Points)
	}
	if got := p.Points["p2"]; got.Status != "ok" || !got.Cached {
		t.Fatalf("p2 should reflect the last record, got %+v", got)
	}
	// Resume and settle it.
	e2, err := j2.Resume("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Point("p3", "ok", false, 1); err != nil {
		t.Fatal(err)
	}
	if err := e2.Finish("done"); err != nil {
		t.Fatal(err)
	}
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("resumed+finished entry not removed: %v", got)
	}
}

// TestTerminalEntriesDroppedAtReplay: a journaled terminal state —
// including a failure — is never resurrected; replay deletes the file
// so a re-submission of the same spec starts fresh (mirroring the job
// store's failed/cancelled re-submission eviction).
func TestTerminalEntriesDroppedAtReplay(t *testing.T) {
	for _, state := range []string{"done", "failed", "cancelled"} {
		t.Run(state, func(t *testing.T) {
			j, dir := open(t)
			e, _, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
			if err != nil {
				t.Fatal(err)
			}
			e.Point("p1", "error", false, 3)
			// Write the terminal record but simulate dying before the
			// remove: append directly, then close without removing.
			line, _ := marshalLine(record{State: state})
			e.mu.Lock()
			e.f.Write(line)
			e.mu.Unlock()
			j.Close()
			if got := files(t, dir); len(got) != 1 {
				t.Fatalf("setup: want the file present, got %v", got)
			}

			j2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			pend, err := j2.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if len(pend) != 0 {
				t.Fatalf("terminal %q entry replayed: %+v", state, pend)
			}
			if got := files(t, dir); len(got) != 0 {
				t.Fatalf("terminal %q entry not deleted at replay: %v", state, got)
			}
		})
	}
}

// TestTornTailTolerated: a crash mid-append leaves a partial final
// line; replay keeps everything before it.
func TestTornTailTolerated(t *testing.T) {
	j, dir := open(t)
	e, _, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	e.Point("p1", "ok", false, 1)
	e.mu.Lock()
	e.f.Write([]byte(`{"point":"p2","sta`)) // torn write
	e.mu.Unlock()
	j.Close()

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pend, err := j2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || len(pend[0].Points) != 1 {
		t.Fatalf("want 1 pending with 1 point, got %+v", pend)
	}
}

// TestUnreadableAdmissionDeleted: a file whose first line does not
// parse (or names a different ID than the file) is unrecoverable and
// removed.
func TestUnreadableAdmissionDeleted(t *testing.T) {
	j, dir := open(t)
	os.WriteFile(filepath.Join(dir, "garbage"+suffix), []byte("not json\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "mismatch"+suffix),
		[]byte(`{"v":1,"id":"other","kind":"sweep","spec":{}}`+"\n"), 0o644)
	pend, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 0 {
		t.Fatalf("unreadable entries replayed: %+v", pend)
	}
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("unreadable entries not deleted: %v", got)
	}
}

// TestAdmitJoinsOpenEntry: a second admission of a running job's ID
// returns the same entry without touching the file.
func TestAdmitJoinsOpenEntry(t *testing.T) {
	j, _ := open(t)
	e1, fresh1, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil || !fresh1 {
		t.Fatalf("first admit: fresh=%v err=%v", fresh1, err)
	}
	e1.Point("p1", "ok", false, 1)
	e2, fresh2, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil || fresh2 {
		t.Fatalf("second admit: fresh=%v err=%v", fresh2, err)
	}
	if e1 != e2 {
		t.Fatal("second admit did not join the open entry")
	}
}

// TestDiscard: the undo path for a rejected submission removes the
// freshly admitted file.
func TestDiscard(t *testing.T) {
	j, dir := open(t)
	e, _, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	e.Discard()
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("discarded entry left a file: %v", got)
	}
	if j.Stats().Open != 0 {
		t.Fatal("discarded entry still registered")
	}
}

func TestUnsafeIDRejected(t *testing.T) {
	j, _ := open(t)
	for _, id := range []string{"", "..", "a/b", `a\b`} {
		if _, _, err := j.Admit(id, KindSweep, "", []byte(specJSON)); err == nil {
			t.Errorf("Admit(%q) accepted", id)
		}
	}
}

// TestNilJournalIsInert: every method on a nil *Journal (and the nil
// *Entry it hands back) is a safe no-op, so callers need no journal
// guards.
func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	e, fresh, err := j.Admit("x", KindSweep, "", nil)
	if e != nil || fresh || err != nil {
		t.Fatalf("nil Admit: %v %v %v", e, fresh, err)
	}
	if err := e.Point("p", "ok", false, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Finish("done"); err != nil {
		t.Fatal(err)
	}
	e.Discard()
	if _, err := j.Replay(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j.Drop("x")
	if st := j.Stats(); st.Admitted != 0 {
		t.Fatalf("nil stats %+v", st)
	}
}

// TestConcurrentAppends: point records from concurrent workers all
// land (json-per-line, single write each).
func TestConcurrentAppends(t *testing.T) {
	j, dir := open(t)
	e, _, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.Point(fmt.Sprintf("p%02d", i), "ok", false, 1)
		}(i)
	}
	wg.Wait()
	j.Close()
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pend, err := j2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || len(pend[0].Points) != n {
		t.Fatalf("want %d points, got %d", n, len(pend[0].Points))
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	j, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	e, _, err := j.Admit("bench", KindSweep, "", []byte(specJSON))
	if err != nil {
		b.Fatal(err)
	}
	hash := strings.Repeat("ab", 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Point(hash, "ok", false, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLeaseReplay: journals written while fleet replicas leased points
// carry per-point lease lines ("status":"leased"). They still replay:
// a leased point that never completed is pending work, never a
// completion, and the completed points of the same journal still
// count.
func TestLeaseReplay(t *testing.T) {
	j, dir := open(t)
	lines := strings.Join([]string{
		`{"v":1,"id":"job1","kind":"sweep","tenant":"t1","spec":` + specJSON + `}`,
		`{"point":"p1","status":"leased","holder":"replica-a"}`,
		`{"point":"p1","status":"ok","attempts":1}`,             // lease settled by its completion
		`{"point":"p2","status":"leased","holder":"replica-a"}`, // claimed, never finished: the crash
		`{"point":"p3","status":"error","attempts":3}`,
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "job1"+suffix), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	pend, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].ID != "job1" || pend[0].Tenant != "t1" {
		t.Fatalf("want job1 pending, got %+v", pend)
	}
	p := pend[0]
	if _, done := p.Points["p2"]; done {
		t.Fatal("leased-but-unfinished point replayed as a completion")
	}
	want := map[string]PointStatus{
		"p1": {Status: "ok", Attempts: 1},
		"p3": {Status: "error", Attempts: 3},
	}
	if len(p.Points) != len(want) {
		t.Fatalf("completions = %v, want %v", p.Points, want)
	}
	for pt, st := range want {
		if p.Points[pt] != st {
			t.Fatalf("point %s replayed as %+v, want %+v", pt, p.Points[pt], st)
		}
	}
}
