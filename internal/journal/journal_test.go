package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const specJSON = `{"base":{"experiment":"ec-latency"},"axes":[{"field":"machine.level","values":[1,2]}]}`

func open(t testing.TB) (*Journal, string) {
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

// writeFile puts a journal file in place by hand, in the format earlier
// versions appended to.
func writeFile(t *testing.T, dir, id string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, id+suffix), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// admissionLine is the admission record every version writes first.
func admissionLine(id, tenant string) string {
	return `{"v":1,"id":"` + id + `","kind":"sweep","tenant":"` + tenant + `","spec":` + specJSON + `}`
}

// TestAdmitFinishRemoves: the happy path leaves nothing behind — a
// settled job has nothing to recover.
func TestAdmitFinishRemoves(t *testing.T) {
	j, dir := open(t)
	fresh, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil || !fresh {
		t.Fatalf("Admit: fresh=%v err=%v", fresh, err)
	}
	if got := files(t, dir); len(got) != 1 {
		t.Fatalf("want 1 journal file after admit, got %v", got)
	}
	if err := j.Remove("job1"); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadDir(dir); len(got) != 0 {
		t.Fatalf("finished entry left files: %v", got)
	}
	st := j.Stats()
	if st.Admitted != 1 || st.Finished != 1 || st.Errors != 0 || st.Live != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestAdmissionIsOneParentLine: an admission file holds exactly the one
// line earlier versions wrote first, byte for byte, so a rollback still
// replays it.
func TestAdmissionIsOneParentLine(t *testing.T) {
	j, dir := open(t)
	if _, err := j.Admit("job1", KindSweep, "t1", []byte(specJSON)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "job1"+suffix))
	if err != nil {
		t.Fatal(err)
	}
	if want := admissionLine("job1", "t1") + "\n"; string(got) != want {
		t.Fatalf("admission file\n%q\nwant\n%q", got, want)
	}
}

// TestCrashReplay: an admitted entry nothing removed — the process died
// — replays exactly once: Replay hands it back and registers it, so a
// second Replay skips it and its re-admission joins the file rather
// than rewriting it; removing it then leaves nothing for a later start.
func TestCrashReplay(t *testing.T) {
	j, dir := open(t)
	if _, err := j.Admit("job1", KindSweep, "t1", []byte(specJSON)); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(filepath.Join(dir, "job1"+suffix))

	// The crash: a new process opens the directory.
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
	if p := pend[0]; p.ID != "job1" || p.Kind != KindSweep || p.Tenant != "t1" || string(p.Spec) != specJSON {
		t.Fatalf("unexpected pending %+v", p)
	}
	if again, _ := j2.Replay(); len(again) != 0 {
		t.Fatalf("a live entry replayed twice: %+v", again)
	}
	if fresh, err := j2.Admit("job1", KindSweep, "t1", []byte(specJSON)); fresh || err != nil {
		t.Fatalf("re-admitting a replayed entry: fresh=%v err=%v", fresh, err)
	}
	if after, _ := os.ReadFile(filepath.Join(dir, "job1"+suffix)); string(after) != string(before) {
		t.Fatalf("re-admission rewrote the file: %q", after)
	}
	if err := j2.Remove("job1"); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pend, _ := j3.Replay(); len(pend) != 0 || len(files(t, dir)) != 0 {
		t.Fatalf("removed entry replayed: %+v", pend)
	}
}

// TestTerminalEntriesDroppedAtReplay: a terminal state an earlier
// version journaled — including a failure — is never resurrected;
// replay deletes the file so a re-submission of the same spec starts
// fresh (mirroring the job store's failed/cancelled re-submission
// eviction).
func TestTerminalEntriesDroppedAtReplay(t *testing.T) {
	for _, state := range []string{"done", "failed", "cancelled"} {
		t.Run(state, func(t *testing.T) {
			j, dir := open(t)
			writeFile(t, dir, "job1", admissionLine("job1", ""),
				`{"point":"p1","status":"error","attempts":3}`,
				`{"state":"`+state+`"}`)
			pend, err := j.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if len(pend) != 0 {
				t.Fatalf("terminal %q entry replayed: %+v", state, pend)
			}
			if got := files(t, dir); len(got) != 0 {
				t.Fatalf("terminal %q entry not deleted at replay: %v", state, got)
			}
			if st := j.Stats(); st.Dropped != 1 || st.Live != 0 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// TestTornTailTolerated: an earlier version's crash mid-append left a
// partial final line; the entry still replays.
func TestTornTailTolerated(t *testing.T) {
	j, dir := open(t)
	writeFile(t, dir, "job1", admissionLine("job1", ""),
		`{"point":"p1","status":"ok","attempts":1}`,
		`{"point":"p2","sta`)
	pend, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].ID != "job1" {
		t.Fatalf("want job1 pending, got %+v", pend)
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

// TestInterruptedAdmissionTempDeleted: the temp file of an admission a
// crash cut short between its create and its rename is deleted at
// replay and counted as dropped; the valid admission beside it replays.
func TestInterruptedAdmissionTempDeleted(t *testing.T) {
	j, dir := open(t)
	writeFile(t, dir, "job1", admissionLine("job1", "acme"))
	tmp := filepath.Join(dir, "job2.tmp-123")
	if err := os.WriteFile(tmp, []byte(admissionLine("job2", "")), 0o644); err != nil {
		t.Fatal(err)
	}
	pend, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 1 || pend[0].ID != "job1" || pend[0].Tenant != "acme" {
		t.Fatalf("replayed %+v, want job1 alone", pend)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("interrupted admission's temp file left behind: %v", err)
	}
	if s := j.Stats(); s.Dropped != 1 || s.Live != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestAdmitJoinsOpenEntry: a second admission of a live ID joins it
// without touching the file.
func TestAdmitJoinsOpenEntry(t *testing.T) {
	j, dir := open(t)
	fresh1, err := j.Admit("job1", KindSweep, "", []byte(specJSON))
	if err != nil || !fresh1 {
		t.Fatalf("first admit: fresh=%v err=%v", fresh1, err)
	}
	before, _ := os.ReadFile(filepath.Join(dir, "job1"+suffix))
	fresh2, err := j.Admit("job1", KindSweep, "other-tenant", []byte(`{}`))
	if err != nil || fresh2 {
		t.Fatalf("second admit: fresh=%v err=%v", fresh2, err)
	}
	if after, _ := os.ReadFile(filepath.Join(dir, "job1"+suffix)); string(after) != string(before) {
		t.Fatalf("joining admission rewrote the file: %q", after)
	}
	if st := j.Stats(); st.Admitted != 1 || st.Live != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDiscard: the undo path for a rejected submission removes the
// freshly admitted file; a second removal of the same ID does nothing.
func TestDiscard(t *testing.T) {
	j, dir := open(t)
	if _, err := j.Admit("job1", KindSweep, "", []byte(specJSON)); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove("job1"); err != nil {
		t.Fatal(err)
	}
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("discarded entry left a file: %v", got)
	}
	if err := j.Remove("job1"); err != nil {
		t.Fatalf("removing an entry twice: %v", err)
	}
	if st := j.Stats(); st.Live != 0 || st.Finished != 1 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRemoveSyncFailure: a directory fsync that fails after the unlink
// counts one error and changes nothing else: the file is gone, the ID
// is no longer live, and a later admission of it is fresh.
func TestRemoveSyncFailure(t *testing.T) {
	j, dir := open(t)
	j.syncDir = func(string) error { return errors.New("injected fsync failure") }
	if _, err := j.Admit("job1", KindSweep, "", []byte(specJSON)); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove("job1"); err == nil {
		t.Fatal("a failed directory fsync went unreported")
	}
	if got := files(t, dir); len(got) != 0 {
		t.Fatalf("file left after the unlink: %v", got)
	}
	if st := j.Stats(); st.Errors != 1 || st.Finished != 0 || st.Live != 0 || st.Admitted != 1 {
		t.Fatalf("stats %+v", st)
	}
	if fresh, err := j.Admit("job1", KindSweep, "", []byte(specJSON)); !fresh || err != nil {
		t.Fatalf("re-admission after the failed removal: fresh=%v err=%v", fresh, err)
	}
}

func TestUnsafeIDRejected(t *testing.T) {
	j, _ := open(t)
	for _, id := range []string{"", "..", "a/b", `a\b`} {
		if _, err := j.Admit(id, KindSweep, "", []byte(specJSON)); err == nil {
			t.Errorf("Admit(%q) accepted", id)
		}
	}
}

// TestNilJournalIsInert: every method on a nil *Journal is a safe
// no-op, so callers need no journal guards.
func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if fresh, err := j.Admit("x", KindSweep, "", nil); fresh || err != nil {
		t.Fatalf("nil Admit: %v %v", fresh, err)
	}
	if err := j.Remove("x"); err != nil {
		t.Fatal(err)
	}
	j.Drop("x")
	if _, err := j.Replay(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats %+v", st)
	}
}

// TestConcurrentAdmissions: racing admissions of one ID yield exactly
// one fresh entry and one file, distinct IDs each get their own, and
// concurrent removals leave nothing behind.
func TestConcurrentAdmissions(t *testing.T) {
	j, dir := open(t)
	const n = 32
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fresh int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := j.Admit("shared", KindSweep, "", []byte(specJSON))
			if err != nil {
				t.Error(err)
			}
			if _, err := j.Admit(fmt.Sprintf("job%02d", i), KindSweep, "", []byte(specJSON)); err != nil {
				t.Error(err)
			}
			if f {
				mu.Lock()
				fresh++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if fresh != 1 || len(files(t, dir)) != n+1 {
		t.Fatalf("%d fresh admissions of one ID, %d files; want 1 and %d", fresh, len(files(t, dir)), n+1)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.Remove("shared")
			j.Remove(fmt.Sprintf("job%02d", i))
		}()
	}
	wg.Wait()
	if st := j.Stats(); len(files(t, dir)) != 0 || st.Live != 0 || st.Errors != 0 {
		t.Fatalf("after removals: %v, stats %+v", files(t, dir), st)
	}
}

// BenchmarkJournalAdmitRemove times one job's whole journal traffic:
// its admission and its removal, an fsync each.
func BenchmarkJournalAdmitRemove(b *testing.B) {
	j, _ := open(b)
	for b.Loop() {
		if _, err := j.Admit("bench", KindSweep, "", []byte(specJSON)); err != nil {
			b.Fatal(err)
		}
		if err := j.Remove("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLeaseReplay: the files an earlier version appended to still
// replay. Admission, per-point completion and fleet lease lines
// ("status":"leased") replay as a pending job with its tenant — the
// point lines are ignored, since the result cache holds whatever
// settled — and a file closed with a terminal state line is dropped.
func TestLeaseReplay(t *testing.T) {
	j, dir := open(t)
	writeFile(t, dir, "job1", admissionLine("job1", "t1"),
		`{"point":"p1","status":"leased","holder":"replica-a"}`,
		`{"point":"p1","status":"ok","attempts":1}`,
		`{"point":"p2","status":"leased","holder":"replica-a"}`,
		`{"point":"p3","status":"error","attempts":3}`)
	writeFile(t, dir, "job2", admissionLine("job2", "t1"),
		`{"point":"p1","status":"leased","holder":"replica-a"}`,
		`{"point":"p1","status":"ok","attempts":1}`,
		`{"state":"done"}`)
	pend, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	want := Pending{ID: "job1", Kind: KindSweep, Tenant: "t1", Spec: []byte(specJSON)}
	if len(pend) != 1 || pend[0].ID != want.ID || pend[0].Kind != want.Kind ||
		pend[0].Tenant != want.Tenant || string(pend[0].Spec) != string(want.Spec) {
		t.Fatalf("pending %+v, want only %+v", pend, want)
	}
	if got := files(t, dir); len(got) != 1 || filepath.Base(got[0]) != "job1"+suffix {
		t.Fatalf("files after replay %v, want job1 alone", got)
	}
}
