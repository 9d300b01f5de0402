// Package journal is the write-ahead job journal of the QLA serving
// layer: the durability tier that lets a restarted qlaserve re-admit
// sweeps a dead process orphaned. The journal directory holds one
// admission file per unfinished job, named by the job's content
// address. The file is one JSON line recording the admitted canonical
// spec, written atomically — temp file, fsync, rename — so a
// half-admitted job can never replay. Nothing is written to it
// afterwards: settling, cancelling, failing or discarding the job
// unlinks it and fsyncs the directory, so a settled job never replays,
// even after a power loss, and a failed one is never resurrected as a
// stale failure (re-running is always fresher).
//
// Point completions are not journaled. The content-addressed result
// cache already holds each settled point's bytes, so replaying a
// half-finished sweep re-runs only the points the cache cannot serve.
// Replay scans the directory at startup and hands every file back as
// Pending work to re-admit. It still reads the files earlier versions
// wrote, which appended per-point and lease lines (ignored, as is a
// torn final line) and a terminal state line (the job settled: the file
// is deleted).
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"qla/internal/obs"
)

// Kind labels what the admitted spec payload decodes as.
const KindSweep = "sweep"

// suffix is the journal file extension, and tmpPattern follows the ID
// in the os.CreateTemp pattern of an admission's temp file.
const suffix, tmpPattern = ".wal", ".tmp-*"

// record is one JSON line of a journal file. This version writes only
// the admission line (V, ID, Kind, Tenant, Spec), in the format earlier
// versions wrote too, so a rollback still replays it. State is read
// from the terminal line of files earlier versions wrote.
type record struct {
	V      int             `json:"v,omitempty"`
	ID     string          `json:"id,omitempty"`
	Kind   string          `json:"kind,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	State  string          `json:"state,omitempty"`
}

// Pending is one unfinished job found by Replay: an admission file
// nothing removed — the process died while the job ran.
type Pending struct {
	ID   string
	Kind string
	// Tenant is the owner recorded at admission; replayed jobs keep
	// their tenant across restarts (empty in pre-tenancy journals).
	Tenant string
	// Spec is the admitted canonical spec payload, verbatim.
	Spec []byte
}

// Journal owns a journal directory. Construct with Open; a Journal is
// safe for concurrent use, and a nil *Journal ignores every call.
type Journal struct {
	dir string
	// syncDir makes a removal durable; tests replace it to fail it.
	syncDir func(dir string) error

	mu sync.Mutex
	// live holds the IDs whose admission file this process owns: jobs
	// admitted or replayed here and not yet removed. An ID stays in the
	// map, false, while its removal runs: an Admit racing the removal
	// joins it rather than writing a file the unlink may take, and a
	// second removal does nothing.
	live map[string]bool

	// The journal's counts live only in these instruments.
	admitted, finished, dropped, errors *obs.Counter
	appendSec, fsyncSec                 *obs.Histogram
}

// Open prepares a Journal rooted at dir, creating the directory. Its
// instruments start on a private registry (see Instrument).
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, syncDir: fsyncDir, live: make(map[string]bool)}
	j.Instrument(obs.NewRegistry())
	return j, nil
}

// Instrument moves the journal's instruments onto reg: write and fsync
// latency histograms, qla_journal_records_total{kind} and the drop and
// error counters. Call it before the first admission; earlier counts
// are not carried over. Safe on a nil Journal.
func (j *Journal) Instrument(reg *obs.Registry) {
	if j == nil || reg == nil {
		return
	}
	j.appendSec = reg.Histogram("qla_journal_append_seconds",
		"Latency of one journal write: an admission (temp file, write, fsync, rename) or a removal (unlink plus directory fsync).", obs.LatencyBuckets)
	j.fsyncSec = reg.Histogram("qla_journal_fsync_seconds",
		"Latency of the fsync alone: the admission file's, or the directory's after a removal.", obs.LatencyBuckets)
	rec := reg.CounterVec("qla_journal_records_total",
		"Journal writes, by kind: admit (an admission file written) and finish (a job's file removed when it ended).", "kind")
	j.admitted, j.finished = rec.With("admit"), rec.With("finish")
	j.dropped = reg.Counter("qla_journal_dropped_total", "Journal files deleted at replay: settled, unreadable or no longer replayable, or a temp file an interrupted admission left.")
	j.errors = reg.Counter("qla_journal_errors_total", "Failed journal writes and removals.")
}

// safeID reports whether id can name a journal file (hex content
// hashes always can).
func safeID(id string) bool {
	return id != "" && !strings.ContainsAny(id, "/\\") && id != "." && id != ".." && filepath.Base(id) == id
}

func (j *Journal) path(id string) string { return filepath.Join(j.dir, id+suffix) }

// Admit records a job admission: the spec payload is durably on disk
// before Admit returns, so a crash at any later moment replays the job.
// If id is already live — its job runs in this process, or Replay
// handed it back — the file is left untouched and fresh is false: a
// same-address resubmission joins the entry rather than rewriting it.
func (j *Journal) Admit(id, kind, tenant string, spec []byte) (fresh bool, err error) {
	if j == nil {
		return false, nil
	}
	if !safeID(id) {
		return false, fmt.Errorf("journal: unsafe job ID %q", id)
	}
	j.mu.Lock()
	if _, ok := j.live[id]; ok {
		j.mu.Unlock()
		return false, nil
	}
	// Reserve the ID before the file work so a concurrent Admit of the
	// same id joins rather than racing the rename.
	j.live[id] = true
	j.mu.Unlock()

	line, err := json.Marshal(record{V: 1, ID: id, Kind: kind, Tenant: tenant, Spec: spec})
	if err == nil {
		err = j.write(id, append(line, '\n'))
	}
	if err != nil {
		j.mu.Lock()
		delete(j.live, id)
		j.mu.Unlock()
		j.errors.Inc()
		return false, fmt.Errorf("journal: admitting %s: %w", id, err)
	}
	j.admitted.Inc()
	return true, nil
}

// write puts line in place as id's admission file: a temp file,
// written, fsynced and renamed.
func (j *Journal) write(id string, line []byte) error {
	start := time.Now()
	defer func() { j.appendSec.Observe(time.Since(start).Seconds()) }()
	tmp, err := os.CreateTemp(j.dir, id+tmpPattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(line)
	if err == nil {
		s := time.Now()
		err = tmp.Sync()
		j.fsyncSec.Observe(time.Since(s).Seconds())
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), j.path(id))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Remove ends a live entry: it unlinks the admission file and fsyncs
// the directory, so the job never replays, even after a power loss.
// Settling, cancelling or failing a job ends here, and so does undoing
// a fresh admission whose submission was rejected or joined an existing
// job. Removing an ID that is not live does nothing.
func (j *Journal) Remove(id string) error {
	if j == nil {
		return nil
	}
	return j.remove(id, j.finished)
}

// Drop removes a replayed entry that will not run, e.g. one whose spec
// no longer decodes.
func (j *Journal) Drop(id string) {
	if j != nil {
		j.remove(id, j.dropped)
	}
}

// remove unlinks a live entry's file, fsyncs the directory and counts
// the removal in counter. A failure is counted in errors instead; the
// entry is no longer live either way.
func (j *Journal) remove(id string, counter *obs.Counter) error {
	j.mu.Lock()
	live := j.live[id]
	if live {
		j.live[id] = false
	}
	j.mu.Unlock()
	if !live {
		return nil
	}
	start := time.Now()
	err := os.Remove(j.path(id))
	j.mu.Lock()
	delete(j.live, id)
	j.mu.Unlock()
	if err == nil {
		s := time.Now()
		err = j.syncDir(j.dir)
		j.fsyncSec.Observe(time.Since(s).Seconds())
	}
	j.appendSec.Observe(time.Since(start).Seconds())
	if err != nil {
		j.errors.Inc()
		return fmt.Errorf("journal: removing %s: %w", id, err)
	}
	counter.Inc()
	return nil
}

// fsyncDir makes the directory's entries — a removal — durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay scans the journal directory and returns every unfinished job
// as Pending, in file-name order, registering each ID as live: the job
// runs in this process from now on, so Admit joins it and Remove ends
// it. IDs already live are not returned. Files that cannot replay are
// deleted: one whose admission line is unreadable, and one an earlier
// version closed with a terminal record — the job settled; in
// particular a journaled failure is dropped rather than resurrected, so
// resubmitting its spec starts a fresh run. So is the temp file of an
// admission a crash interrupted before its rename: a file becomes an
// admission only when it is renamed, so no temp file is live when
// Replay runs, before the server serves.
func (j *Journal) Replay() ([]Pending, error) {
	if j == nil {
		return nil, nil
	}
	temps, err := filepath.Glob(filepath.Join(j.dir, "*"+tmpPattern))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for _, name := range temps {
		if !strings.HasSuffix(name, suffix) {
			j.dropped.Inc()
			os.Remove(name)
		}
	}
	names, err := filepath.Glob(filepath.Join(j.dir, "*"+suffix))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []Pending
	for _, name := range names {
		p, ok := readFile(name)
		if !ok {
			j.dropped.Inc()
			os.Remove(name)
			continue
		}
		j.mu.Lock()
		_, known := j.live[p.ID]
		if !known {
			j.live[p.ID] = true
		}
		j.mu.Unlock()
		if !known {
			out = append(out, p)
		}
	}
	return out, nil
}

// readFile parses one journal file, reporting whether it replays.
func readFile(name string) (p Pending, ok bool) {
	data, err := os.ReadFile(name)
	if err != nil {
		return Pending{}, false
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		var rec record
		err := json.Unmarshal(line, &rec)
		switch {
		case p.ID != "":
			// A later line comes from an earlier version: point and
			// lease lines are ignored and a torn tail is skipped, but a
			// terminal record means the job settled.
			if err == nil && rec.State != "" {
				return Pending{}, false
			}
		case err != nil || rec.ID == "" || len(rec.Spec) == 0 || rec.ID+suffix != filepath.Base(name):
			return Pending{}, false // no readable admission
		default:
			p = Pending{ID: rec.ID, Kind: rec.Kind, Tenant: rec.Tenant, Spec: rec.Spec}
		}
	}
	return p, p.ID != ""
}

// Stats is a point-in-time snapshot of the journal for in-process
// readers: the counts read back from the instruments plus the live
// entry count.
type Stats struct {
	// Admitted counts admission files written; Finished entries
	// removed when their job ended; Dropped files deleted at replay or
	// via Drop; Errors failed writes and removals (the job keeps
	// running; only durability is lost).
	Admitted, Finished, Dropped, Errors uint64
	// Live is the number of entries whose admission file this process
	// owns.
	Live int
}

// Stats returns a snapshot of the journal.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	live := len(j.live)
	j.mu.Unlock()
	return Stats{
		Admitted: j.admitted.Value(),
		Finished: j.finished.Value(),
		Dropped:  j.dropped.Value(),
		Errors:   j.errors.Value(),
		Live:     live,
	}
}
