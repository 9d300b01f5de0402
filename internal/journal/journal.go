// Package journal is the write-ahead job journal of the QLA serving
// layer: the durability tier that lets a restarted qlaserve re-admit
// sweeps a dead process orphaned. One job is one append-only file of
// JSON lines under the journal directory, named by the job's content
// address: the first line records the admitted canonical spec (written
// atomically — temp file, fsync, rename — so a half-admitted job can
// never replay), subsequent lines record per-point completions
// (point hash → status), and a terminal line marks the job settled.
// Replay scans the directory at startup: files with a terminal record
// are deleted (the job finished; nothing to recover — and a journaled
// failure must never be resurrected as a stale failed job, re-running
// is always fresher), files without one are handed back as Pending
// work to re-admit. Point completions are deliberately thin — the
// content-addressed result cache already holds the bytes, so replaying
// a half-finished sweep re-runs only the points the cache cannot
// serve.
//
// Point appends are single unsynced writes: a crash may lose the tail
// of the log (replay tolerates a torn final line), costing at most a
// few re-runs that the result cache absorbs. Admission and terminal
// records are fsynced — they decide whether a job replays at all.
package journal

import (
	"bufio"
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

// suffix is the journal file extension.
const suffix = ".wal"

// record is one JSON line of a journal file. Exactly one of the three
// shapes is populated: admission (ID/Kind/Tenant/Spec), point
// (Point/Status), terminal (State).
type record struct {
	V      int             `json:"v,omitempty"`
	ID     string          `json:"id,omitempty"`
	Kind   string          `json:"kind,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Point  string          `json:"point,omitempty"`
	// Status is "ok" or "error"; Cached and Attempts qualify it.
	Status   string `json:"status,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	State    string `json:"state,omitempty"`
}

// PointStatus is the replayed view of one per-point completion record.
type PointStatus struct {
	Status   string
	Cached   bool
	Attempts int
}

// Pending is one unfinished journal entry found by Replay: an admitted
// job with no terminal record — the process died while it ran.
type Pending struct {
	ID   string
	Kind string
	// Tenant is the owner recorded at admission; replayed jobs keep
	// their tenant across restarts (empty in pre-tenancy journals).
	Tenant string
	// Spec is the admitted canonical spec payload, verbatim.
	Spec []byte
	// Points maps point hash → the last completion recorded for it.
	Points map[string]PointStatus
}

// Journal owns a journal directory. Construct with Open; a Journal is
// safe for concurrent use, and a nil *Journal ignores every call.
type Journal struct {
	dir string

	mu   sync.Mutex
	open map[string]*Entry

	// The journal's counts live only in these instruments.
	admitted, resumed, points, finished, dropped, errors *obs.Counter
	appendSec, fsyncSec                                  *obs.Histogram
}

// Open prepares a Journal rooted at dir, creating the directory. Its
// instruments start on a private registry (see Instrument).
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, open: make(map[string]*Entry)}
	j.Instrument(obs.NewRegistry())
	return j, nil
}

// Instrument moves the journal's instruments onto reg: append and
// fsync latency histograms (observed inside the single write path),
// qla_journal_records_total{kind} and the resume/drop/error counters.
// Call it before the first admission; earlier counts are not carried
// over. Safe on a nil Journal.
func (j *Journal) Instrument(reg *obs.Registry) {
	if j == nil || reg == nil {
		return
	}
	j.appendSec = reg.Histogram("qla_journal_append_seconds",
		"Latency of one journal record append (write plus fsync when the record is synced).", obs.LatencyBuckets)
	j.fsyncSec = reg.Histogram("qla_journal_fsync_seconds",
		"Latency of the fsync alone, for synced records.", obs.LatencyBuckets)
	rec := reg.CounterVec("qla_journal_records_total", "Journal records appended, by kind.", "kind")
	j.admitted, j.points, j.finished = rec.With("admit"), rec.With("point"), rec.With("finish")
	j.resumed = reg.Counter("qla_journal_resumed_total", "Entries re-opened by a resubmission of a journaled job.")
	j.dropped = reg.Counter("qla_journal_dropped_total", "Journal files removed after their job settled.")
	j.errors = reg.Counter("qla_journal_errors_total", "Failed journal writes.")
}

// safeID reports whether id can name a journal file (hex content
// hashes always can).
func safeID(id string) bool {
	return id != "" && !strings.ContainsAny(id, "/\\") && id != "." && id != ".." && filepath.Base(id) == id
}

func (j *Journal) path(id string) string { return filepath.Join(j.dir, id+suffix) }

// Entry is one open journal file. Methods are safe for concurrent use.
type Entry struct {
	j     *Journal
	id    string
	fresh bool

	mu     sync.Mutex
	f      *os.File
	closed bool
}

// Admit records a job admission: the spec payload is durably on disk
// before Admit returns (temp file + fsync + rename), so a crash at any
// later moment replays the job. If an entry for id is already open —
// the job is running in this process — that entry is returned with
// fresh=false and the file is left untouched; a same-address
// resubmission must never clobber the running job's point log.
func (j *Journal) Admit(id, kind, tenant string, spec []byte) (e *Entry, fresh bool, err error) {
	if j == nil {
		return nil, false, nil
	}
	if !safeID(id) {
		return nil, false, fmt.Errorf("journal: unsafe job ID %q", id)
	}
	j.mu.Lock()
	if e, ok := j.open[id]; ok {
		j.mu.Unlock()
		return e, false, nil
	}
	// Reserve the slot before the file work so a concurrent Admit of
	// the same id joins rather than racing the rename.
	e = &Entry{j: j, id: id, fresh: true}
	j.open[id] = e
	j.mu.Unlock()

	line, err := marshalLine(record{V: 1, ID: id, Kind: kind, Tenant: tenant, Spec: spec})
	if err == nil {
		err = func() error {
			tmp, err := os.CreateTemp(j.dir, id+".tmp-*")
			if err != nil {
				return err
			}
			defer os.Remove(tmp.Name())
			if _, err := tmp.Write(line); err != nil {
				tmp.Close()
				return err
			}
			if err := tmp.Sync(); err != nil {
				tmp.Close()
				return err
			}
			if err := os.Rename(tmp.Name(), j.path(id)); err != nil {
				tmp.Close()
				return err
			}
			// The renamed fd stays valid for appends: same inode.
			e.f = tmp
			return nil
		}()
	}
	if err != nil {
		j.mu.Lock()
		delete(j.open, id)
		j.mu.Unlock()
		j.errors.Inc()
		return nil, false, fmt.Errorf("journal: admitting %s: %w", id, err)
	}
	j.admitted.Inc()
	return e, true, nil
}

// Resume reopens an existing entry (typically one Replay returned) for
// further point appends and its eventual terminal record.
func (j *Journal) Resume(id string) (*Entry, error) {
	if j == nil {
		return nil, nil
	}
	if !safeID(id) {
		return nil, fmt.Errorf("journal: unsafe job ID %q", id)
	}
	j.mu.Lock()
	if e, ok := j.open[id]; ok {
		j.mu.Unlock()
		return e, nil
	}
	e := &Entry{j: j, id: id}
	j.open[id] = e
	j.mu.Unlock()
	f, err := os.OpenFile(j.path(id), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.mu.Lock()
		delete(j.open, id)
		j.mu.Unlock()
		j.errors.Inc()
		return nil, fmt.Errorf("journal: resuming %s: %w", id, err)
	}
	e.f = f
	j.resumed.Inc()
	return e, nil
}

// Replay scans the journal directory. Entries with a terminal record
// are deleted — the job settled; in particular a journaled failure is
// dropped rather than resurrected, so resubmitting its spec starts a
// fresh run (mirroring the job store's failed/cancelled re-submission
// eviction). Entries without one are returned as Pending, oldest
// first by file name. Unparsable lines (a torn tail from a crash
// mid-append) are skipped; files whose admission line is unreadable
// are deleted as unrecoverable.
func (j *Journal) Replay() ([]Pending, error) {
	if j == nil {
		return nil, nil
	}
	names, err := filepath.Glob(filepath.Join(j.dir, "*"+suffix))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []Pending
	for _, name := range names {
		p, finished, ok := j.replayFile(name)
		if !ok || finished {
			j.dropped.Inc()
			os.Remove(name)
			continue
		}
		out = append(out, p)
	}
	return out, nil
}

// replayFile parses one journal file, reporting whether it is usable
// and whether it carries a terminal record.
func (j *Journal) replayFile(name string) (p Pending, finished, ok bool) {
	f, err := os.Open(name)
	if err != nil {
		return Pending{}, false, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	p.Points = make(map[string]PointStatus)
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			if first {
				return Pending{}, false, false // no readable admission
			}
			continue // torn tail or stray corruption: skip the line
		}
		if first {
			first = false
			if rec.ID == "" || len(rec.Spec) == 0 ||
				rec.ID+suffix != filepath.Base(name) {
				return Pending{}, false, false
			}
			p.ID, p.Kind, p.Tenant = rec.ID, rec.Kind, rec.Tenant
			p.Spec = append([]byte(nil), rec.Spec...)
			continue
		}
		switch {
		case rec.State != "":
			return p, true, true
		case rec.Point != "" && (rec.Status == "ok" || rec.Status == "error"):
			// Only a completion counts. The per-point lease lines of
			// journals written before fleet leasing was removed
			// ("status":"leased") name work that may never have finished,
			// so their points replay as pending.
			p.Points[rec.Point] = PointStatus{Status: rec.Status, Cached: rec.Cached, Attempts: rec.Attempts}
		}
	}
	if first {
		return Pending{}, false, false // empty file
	}
	return p, false, true
}

// Drop removes a journal file that is not open in this process (e.g. a
// Pending entry that no longer decodes).
func (j *Journal) Drop(id string) {
	if j == nil || !safeID(id) {
		return
	}
	j.mu.Lock()
	_, open := j.open[id]
	j.mu.Unlock()
	if !open {
		j.dropped.Inc()
		os.Remove(j.path(id))
	}
}

// Close closes every open entry without a terminal record — the
// shutdown path. Their jobs replay on the next start.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	entries := make([]*Entry, 0, len(j.open))
	for _, e := range j.open {
		entries = append(entries, e)
	}
	j.mu.Unlock()
	for _, e := range entries {
		e.close(false)
	}
	return nil
}

// Point appends one per-point completion record. The append is a
// single write without fsync: losing the tail on a crash only costs
// cache-absorbed re-runs.
func (e *Entry) Point(hash, status string, cached bool, attempts int) error {
	if e == nil {
		return nil
	}
	return e.append(record{Point: hash, Status: status, Cached: cached, Attempts: attempts}, false, e.j.points)
}

// Finish appends the terminal record (fsynced), closes the entry and
// removes the file: a settled job has nothing left to recover, and a
// failed one must not replay as a stale failure. A crash between the
// append and the remove is harmless — Replay deletes terminal files.
func (e *Entry) Finish(state string) error {
	if e == nil {
		return nil
	}
	err := e.append(record{State: state}, true, e.j.finished)
	e.close(true)
	return err
}

// Discard closes a freshly admitted entry and removes its file — the
// undo path for an admission whose job submission was rejected or
// joined an existing job.
func (e *Entry) Discard() {
	if e == nil {
		return
	}
	e.close(true)
}

// append writes one record line, optionally fsyncing, bumping counter.
func (e *Entry) append(rec record, sync bool, counter *obs.Counter) error {
	line, err := marshalLine(rec)
	if err == nil {
		e.mu.Lock()
		if e.closed {
			err = fmt.Errorf("journal: entry %s closed", e.id)
		} else {
			start := time.Now()
			_, err = e.f.Write(line)
			if err == nil && sync {
				s := time.Now()
				err = e.f.Sync()
				e.j.fsyncSec.Observe(time.Since(s).Seconds())
			}
			e.j.appendSec.Observe(time.Since(start).Seconds())
		}
		e.mu.Unlock()
	}
	if err != nil {
		e.j.errors.Inc()
	} else {
		counter.Inc()
	}
	return err
}

// close closes the file, unregisters the entry, and removes the file
// when remove is set.
func (e *Entry) close(remove bool) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	if e.f != nil {
		e.f.Close()
	}
	e.mu.Unlock()
	e.j.mu.Lock()
	if cur, ok := e.j.open[e.id]; ok && cur == e {
		delete(e.j.open, e.id)
	}
	e.j.mu.Unlock()
	if remove {
		os.Remove(e.j.path(e.id))
	}
}

// ID returns the entry's job ID.
func (e *Entry) ID() string { return e.id }

func marshalLine(rec record) ([]byte, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// Stats is a point-in-time snapshot of the journal for in-process
// readers: the record counts read back from the instruments plus the
// open-entry count.
type Stats struct {
	// Admitted counts fresh admissions; Resumed replayed entries
	// reopened for appends; Points per-point completion appends;
	// Finished terminal records; Dropped files deleted at replay or via
	// Drop; Errors failed writes (the job keeps running; only
	// durability is lost).
	Admitted, Resumed, Points, Finished, Dropped, Errors uint64
	// Open is the number of entries currently accepting appends.
	Open int
}

// Stats returns a snapshot of the journal.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	open := len(j.open)
	j.mu.Unlock()
	return Stats{
		Admitted: j.admitted.Value(),
		Resumed:  j.resumed.Value(),
		Points:   j.points.Value(),
		Finished: j.finished.Value(),
		Dropped:  j.dropped.Value(),
		Errors:   j.errors.Value(),
		Open:     open,
	}
}
