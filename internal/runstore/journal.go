package runstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"qproc/internal/faultinject"
)

// JobRecord is one line of the job-metadata journal: the compact,
// JSON-serialisable view of a submitted job's lifecycle. The journal is
// what lets a restarted service list prior jobs — outcomes live in the
// run store (content-addressed by ID), metadata lives here.
type JobRecord struct {
	// ID is the job's content address (= the run-store key its outcome
	// is filed under).
	ID string `json:"id"`
	// Kind is the job type ("sweep", "search", "portfolio").
	Kind string `json:"kind"`
	// Summary is a human-readable one-liner for listings.
	Summary string `json:"summary,omitempty"`
	// Spec is the spec as submitted by the client, replayed verbatim.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Status is the lifecycle state at the time of the append ("queued",
	// "running", "done", "failed", "canceled"). A replay that finds a
	// job still queued or running knows the process died mid-flight.
	Status string `json:"status"`
	// Submitted/Started/Finished are the lifecycle timestamps; zero
	// values (IsZero) mean the transition had not happened yet.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Err carries the failure message of a failed job.
	Err string `json:"err,omitempty"`
	// Attempts counts how many times the job has been started (1 for a
	// job that never failed). Restart-time resubmission consults it
	// against the retry budget.
	Attempts int `json:"attempts,omitempty"`
	// ResolvedSpec is the normalised spec the job actually ran with —
	// enough for a restarted server to reconstruct and requeue the job
	// under the same content address.
	ResolvedSpec json.RawMessage `json:"resolved_spec,omitempty"`
}

// terminalRecordStatus reports whether a journaled status means the job
// will never run again — the states retention may evict. In-flight
// records (queued, running) are lost work a restart must surface, so
// they survive any retention bound.
func terminalRecordStatus(st string) bool {
	switch st {
	case "done", "failed", "canceled", "interrupted":
		return true
	}
	return false
}

// Journal is the job-metadata journal: an append-only NDJSON file next
// to the run store (jobs.ndjson) where each lifecycle transition appends
// one full JobRecord, and the last record per ID is the job's state.
// Outcomes are content-addressed in the store, metadata lives here. On
// open the file is folded to that last record per ID in first-submission
// order, pruned to the retention bound and rewritten compacted, so its
// size tracks distinct jobs, not appends. A Journal is safe for
// concurrent use.
type Journal struct {
	path     string
	fsync    bool
	restored []JobRecord

	mu sync.Mutex
	f  *os.File // nil once closed
}

// JournalOption configures OpenJournal.
type JournalOption func(*Journal)

// WithFsync controls whether every append is fsync'd to stable storage
// before returning. On (the qserve default) it bounds metadata loss on
// a power failure to zero appends at the cost of one fsync per
// lifecycle transition; off leaves flushing to the OS.
func WithFsync(on bool) JournalOption {
	return func(j *Journal) { j.fsync = on }
}

// OpenJournal opens (creating if needed) the journal at path, replays
// and folds its records, and rewrites it compacted: each surviving line
// keeps the bytes it was appended as. The folded records are available
// from Restored.
//
// retain bounds the records kept across the compaction, mirroring a
// server's in-memory retention: when the fold exceeds it, the oldest
// records in a terminal state are dropped first — records still marked
// queued or running (lost work a restart must surface) are always kept.
// retain <= 0 keeps everything.
func OpenJournal(path string, retain int, opts ...JournalOption) (*Journal, error) {
	j := &Journal{path: path}
	for _, o := range opts {
		o(j)
	}
	lines, err := replayJournal(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: journal: %w", err)
	}
	var buf []byte
	for _, l := range pruneJournal(lines, retain) {
		j.restored = append(j.restored, l.rec)
		buf = append(append(buf, l.raw...), '\n')
	}
	if err := atomicWrite(path, buf); err != nil {
		return nil, fmt.Errorf("runstore: journal: %w", err)
	}
	if j.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("runstore: journal: %w", err)
	}
	return j, nil
}

// journalLine is one folded record and the line it was decoded from.
type journalLine struct {
	rec JobRecord
	raw []byte
}

// replayJournal reads the file and folds it to the last record per ID,
// in first-submission order. A missing file is an empty journal. A line
// that does not decode to a record with an ID — a torn tail from a crash
// mid-append, a foreign line — is skipped, never fatal, so a torn tail
// costs at most the one record that was mid-write.
func replayJournal(path string) ([]journalLine, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byID := map[string]int{}
	var lines []journalLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var rec JobRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.ID == "" {
			continue
		}
		l := journalLine{rec: rec, raw: append([]byte(nil), sc.Bytes()...)}
		if i, ok := byID[rec.ID]; ok {
			lines[i] = l
			continue
		}
		byID[rec.ID] = len(lines)
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// pruneJournal drops the oldest terminal records beyond retain,
// preserving order; in-flight records always survive.
func pruneJournal(lines []journalLine, retain int) []journalLine {
	drop := len(lines) - retain
	if retain <= 0 || drop <= 0 {
		return lines
	}
	kept := lines[:0]
	for _, l := range lines {
		if drop > 0 && terminalRecordStatus(l.rec.Status) {
			drop--
			continue
		}
		kept = append(kept, l)
	}
	return kept
}

// Restored returns the folded records that were on disk when the
// journal was opened, in first-submission order. The slice is shared;
// callers must not mutate it.
func (j *Journal) Restored() []JobRecord { return j.restored }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append writes one record as a single NDJSON line. Without WithFsync,
// appends are buffered by the OS only — metadata loss on a crash is
// bounded to the transitions since the last append, and replay
// tolerates a torn tail. With it, the record is on stable storage when
// Append returns.
func (j *Journal) Append(rec JobRecord) error {
	if err := faultinject.Check(faultinject.SiteJournalAppend); err != nil {
		return fmt.Errorf("runstore: journal: %w", err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runstore: journal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("runstore: journal: closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("runstore: journal: %w", err)
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("runstore: journal: %w", err)
		}
	}
	return nil
}

// Close flushes and closes the journal file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
