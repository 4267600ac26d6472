package metrics

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// EventLog is the keyed event-series variant of a metrics series: an
// append-only NDJSON file whose logical content is the LAST line per
// key, in first-appearance order. It is the storage layer under
// runstore.Journal — lifecycle records are a series of keyed events,
// and retention works on the folded view, not the append count.
//
// On open the file is replayed, folded, pruned to the retention bound,
// and rewritten compacted (atomic temp + rename), so its size tracks
// distinct keys rather than appends. Lines the Key extractor rejects —
// a torn tail from a crash mid-append, a foreign line — are skipped,
// never fatal, and cost at most the one record that was mid-write. An
// EventLog is safe for concurrent use.
type EventLog struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	fsync    bool
	restored [][]byte
}

// EventLogConfig shapes an EventLog's fold and retention.
type EventLogConfig struct {
	// Key extracts the fold key from one line; returning "" rejects the
	// line (torn or foreign — it is dropped on replay). Required.
	Key func(line []byte) string
	// Evictable reports whether a folded record may be dropped by
	// retention; records it rejects (in-flight lifecycle states) survive
	// any bound. Nil means everything is evictable.
	Evictable func(line []byte) bool
	// Retain bounds the folded records kept across compaction: when the
	// fold exceeds it, the oldest Evictable records are dropped first.
	// <= 0 keeps everything.
	Retain int
	// Fsync syncs every append to stable storage before returning.
	Fsync bool
}

// OpenEventLog opens (creating if needed) the log at path, replays and
// folds it, prunes to the retention bound, and rewrites it compacted.
func OpenEventLog(path string, cfg EventLogConfig) (*EventLog, error) {
	if cfg.Key == nil {
		return nil, fmt.Errorf("metrics: eventlog: Key extractor is required")
	}
	records, err := replayEventLog(path, cfg.Key)
	if err != nil {
		return nil, err
	}
	records = pruneEvents(records, cfg)
	var buf []byte
	for _, line := range records {
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := AtomicWrite(path, buf); err != nil {
		return nil, fmt.Errorf("metrics: eventlog: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("metrics: eventlog: %w", err)
	}
	return &EventLog{path: path, f: f, fsync: cfg.Fsync, restored: records}, nil
}

// pruneEvents drops the oldest evictable records beyond the retain
// bound, preserving order; non-evictable records always survive.
func pruneEvents(records [][]byte, cfg EventLogConfig) [][]byte {
	if cfg.Retain <= 0 || len(records) <= cfg.Retain {
		return records
	}
	drop := len(records) - cfg.Retain
	kept := records[:0]
	for _, line := range records {
		if drop > 0 && (cfg.Evictable == nil || cfg.Evictable(line)) {
			drop--
			continue
		}
		kept = append(kept, line)
	}
	return kept
}

// replayEventLog reads the NDJSON file and folds it to the last line
// per key, in first-appearance order. A missing file is an empty log.
func replayEventLog(path string, key func([]byte) string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("metrics: eventlog: %w", err)
	}
	defer f.Close()
	byKey := map[string]int{}
	var records [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		k := key(line)
		if k == "" {
			continue // torn or foreign line: skip, never fail the replay
		}
		cp := append([]byte(nil), line...)
		if i, ok := byKey[k]; ok {
			records[i] = cp
			continue
		}
		byKey[k] = len(records)
		records = append(records, cp)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: eventlog: %w", err)
	}
	return records, nil
}

// Restored returns the folded lines that were on disk at open, in
// first-appearance order. Shared; callers must not mutate.
func (l *EventLog) Restored() [][]byte { return l.restored }

// Path returns the log's file path.
func (l *EventLog) Path() string { return l.path }

// Append writes one line. Without Fsync, appends are buffered by the OS
// only — loss on a crash is bounded to the appends since the last sync,
// and replay tolerates a torn tail.
func (l *EventLog) Append(line []byte) error {
	out := make([]byte, 0, len(line)+1)
	out = append(out, line...)
	out = append(out, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("metrics: eventlog: closed")
	}
	if _, err := l.f.Write(out); err != nil {
		return fmt.Errorf("metrics: eventlog: %w", err)
	}
	if l.fsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("metrics: eventlog: %w", err)
		}
	}
	return nil
}

// Close flushes and closes the log file. Appends after Close fail.
func (l *EventLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// AtomicWrite writes data to path via a temp file + rename in the same
// directory, so a crash never leaves a half-written file and readers only
// ever see complete ones.
func AtomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
