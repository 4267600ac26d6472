// Package runstore is an on-disk, content-addressed store for finished
// experiment runs. Entries are keyed by the canonical hash of everything
// that determines a run's result (job kind, normalised spec, seed,
// Monte-Carlo budgets — see experiments.JobKey), so identical work is
// looked up before it is recomputed: a repeated sweep or search returns
// the stored payload bit-for-bit, and a search can warm-start from a
// stored sweep.
//
// Layout under the store root:
//
//	runs/<key>/entry.json   — the entry: kind, summary, digest, size
//	runs/<key>/outcome.json — the payload
//
// The run directories are the store's only index: the in-memory map
// caches their entry files, and a Put writes nothing outside its own
// runs/<key>/, so its cost does not grow with the number of stored runs.
// Every write is atomic (temp file + rename in the same directory), so a
// crashed run never leaves a half-written payload behind a valid key.
// Reads verify the payload's SHA-256 against the entry; a corrupted or
// truncated entry is evicted and reported as a miss, never served. The
// store is safe for concurrent use within a process; across processes
// the per-run entry files are authoritative, so a server and a CLI
// sharing one directory see each other's finished runs.
package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qproc/internal/faultinject"
)

// Entry describes one stored run.
type Entry struct {
	// Key is the content address: the canonical spec hash.
	Key string `json:"key"`
	// Kind is the job type ("sweep", "search", "portfolio").
	Kind string `json:"kind"`
	// Summary is a human-readable one-liner for listings.
	Summary string `json:"summary,omitempty"`
	// CreatedAt is the wall-clock completion time of the original run.
	CreatedAt time.Time `json:"created_at"`
	// SHA256 is the hex digest of the payload, verified on every read.
	SHA256 string `json:"sha256"`
	// Size is the payload length in bytes.
	Size int64 `json:"size"`
}

// Store is a content-addressed run store rooted at one directory.
type Store struct {
	root string

	mu sync.Mutex
	// entries caches the entry files under runs/, by key.
	entries map[string]Entry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// Open creates (if needed) the store at dir and reads the entry file of
// every stored run.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{root: dir}
	if err := s.scanLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

func (s *Store) runDir(key string) string { return filepath.Join(s.root, "runs", key) }

// scanLocked lists runs/ and makes the map match it: a directory the map
// already holds keeps its entry, any other has its entry file read, and a
// key whose directory is gone is dropped. Directories without a readable
// entry (checkpoint-only or corrupt ones) are skipped; their payloads
// would fail verification on Get anyway. Callers hold s.mu (or own the
// store exclusively, as in Open).
func (s *Store) scanLocked() error {
	dirs, err := os.ReadDir(filepath.Join(s.root, "runs"))
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	entries := make(map[string]Entry, len(dirs))
	for _, d := range dirs {
		if e, ok := s.entries[d.Name()]; ok {
			entries[e.Key] = e
		} else if e, ok := s.readEntry(d.Name()); ok {
			entries[e.Key] = e
		}
	}
	s.entries = entries
	return nil
}

// readEntry reads key's entry file; ok is false when it is missing,
// unreadable or names another key.
func (s *Store) readEntry(key string) (e Entry, ok bool) {
	raw, err := os.ReadFile(filepath.Join(s.runDir(key), "entry.json"))
	if err != nil || json.Unmarshal(raw, &e) != nil || e.Key != key {
		return Entry{}, false
	}
	return e, true
}

// lookup returns key's entry from the map or, on a miss, from its entry
// file, which another process sharing the directory may have written.
func (s *Store) lookup(key string) (Entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if ok {
		return e, true
	}
	if e, ok = s.readEntry(key); ok {
		s.mu.Lock()
		s.entries[key] = e
		s.mu.Unlock()
	}
	return e, ok
}

// Put stores payload under key, atomically: the payload lands first,
// then the entry file, both inside runs/<key>/. Re-putting an existing
// key overwrites it (the content address makes that a no-op in
// practice).
func (s *Store) Put(key, kind, summary string, payload []byte) (Entry, error) {
	if err := validKey(key); err != nil {
		return Entry{}, err
	}
	if err := faultinject.Check(faultinject.SiteStorePut); err != nil {
		return Entry{}, fmt.Errorf("runstore: %w", err)
	}
	sum := sha256.Sum256(payload)
	e := Entry{
		Key:       key,
		Kind:      kind,
		Summary:   summary,
		CreatedAt: time.Now().UTC(),
		SHA256:    hex.EncodeToString(sum[:]),
		Size:      int64(len(payload)),
	}
	dir := s.runDir(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Entry{}, fmt.Errorf("runstore: %w", err)
	}
	if err := atomicWrite(filepath.Join(dir, "outcome.json"), payload); err != nil {
		return Entry{}, fmt.Errorf("runstore: writing payload: %w", err)
	}
	rawEntry, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return Entry{}, err
	}
	if err := atomicWrite(filepath.Join(dir, "entry.json"), rawEntry); err != nil {
		return Entry{}, fmt.Errorf("runstore: writing entry: %w", err)
	}
	s.mu.Lock()
	s.entries[key] = e
	s.mu.Unlock()
	return e, nil
}

// Get returns the stored payload for key, or (nil, nil, nil) on a miss.
// The payload digest is verified first; a corrupted or truncated entry
// is evicted and counted as a miss. An entry present on disk but absent
// from the in-memory map (written by another process sharing the
// directory) is adopted.
func (s *Store) Get(key string) ([]byte, *Entry, error) { return s.get(key, true) }

// Peek is Get without touching the hit/miss counters — for internal
// scans (e.g. warm-start selection over every stored sweep) that must
// not distort the statistics reporting how many runs were actually
// served from the store.
func (s *Store) Peek(key string) ([]byte, *Entry, error) { return s.get(key, false) }

func (s *Store) get(key string, count bool) ([]byte, *Entry, error) {
	if err := validKey(key); err != nil {
		return nil, nil, err
	}
	if err := faultinject.Check(faultinject.SiteStoreGet); err != nil {
		return nil, nil, fmt.Errorf("runstore: %w", err)
	}
	if e, ok := s.lookup(key); ok {
		payload, err := os.ReadFile(filepath.Join(s.runDir(key), "outcome.json"))
		sum := sha256.Sum256(payload)
		if err == nil && hex.EncodeToString(sum[:]) == e.SHA256 && int64(len(payload)) == e.Size {
			if count {
				s.hits.Add(1)
			}
			return payload, &e, nil
		}
		s.evict(key)
	}
	if count {
		s.misses.Add(1)
	}
	return nil, nil, nil
}

// Has reports whether key is present in the store, adopting an entry
// another process sharing the directory has written — without reading
// or verifying the payload, so it is cheap enough for admission
// decisions. A true result can still fail verification at Get time;
// that Get evicts the entry, after which Has reports false.
func (s *Store) Has(key string) bool {
	if err := validKey(key); err != nil {
		return false
	}
	_, ok := s.lookup(key)
	return ok
}

// Discard evicts key, for callers that find a verified payload
// undecodable at a higher level (e.g. a schema change).
func (s *Store) Discard(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.evict(key)
	return nil
}

// evict drops key from the map and removes its run directory.
func (s *Store) evict(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, key)
	_ = os.RemoveAll(s.runDir(key))
}

// Entries lists the stored runs sorted by key — a deterministic order,
// so scans (e.g. warm-start selection) do not depend on map iteration.
// It lists runs/ first, so it follows the runs another process sharing
// the directory has stored or evicted; if runs/ cannot be listed, it
// lists the runs this store already knows.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.scanLocked()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of stored runs this store knows; unlike
// Entries, it does not list runs/.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats reports how many Gets were served from the store (hits) and how
// many found nothing usable (misses).
func (s *Store) Stats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// validKey guards the filesystem: keys are hex digests, never paths.
func validKey(key string) error {
	if key == "" {
		return fmt.Errorf("runstore: empty key")
	}
	for _, r := range key {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f':
		default:
			return fmt.Errorf("runstore: key %q is not a hex digest", key)
		}
	}
	return nil
}

// atomicWrite writes data to path via a temp file + rename in the same
// directory, so a crash never leaves a half-written file and readers only
// ever see complete ones. The file is made 0644 before the rename, as the
// journal's appends are: CreateTemp makes it owner-only, and other users
// sharing the store directory read the runs.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Chmod(0o644)
	}
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

// HashJSON returns the hex SHA-256 of v's canonical JSON: v is
// marshalled, decoded into generic values (which forgets struct
// declaration order and map insertion order alike) and re-marshalled —
// encoding/json sorts object keys, so any two values with the same JSON
// content hash identically regardless of how they were assembled.
// Numbers are kept as their literal text (json.Number), not float64, so
// int64 values beyond 2^53 — e.g. large seeds — never collide.
func HashJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runstore: hashing: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return "", fmt.Errorf("runstore: hashing: %w", err)
	}
	canon, err := json.Marshal(generic)
	if err != nil {
		return "", fmt.Errorf("runstore: hashing: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
