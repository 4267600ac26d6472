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
//	index.json              — cached key → entry map (rebuildable)
//	runs/<key>/entry.json   — the entry, authoritative per run
//	runs/<key>/outcome.json — the payload
//
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
	"qproc/internal/metrics"
)

// Entry describes one stored run.
type Entry struct {
	// Key is the content address: the canonical spec hash.
	Key string `json:"key"`
	// Kind is the job type ("sweep", "search").
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

	mu    sync.Mutex
	index map[string]Entry

	hits   atomic.Uint64
	misses atomic.Uint64
}

// index.json carries a format version so future layout changes can
// migrate or discard cleanly.
const indexVersion = 1

type indexFile struct {
	Version int              `json:"version"`
	Entries map[string]Entry `json:"entries"`
}

// Open creates (if needed) and loads the store at dir. A missing or
// corrupt index.json is rebuilt from the per-run entry files, so losing
// the index never loses the runs.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{root: dir, index: map[string]Entry{}}
	if err := s.loadIndex(); err != nil {
		if err := s.rebuildIndex(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

func (s *Store) indexPath() string        { return filepath.Join(s.root, "index.json") }
func (s *Store) runDir(key string) string { return filepath.Join(s.root, "runs", key) }

func (s *Store) loadIndex() error {
	entries, err := readIndexFile(s.indexPath())
	if err != nil {
		return err
	}
	s.index = entries
	return nil
}

func readIndexFile(path string) (map[string]Entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f indexFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, err
	}
	if f.Version != indexVersion {
		return nil, fmt.Errorf("runstore: index version %d (want %d)", f.Version, indexVersion)
	}
	if f.Entries == nil {
		f.Entries = map[string]Entry{}
	}
	return f.Entries, nil
}

// rebuildIndex reconstructs the index from the per-run entry files,
// skipping unreadable ones (their payloads are re-verified on Get
// anyway).
func (s *Store) rebuildIndex() error {
	dirs, err := os.ReadDir(filepath.Join(s.root, "runs"))
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	s.index = map[string]Entry{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		if e, err := readEntry(filepath.Join(s.root, "runs", d.Name(), "entry.json")); err == nil && e.Key == d.Name() {
			s.index[e.Key] = e
		}
	}
	return s.saveIndexLocked()
}

func readEntry(path string) (Entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// saveIndexLocked atomically rewrites index.json, first adopting any
// entries another process sharing the directory has added since this
// store loaded the index (ours win on conflict) — so a CLI and a server
// writing the same store do not clobber each other's listings. exclude
// names keys being evicted right now, which must not be re-adopted.
// Callers hold s.mu (or own the store exclusively, as in Open).
func (s *Store) saveIndexLocked(exclude ...string) error {
	if disk, err := readIndexFile(s.indexPath()); err == nil {
		for k, e := range disk {
			if _, ours := s.index[k]; ours {
				continue
			}
			skip := false
			for _, x := range exclude {
				if k == x {
					skip = true
					break
				}
			}
			if !skip {
				s.index[k] = e
			}
		}
	}
	raw, err := json.MarshalIndent(indexFile{Version: indexVersion, Entries: s.index}, "", "  ")
	if err != nil {
		return err
	}
	return metrics.AtomicWrite(s.indexPath(), raw)
}

// Put stores payload under key, atomically: the payload lands first,
// then the entry file, then the index. Re-putting an existing key
// overwrites it (the content address makes that a no-op in practice).
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
	if err := metrics.AtomicWrite(filepath.Join(dir, "outcome.json"), payload); err != nil {
		return Entry{}, fmt.Errorf("runstore: writing payload: %w", err)
	}
	rawEntry, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return Entry{}, err
	}
	if err := metrics.AtomicWrite(filepath.Join(dir, "entry.json"), rawEntry); err != nil {
		return Entry{}, fmt.Errorf("runstore: writing entry: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index[key] = e
	if err := s.saveIndexLocked(); err != nil {
		return Entry{}, fmt.Errorf("runstore: writing index: %w", err)
	}
	return e, nil
}

// Get returns the stored payload for key, or (nil, nil, nil) on a miss.
// The payload digest is verified first; a corrupted or truncated entry
// is evicted and counted as a miss. An entry present on disk but absent
// from the in-memory index (written by another process sharing the
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
	miss := func() ([]byte, *Entry, error) {
		if count {
			s.misses.Add(1)
		}
		return nil, nil, nil
	}
	s.mu.Lock()
	e, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		// Another process may have finished this run: the per-run entry
		// file is authoritative.
		var err error
		if e, err = readEntry(filepath.Join(s.runDir(key), "entry.json")); err != nil || e.Key != key {
			return miss()
		}
		s.mu.Lock()
		s.index[key] = e
		s.mu.Unlock()
	}
	payload, err := os.ReadFile(filepath.Join(s.runDir(key), "outcome.json"))
	if err != nil {
		s.evict(key)
		return miss()
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != e.SHA256 || int64(len(payload)) != e.Size {
		s.evict(key)
		return miss()
	}
	if count {
		s.hits.Add(1)
	}
	return payload, &e, nil
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
	s.mu.Lock()
	_, ok := s.index[key]
	s.mu.Unlock()
	if ok {
		return true
	}
	e, err := readEntry(filepath.Join(s.runDir(key), "entry.json"))
	if err != nil || e.Key != key {
		return false
	}
	s.mu.Lock()
	s.index[key] = e
	s.mu.Unlock()
	return true
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

// evict drops key from the index and removes its run directory.
func (s *Store) evict(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		delete(s.index, key)
		// Best-effort: a failed index write leaves the entry to be
		// re-adopted and re-verified on the next Get.
		_ = s.saveIndexLocked(key)
	}
	_ = os.RemoveAll(s.runDir(key))
}

// Entries lists the stored runs sorted by key — a deterministic order,
// so scans (e.g. warm-start selection) do not depend on map iteration.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.index))
	for _, e := range s.index {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of stored runs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
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
