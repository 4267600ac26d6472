package runstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, err := HashJSON(map[string]any{"kind": "sweep", "seed": 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"points":[1,2,3]}`)
	e, err := s.Put(key, "sweep", "sym6_145", payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Key != key || e.Kind != "sweep" || e.Size != int64(len(payload)) {
		t.Fatalf("entry %+v", e)
	}

	got, ge, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if ge == nil || string(got) != string(payload) {
		t.Fatalf("Get = %q, %+v", got, ge)
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}

	// A different key misses without error.
	other, _ := HashJSON("something else")
	if got, ge, err := s.Get(other); err != nil || got != nil || ge != nil {
		t.Fatalf("miss returned %q, %+v, %v", got, ge, err)
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
}

// TestHashStability: the content address must not depend on how the
// hashed value was assembled — map insertion order, struct declaration
// order and indirection through generic values all hash identically.
func TestHashStability(t *testing.T) {
	a := map[string]any{}
	a["kind"] = "sweep"
	a["spec"] = map[string]any{"benchmarks": []string{"x"}, "sigmas": []float64{0.03}}
	a["seed"] = 1

	b := map[string]any{}
	b["seed"] = 1
	b["spec"] = map[string]any{"sigmas": []float64{0.03}, "benchmarks": []string{"x"}}
	b["kind"] = "sweep"

	ha, err := HashJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := HashJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("insertion order changed the hash: %s vs %s", ha, hb)
	}

	// A struct with the same JSON content hashes like the map, whatever
	// the field declaration order.
	type spec struct {
		Sigmas     []float64 `json:"sigmas"`
		Benchmarks []string  `json:"benchmarks"`
	}
	type fp struct {
		Seed int    `json:"seed"`
		Kind string `json:"kind"`
		Spec spec   `json:"spec"`
	}
	hs, err := HashJSON(fp{Seed: 1, Kind: "sweep", Spec: spec{Sigmas: []float64{0.03}, Benchmarks: []string{"x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if hs != ha {
		t.Fatalf("struct and map with equal JSON hash differently: %s vs %s", hs, ha)
	}

	// Different content must hash differently.
	a["seed"] = 2
	h2, _ := HashJSON(a)
	if h2 == ha {
		t.Fatal("seed change did not change the hash")
	}
}

// TestCorruptedEntryRecovery: a truncated payload is evicted and
// reported as a miss, and the store accepts a fresh Put afterwards.
func TestCorruptedEntryRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := HashJSON("victim")
	payload := []byte(`{"ok":true}`)
	if _, err := s.Put(key, "sweep", "", payload); err != nil {
		t.Fatal(err)
	}

	// Truncate the payload behind the store's back.
	p := filepath.Join(dir, "runs", key, "outcome.json")
	if err := os.WriteFile(p, []byte(`{"ok":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ge, err := s.Get(key); err != nil || got != nil || ge != nil {
		t.Fatalf("corrupted entry served: %q, %+v, %v", got, ge, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs", key)); !os.IsNotExist(err) {
		t.Fatalf("corrupted run dir not removed: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("index still holds %d entries", s.Len())
	}

	// The key is usable again.
	if _, err := s.Put(key, "sweep", "", payload); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get(key); err != nil || string(got) != string(payload) {
		t.Fatalf("re-put not served: %q, %v", got, err)
	}
}

// TestStaleIndexFileIgnored: the run directories are the only index. An
// index.json left by an older layout, listing a ghost run and leaving
// out a real one, changes nothing: Open lists exactly the real run and
// leaves the file as it found it.
func TestStaleIndexFileIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := HashJSON("survivor")
	payload := []byte(`{"v":1}`)
	if _, err := s.Put(key, "search", "sym6_145 anneal", payload); err != nil {
		t.Fatal(err)
	}
	ghost, _ := HashJSON("ghost")
	stale := []byte(`{"version":1,"entries":{"` + ghost + `":{"key":"` + ghost +
		`","kind":"sweep","sha256":"` + ghost + `","size":2}}}`)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Len(); n != 1 {
		t.Fatalf("reopened store holds %d runs, want 1", n)
	}
	if es := s2.Entries(); len(es) != 1 || es[0].Key != key {
		t.Fatalf("entries = %+v, want only %s", es, key)
	}
	got, e, err := s2.Get(key)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("reopened store lost the run: %q, %v", got, err)
	}
	if e.Kind != "search" || e.Summary != "sym6_145 anneal" {
		t.Fatalf("reopened entry %+v", e)
	}
	if got, ge, err := s2.Get(ghost); err != nil || got != nil || ge != nil {
		t.Fatalf("ghost run served: %q, %+v, %v", got, ge, err)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "index.json")); err != nil || string(raw) != string(stale) {
		t.Fatalf("stale index.json touched: %q, %v", raw, err)
	}
}

// TestPutWritesOnlyItsRunDir: a Put touches nothing but runs/<key>/, so
// its cost does not depend on how many runs the store holds.
func TestPutWritesOnlyItsRunDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := HashJSON("only")
	if _, err := s.Put(key, "sweep", "", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	for sub, want := range map[string][]string{
		dir:                        {"runs"},
		filepath.Join(dir, "runs"): {key},
		s.runDir(key):              {"entry.json", "outcome.json"},
	} {
		des, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, d := range des {
			names = append(names, d.Name())
		}
		if !slices.Equal(names, want) {
			t.Errorf("%s holds %q, want %q", sub, names, want)
		}
	}
}

// TestCrossProcessAdoption: an entry written by a second store over the
// same directory is visible to the first without reopening.
func TestCrossProcessAdoption(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := HashJSON("shared")
	payload := []byte(`{"v":2}`)
	if _, err := b.Put(key, "sweep", "", payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.Get(key)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("first store did not adopt the run: %q, %v", got, err)
	}
}

func TestEntriesSortedAndLen(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"c", "a", "b"} {
		key, _ := HashJSON(v)
		if _, err := s.Put(key, "sweep", v, []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	es := s.Entries()
	if len(es) != 3 || s.Len() != 3 {
		t.Fatalf("entries = %d, len = %d", len(es), s.Len())
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Key >= es[i].Key {
			t.Fatalf("entries not sorted: %q >= %q", es[i-1].Key, es[i].Key)
		}
	}
}

func TestRejectsNonHexKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../etc/passwd", "ABCDEF", "zz"} {
		if _, err := s.Put(key, "sweep", "", []byte("{}")); err == nil {
			t.Errorf("Put accepted key %q", key)
		}
		if _, _, err := s.Get(key); err == nil {
			t.Errorf("Get accepted key %q", key)
		}
	}
}

// TestPeekDoesNotCount: internal scans must not distort the hit/miss
// statistics that report how many runs were served from the store.
func TestPeekDoesNotCount(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, _ := HashJSON("peeked")
	if _, err := s.Put(key, "sweep", "", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Peek(key); err != nil || got == nil {
		t.Fatalf("Peek = %q, %v", got, err)
	}
	missing, _ := HashJSON("absent")
	if got, _, err := s.Peek(missing); err != nil || got != nil {
		t.Fatalf("Peek miss = %q, %v", got, err)
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("Peek counted: %d hits, %d misses", hits, misses)
	}
}

// TestIndexMergeAcrossProcesses: two stores writing the same directory
// must not clobber each other's index entries — both runs stay listed.
func TestIndexMergeAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kx, _ := HashJSON("x")
	ky, _ := HashJSON("y")
	if _, err := a.Put(kx, "sweep", "", []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Put(ky, "search", "", []byte(`{"y":1}`)); err != nil {
		t.Fatal(err)
	}
	// b never saw a's Put through its own API, but its index write must
	// have adopted it; a fresh Open sees both.
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("fresh store lists %d entries, want 2", c.Len())
	}
	if len(b.Entries()) != 2 {
		t.Fatalf("writer store lists %d entries, want 2", len(b.Entries()))
	}
}

// TestEntriesDropsRunsEvictedElsewhere: Entries lists the directory, so a
// run another store over it evicted leaves this store's listing too.
func TestEntriesDropsRunsEvictedElsewhere(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := HashJSON("gone")
	if _, err := a.Put(key, "sweep", "", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Entries()); n != 1 {
		t.Fatalf("second store lists %d entries, want 1", n)
	}
	if err := a.Discard(key); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Entries()); n != 0 || b.Len() != 0 || b.Has(key) {
		t.Fatalf("second store still lists the evicted run: %d entries, len %d", n, b.Len())
	}
}

// TestConcurrentPutsListed: Puts racing Entries, Has and Get lose no
// run — once every Put has returned, Entries and Len list all of them.
func TestConcurrentPutsListed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		key, _ := HashJSON(i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := s.Put(key, "sweep", "", []byte("{}")); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			s.Entries()
			s.Has(key)
			if _, _, err := s.Get(key); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if es := s.Entries(); len(es) != n || s.Len() != n {
		t.Fatalf("entries = %d, len = %d, want %d", len(es), s.Len(), n)
	}
}

// TestHashJSONLargeInts: canonicalisation keeps integer precision above
// 2^53 — two adjacent huge seeds must not collide to one address.
func TestHashJSONLargeInts(t *testing.T) {
	h1, err := HashJSON(map[string]int64{"seed": 9007199254740992})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashJSON(map[string]int64{"seed": 9007199254740993})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("adjacent int64 seeds beyond 2^53 collided")
	}
}

// fillStore opens a store at dir holding n runs of 4 KiB each.
func fillStore(b *testing.B, dir string, n int) *Store {
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4<<10)
	for i := 0; i < n; i++ {
		key, _ := HashJSON(i)
		if _, err := s.Put(key, "sweep", "bench", payload); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkPut stores one run, under the same key each iteration, into
// a store holding n others: the cost a job pays to persist its outcome.
func BenchmarkPut(b *testing.B) {
	for _, n := range []int{0, 400} {
		b.Run(fmt.Sprintf("stored=%d", n), func(b *testing.B) {
			s := fillStore(b, b.TempDir(), n)
			key, _ := HashJSON("extra")
			payload := make([]byte, 4<<10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Put(key, "sweep", "bench", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen opens a store of 1000 runs: the cost a restarted server
// or CLI pays before its first lookup.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	fillStore(b, dir, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStoreFilesReadableByOthers: every file the store writes through
// its temp-file-and-rename path is 0644, like the journal's own appends,
// so another user sharing the store directory can read the runs.
func TestStoreFilesReadableByOthers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := HashJSON("readable")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(key, "sweep", "sym6_145", []byte(`{"points":[1]}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(key, []byte(`{"unit":1}`)); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "jobs.ndjson")
	j, err := OpenJournal(journal, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	run := s.runDir(key)
	for _, path := range []string{
		filepath.Join(run, "entry.json"),
		filepath.Join(run, "outcome.json"),
		s.checkpointPath(key),
		journal,
	} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if mode := info.Mode().Perm(); mode != 0o644 {
			t.Errorf("%s: mode %v, want -rw-r--r--", filepath.Base(path), mode)
		}
	}
}
