package runstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// legacyReplayFold is the pre-refactor journal replay, kept verbatim as
// the differential oracle: fold NDJSON lines to the last record per ID
// in first-appearance order, skipping unparsable lines.
func legacyReplayFold(data []byte) []JobRecord {
	byID := map[string]int{}
	var records []JobRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			continue
		}
		if i, ok := byID[rec.ID]; ok {
			records[i] = rec
			continue
		}
		byID[rec.ID] = len(records)
		records = append(records, rec)
	}
	return records
}

// legacyPrune is the pre-refactor retention pass: drop the oldest
// terminal-state records beyond retain, keep in-flight ones regardless.
func legacyPrune(records []JobRecord, retain int) []JobRecord {
	if retain <= 0 || len(records) <= retain {
		return records
	}
	drop := len(records) - retain
	kept := records[:0:0]
	for _, rec := range records {
		if drop > 0 {
			switch rec.Status {
			case "done", "failed", "canceled", "interrupted":
				drop--
				continue
			}
		}
		kept = append(kept, rec)
	}
	return kept
}

// legacyCompact renders the folded records the way the pre-refactor
// journal rewrote the file on open: one marshalled record per line.
func legacyCompact(records []JobRecord) []byte {
	var buf []byte
	for _, rec := range records {
		line, _ := json.Marshal(rec)
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return buf
}

// TestJournalRetentionPropertyShuffled is the retention edge-case
// property test: over random shuffles of terminal and in-flight records
// and every small retain value (including 0 = keep everything and
// bounds tighter than the in-flight count), the restored fold must
// match the legacy retention semantics exactly — all in-flight records
// kept, the oldest terminals dropped first, original order preserved.
func TestJournalRetentionPropertyShuffled(t *testing.T) {
	statuses := []string{"done", "failed", "canceled", "interrupted", "queued", "running"}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		var recs []JobRecord
		for i := 0; i < n; i++ {
			recs = append(recs, JobRecord{
				ID:     fmt.Sprintf("job%02d", i),
				Kind:   "sweep",
				Status: statuses[rng.Intn(len(statuses))],
			})
		}
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

		for retain := 0; retain <= n+1; retain++ {
			path := filepath.Join(t.TempDir(), "jobs.ndjson")
			j, err := OpenJournal(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()

			j2, err := OpenJournal(path, retain)
			if err != nil {
				t.Fatalf("seed %d retain %d: %v", seed, retain, err)
			}
			got := j2.Restored()
			j2.Close()

			want := legacyPrune(legacyReplayFold(legacyCompact(recs)), retain)
			if len(got) != len(want) {
				t.Fatalf("seed %d retain %d: restored %d records, want %d\n got: %+v\nwant: %+v",
					seed, retain, len(got), len(want), got, want)
			}
			inflight := 0
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Status != want[i].Status {
					t.Fatalf("seed %d retain %d: record %d = %s/%s, want %s/%s",
						seed, retain, i, got[i].ID, got[i].Status, want[i].ID, want[i].Status)
				}
				if !terminalRecordStatus(got[i].Status) {
					inflight++
				}
			}
			// Every in-flight record of the input fold survived.
			wantInflight := 0
			for _, r := range recs {
				if !terminalRecordStatus(r.Status) {
					wantInflight++
				}
			}
			if inflight != wantInflight {
				t.Fatalf("seed %d retain %d: %d in-flight survived, want %d",
					seed, retain, inflight, wantInflight)
			}
		}
	}
}

// TestJournalDifferentialMatchesLegacy holds the journal to the legacy
// reference: on the same lifecycle event sequence, the restored job
// listing deep-equals the legacy fold and the compacted on-disk file is
// byte-equal to the legacy rewrite.
func TestJournalDifferentialMatchesLegacy(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	spec := json.RawMessage(`{"benchmarks":["sym6_145"],"sigmas":[0.03]}`)
	events := []JobRecord{
		{ID: "aaaa", Kind: "sweep", Status: "queued", Submitted: now, Spec: spec},
		{ID: "bbbb", Kind: "search", Status: "queued", Submitted: now.Add(time.Second)},
		{ID: "aaaa", Kind: "sweep", Status: "running", Submitted: now, Started: now.Add(2 * time.Second), Spec: spec, Attempts: 1},
		{ID: "cccc", Kind: "portfolio", Status: "queued", Submitted: now.Add(3 * time.Second), ResolvedSpec: json.RawMessage(`{"lanes":4}`)},
		{ID: "aaaa", Kind: "sweep", Status: "done", Submitted: now, Started: now.Add(2 * time.Second), Finished: now.Add(5 * time.Second), Spec: spec, Attempts: 1},
		{ID: "bbbb", Kind: "search", Status: "failed", Err: "boom", Attempts: 2},
	}

	for _, retain := range []int{0, 1, 2, 10} {
		path := filepath.Join(t.TempDir(), "jobs.ndjson")
		j, err := OpenJournal(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		var appended []byte
		for _, e := range events {
			if err := j.Append(e); err != nil {
				t.Fatal(err)
			}
			line, _ := json.Marshal(e)
			appended = append(appended, line...)
			appended = append(appended, '\n')
		}
		j.Close()

		// The appended file is byte-equal to the legacy append format.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, appended) {
			t.Fatalf("retain %d: appended journal diverges from legacy bytes:\n%s\nvs\n%s", retain, raw, appended)
		}

		j2, err := OpenJournal(path, retain)
		if err != nil {
			t.Fatal(err)
		}
		got := j2.Restored()
		j2.Close()
		want := legacyPrune(legacyReplayFold(appended), retain)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("retain %d: restored listing diverges:\n got %+v\nwant %+v", retain, got, want)
		}

		// The compacted file is byte-equal to the legacy rewrite.
		compacted, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compacted, legacyCompact(want)) {
			t.Fatalf("retain %d: compacted file diverges from legacy bytes:\n%s\nvs\n%s",
				retain, compacted, legacyCompact(want))
		}
	}
}

// FuzzJournalReplay holds the journal's fold to the legacy reference on
// arbitrary file bytes: opening never fails, the restored records
// deep-equal the legacy fold pruned to retain (0–4), and reopening the
// compacted file restores the same records again. The seeds cover a
// clean log, a torn tail, foreign lines, an empty id and repeated ids.
func FuzzJournalReplay(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clean := legacyCompact([]JobRecord{
		{ID: "aaaa", Kind: "sweep", Status: "queued", Submitted: now, Spec: json.RawMessage(`{"sigmas":[0.03]}`)},
		{ID: "bbbb", Kind: "search", Status: "running", Attempts: 1, ResolvedSpec: json.RawMessage(`{"steps":5}`)},
		{ID: "aaaa", Kind: "sweep", Status: "done", Submitted: now, Finished: now.Add(time.Second)},
		{ID: "cccc", Kind: "portfolio", Status: "failed", Err: "boom", Attempts: 2},
	})
	f.Add(clean, uint8(0))
	f.Add(append(append([]byte(nil), clean...), `{"id":"dddd","kind":"sw`...), uint8(1))
	f.Add([]byte("not json\n{\"foo\":1}\n[1,2]\n{\"id\":\"eeee\",\"status\":\"done\"}\r\n"), uint8(2))
	f.Add([]byte(`{"id":"","status":"done"}`+"\n"+`{"status":"queued"}`+"\n"), uint8(3))
	f.Add([]byte(`{"id":"a","status":"done"}`+"\n"+`{"id":"b","status":"queued"}`+"\n"+
		`{"id":"a","status":"running"}`+"\n"+`{"id":"c","status":"canceled"}`+"\n"+`{"id":"a","status":"interrupted"}`), uint8(4))
	path := filepath.Join(f.TempDir(), "jobs.ndjson")
	f.Fuzz(func(t *testing.T, data []byte, r uint8) {
		retain := int(r % 5)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, retain)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got := j.Restored()
		j.Close()
		if want := legacyPrune(legacyReplayFold(data), retain); !reflect.DeepEqual(got, want) {
			t.Fatalf("retain %d: restored %+v, want %+v", retain, got, want)
		}
		j2, err := OpenJournal(path, retain)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		again := j2.Restored()
		j2.Close()
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("retain %d: reopened compacted file restored %+v, want %+v", retain, again, got)
		}
	})
}
