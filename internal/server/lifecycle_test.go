package server

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"qproc/internal/experiments"
	"qproc/internal/retry"
	"qproc/internal/runstore"
)

// TestJobLifecycleBytes pins what a client and the journal see of each
// lifecycle path, on a serial runner so that the event order is fixed:
// the /events bytes (as a SHA-256), the events, done and total status
// fields, and the sequence of statuses the journal records for the job.
// The paths are a sweep and a search that run to done, a sweep whose
// first attempt fails and whose retry is done, a queued job canceled
// before it runs, and, after a restart on the same store and journal, a
// restored done job and a job left running by the previous process.
func TestJobLifecycleBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a search and several sweeps")
	}
	type want struct {
		sha               string
		events, done, tot int
		journaledStatuses []string
		finalStatus       string
	}
	check := func(t *testing.T, base, id, name string, w want, journaled map[string][]string) {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != w.sha {
			t.Errorf("%s: /events SHA-256 %s, want %s; stream:\n%s", name, got, w.sha, body)
		}
		v := getStatus(t, base, id)
		if v.Status != w.finalStatus || v.Events != w.events || v.Done != w.done || v.Total != w.tot {
			t.Errorf("%s: status %q events %d done %d total %d, want %q %d %d %d",
				name, v.Status, v.Events, v.Done, v.Total, w.finalStatus, w.events, w.done, w.tot)
		}
		if got := journaled[id]; !slices.Equal(got, w.journaledStatuses) {
			t.Errorf("%s: journaled statuses %v, want %v", name, got, w.journaledStatuses)
		}
	}
	readJournal := func(t *testing.T, path string) map[string][]string {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		out := map[string][]string{}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var rec runstore.JobRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("journal line %q: %v", sc.Text(), err)
			}
			out[rec.ID] = append(out[rec.ID], rec.Status)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.ndjson")
	opt := tinyOptions()
	opt.Parallel = false
	start := func(t *testing.T) (*Server, *httptest.Server, *runstore.Journal) {
		t.Helper()
		store, err := runstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		journal, err := runstore.OpenJournal(journalPath, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Runner: experiments.NewRunner(opt), Store: store, Journal: journal,
			QueueSize: 4, Retry: retry.Policy{Failed: 1, Base: 10 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler()), journal
	}

	s1, ts1, journal1 := start(t)
	search := submit(t, ts1.URL, `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":12,"proposals":3,"max_evals":3,"aux_counts":[0]}}`)
	waitDone(t, ts1.URL, search.ID)
	sweep := submit(t, ts1.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["eff-full"],"sigmas":[0.03]}}`)
	waitDone(t, ts1.URL, sweep.ID)

	enableFaults(t, "store.get:error:times=1", 1)
	retried := submit(t, ts1.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.04]}}`)
	waitSettled(t, ts1.URL, retried.ID, "done")

	blocker := submit(t, ts1.URL, longSearchBody)
	waitStatus(t, ts1.URL, blocker.ID, "running")
	queued := submit(t, ts1.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.05]}}`)
	if queued.Status != "queued" {
		t.Fatalf("second job is %q behind a running one, want queued", queued.Status)
	}
	cancelJobHTTP(t, ts1.URL, queued.ID)
	cancelJobHTTP(t, ts1.URL, blocker.ID)
	waitStatus(t, ts1.URL, blocker.ID, "canceled")

	journal1.Close()
	journaled := readJournal(t, journalPath)
	check(t, ts1.URL, sweep.ID, "sweep", want{
		sha:    "6bdeeef22d0e21abca0a199869ae457b27f3fcbf150dfe7538e3e35fb08355a9",
		events: 2, done: 1, tot: 1,
		journaledStatuses: []string{"queued", "running", "done"}, finalStatus: "done",
	}, journaled)
	check(t, ts1.URL, search.ID, "search", want{
		sha:    "882efd2e05aa64d55b0b34eb7fe4cafc59b42972d595b0051288713aed3b0c46",
		events: 13, done: 12, tot: 12,
		journaledStatuses: []string{"queued", "running", "done"}, finalStatus: "done",
	}, journaled)
	check(t, ts1.URL, retried.ID, "retried sweep", want{
		sha:    "1cd8949c1c9a61610c9d68f7edee5be1ca95ad1291cae839f8b7c5b3a62e99d3",
		events: 5, done: 1, tot: 1,
		journaledStatuses: []string{"queued", "running", "failed", "queued", "running", "done"}, finalStatus: "done",
	}, journaled)
	check(t, ts1.URL, queued.ID, "queued cancel", want{
		sha:    "531178f17ceb4e2cbc6f2fd28161fd72896fb27cfc97969c6d8be2347edafbf4",
		events: 1, done: 0, tot: 0,
		journaledStatuses: []string{"queued", "canceled"}, finalStatus: "canceled",
	}, journaled)
	ts1.Close()
	s1.Close()

	// A job the previous process left running: the restart finds no
	// resolved spec to resume it from, so it is interrupted.
	j, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	lost := runstore.JobRecord{ID: "feedbeef", Kind: "sweep", Summary: "lost sweep", Status: "running",
		Submitted: time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC), Attempts: 1}
	if err := j.Append(lost); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s2, ts2, journal2 := start(t)
	defer func() {
		ts2.Close()
		s2.Close()
		journal2.Close()
	}()
	journaled = readJournal(t, journalPath) // the compacted fold, then this server's appends
	check(t, ts2.URL, sweep.ID, "restored done", want{
		sha:    "0f34269f65ca647f2ca5cd292b8f2c001daeeb6cee0de0da3360bddeee2b8fc4",
		events: 1, done: 0, tot: 0,
		journaledStatuses: []string{"done"}, finalStatus: "done",
	}, journaled)
	check(t, ts2.URL, lost.ID, "interrupted", want{
		sha:    "3e83a251484274f4820b108efbeb9e75aad040c6921cd5c7c574ab5f38222f62",
		events: 1, done: 0, tot: 0,
		journaledStatuses: []string{"running", "interrupted"}, finalStatus: "interrupted",
	}, journaled)
}
