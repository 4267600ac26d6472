package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qproc/internal/experiments"
	"qproc/internal/retry"
	"qproc/internal/runstore"
)

// deadlineSearchBody is longSearchBody plus a 1-second deadline the
// search cannot possibly meet: the supervisor must fail the attempt,
// distinguishable from a client cancellation.
const deadlineSearchBody = `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":200000,"max_evals":2,"timeout_sec":1}}`

// fetchEvents drains the job's event stream. The stream follows live
// events until the job's final attempt ends, so a call made while an
// attempt is running or a retry is pending blocks until the job settles.
func fetchEvents(t *testing.T, base, id string) []experiments.Event {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []experiments.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20) // panic events carry stacks
	for sc.Scan() {
		var e experiments.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// countEvent counts events whose message contains substr.
func countEvent(events []experiments.Event, substr string) int {
	n := 0
	for _, e := range events {
		if strings.Contains(e.Message, substr) {
			n++
		}
	}
	return n
}

// TestDeadlineFailsRunawayJob: a spec-level timeout_sec bounds the
// attempt's wall clock. The deadline firing is a failure (retryable),
// not a cancellation, and the error names the deadline.
func TestDeadlineFailsRunawayJob(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)

	v := submit(t, ts.URL, deadlineSearchBody)
	final := waitStatus(t, ts.URL, v.ID, statusFailed)
	if !strings.Contains(final.Err, "deadline") {
		t.Fatalf("deadline failure reports %q, want the deadline named", final.Err)
	}
	// No retry policy: the failure is final, no requeue happened.
	evs := fetchEvents(t, ts.URL, v.ID)
	if countEvent(evs, "retrying in") != 0 {
		t.Fatalf("unsupervised server scheduled a retry: %v", evs)
	}
}

// TestFailedJobRetriedThenExhausted: with a failed-retry budget of one,
// a job that fails deterministically (deadline every attempt) is
// requeued once after the backoff and then fails for good — two "job
// failed" events, one retry, terminal status failed.
func TestFailedJobRetriedThenExhausted(t *testing.T) {
	s, err := New(Config{
		Runner:    experiments.NewRunner(tinyOptions()),
		QueueSize: 4,
		Retry:     retry.Policy{Failed: 1, Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	v := submit(t, ts.URL, deadlineSearchBody)
	deadline := time.Now().Add(2 * time.Minute)
	var evs []experiments.Event
	for time.Now().Before(deadline) {
		evs = fetchEvents(t, ts.URL, v.ID)
		if countEvent(evs, "job failed") >= 2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := countEvent(evs, "job failed"); got != 2 {
		t.Fatalf("%d failure events, want 2 (budget of one retry): %v", got, evs)
	}
	if countEvent(evs, "retrying in") != 1 {
		t.Fatalf("retry announcements != 1: %v", evs)
	}
	if countEvent(evs, "requeued after failure") != 1 {
		t.Fatalf("requeue events != 1: %v", evs)
	}
	final := waitStatus(t, ts.URL, v.ID, statusFailed)
	if !strings.Contains(final.Err, "deadline") {
		t.Fatalf("final failure reports %q", final.Err)
	}
}

// TestQueueFull503CarriesRetryAfter: back-pressure 503s carry the
// policy-derived Retry-After header and mirror it in the error JSON,
// so clients can pace resubmissions without parsing prose.
func TestQueueFull503CarriesRetryAfter(t *testing.T) {
	s, err := New(Config{
		Runner:    experiments.NewRunner(tinyOptions()),
		QueueSize: 1,
		Retry:     retry.Policy{Failed: 1, Base: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		s.Shutdown(ctx)
	})

	running := submit(t, ts.URL, longSearchBody)
	waitStatus(t, ts.URL, running.ID, statusRunning)
	submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["dc1_220"],"configs":["eff-full"],"sigmas":[0.03]}}`)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"sweep","spec":{"benchmarks":["z4_268"],"configs":["eff-full"],"sigmas":[0.03]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want 2 (ceil of the 2s base backoff)", got)
	}
	var body struct {
		Error         string `json:"error"`
		RetryAfterSec int    `json:"retry_after_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RetryAfterSec != 2 || body.Error == "" {
		t.Fatalf("503 body %+v, want retry_after_sec 2 and an error message", body)
	}

	// With retries disabled the hint falls back to the legacy 5 seconds —
	// here on the shutdown 503.
	s2, ts2 := newTestServer(t, nil, 4)
	s2.Close()
	resp2, err := http.Post(ts2.URL+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shutdown submission: %d, want 503", resp2.StatusCode)
	}
	if got := resp2.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("zero-policy Retry-After = %q, want 5", got)
	}
}

// TestRestartRequeuesInterruptedJobs: a journal showing a job running
// when the process died, with its resolved spec and attempt count,
// makes a restarted supervised server resubmit it automatically under
// the same content address — while a record past the interrupted
// budget stays terminal.
func TestRestartRequeuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.ndjson")

	// Reconstruct exactly what a dying server would have journaled: the
	// resolved spec and the content address it hashes to.
	runner := experiments.NewRunner(tinyOptions())
	parsed, err := experiments.ParseJob("sweep",
		json.RawMessage(`{"benchmarks":["sym6_145"],"configs":["eff-full"],"aux_counts":[0],"sigmas":[0.03]}`))
	if err != nil {
		t.Fatal(err)
	}
	parsed = parsed.Normalize(runner.Options())
	key, err := runner.JobKeyFor(parsed)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := experiments.SpecJSON(parsed)
	if err != nil {
		t.Fatal(err)
	}

	j1, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	if err := j1.Append(runstore.JobRecord{
		ID: key, Kind: "sweep", Summary: "crashed sweep", Status: statusRunning,
		Attempts: 1, Submitted: now, Started: now, ResolvedSpec: resolved,
	}); err != nil {
		t.Fatal(err)
	}
	// A job already restarted past the interrupted budget is not requeued
	// again: it surfaces as interrupted.
	if err := j1.Append(runstore.JobRecord{
		ID: "feedbeef", Kind: "sweep", Summary: "crash-looping sweep", Status: statusRunning,
		Attempts: 7, Submitted: now, Started: now, ResolvedSpec: resolved,
	}); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Runner:    experiments.NewRunner(tinyOptions()),
		Journal:   j2,
		QueueSize: 4,
		Retry:     retry.Policy{Failed: 1, Interrupted: 2, Base: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		j2.Close()
	})

	// The interrupted job was resubmitted at startup and runs to done
	// without any client involvement.
	final := waitDone(t, ts.URL, key)
	if final.Status != statusDone {
		t.Fatalf("requeued job finished as %q", final.Status)
	}
	evs := fetchEvents(t, ts.URL, key)
	if countEvent(evs, "job interrupted by server restart; resuming from checkpoint if present") == 0 {
		t.Fatalf("requeued job carries no restart event: %v", evs)
	}

	// The budget-exhausted record stayed interrupted.
	if v := getStatus(t, ts.URL, "feedbeef"); v.Status != statusInterrupted {
		t.Fatalf("crash-looping job restored as %q, want interrupted", v.Status)
	}
}
