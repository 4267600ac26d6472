package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qproc/internal/experiments"
	"qproc/internal/runstore"
	"qproc/internal/search"
)

// tinyOptions keeps Monte-Carlo budgets small enough for fast tests.
func tinyOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.YieldTrials = 200
	o.FreqLocalTrials = 50
	return o
}

func newTestServer(t *testing.T, store *runstore.Store, queueSize int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Runner:    experiments.NewRunner(tinyOptions()),
		Store:     store,
		QueueSize: queueSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, base, body string) jobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, buf.String())
	}
	var v jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getStatus(t *testing.T, base, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitDone(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		v := getStatus(t, base, id)
		switch v.Status {
		case statusDone:
			return v
		case statusFailed:
			t.Fatalf("job %s failed: %s", id, v.Err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobStatus{}
}

const sweepBody = `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm","eff-full"],"sigmas":[0.03]}}`

func TestSubmitRunFetch(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)

	v := submit(t, ts.URL, sweepBody)
	if v.Kind != "sweep" || v.ID == "" {
		t.Fatalf("submit view %+v", v)
	}
	v = waitDone(t, ts.URL, v.ID)
	if v.Total == 0 || v.Done != v.Total {
		t.Errorf("final progress %d/%d", v.Done, v.Total)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	res, err := experiments.ReadSweepJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("empty sweep result")
	}
	if res.SchemaVersion != experiments.SchemaVersion {
		t.Errorf("result schema_version = %d", res.SchemaVersion)
	}
}

// TestConcurrentClientsShareNoiseCache is the acceptance check that
// every client's job runs on one runner: two clients submitting
// different jobs over the same design space share its compiled-kernel
// cache, so the second client's job compiles no new kernel. Noise
// matrices live as long as the job that draws them, so once both jobs
// are done no matrix is resident, while /v1/stats keeps counting every
// job's noise lookups.
func TestConcurrentClientsShareNoiseCache(t *testing.T) {
	s, ts := newTestServer(t, nil, 8)
	kernels := s.cfg.Runner.KernelCache()

	// Client 1: eff-full designs of sym6_145 at σ = 30 MHz.
	a := submit(t, ts.URL,
		`{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["eff-full"],"aux_counts":[0],"sigmas":[0.03]}}`)
	waitDone(t, ts.URL, a.ID)
	h1, m1 := kernels.Stats()
	if m1 == 0 {
		t.Fatal("first job compiled no kernel")
	}
	if nh, nm := s.cfg.Runner.NoiseCacheStats(); nh+nm == 0 {
		t.Fatal("first job did not simulate anything")
	}

	// Client 2: a different spec over the same topologies. Every
	// estimate must reuse a kernel client 1 compiled.
	b := submit(t, ts.URL,
		`{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["eff-layout-only"],"aux_counts":[0],"sigmas":[0.03]}}`)
	waitDone(t, ts.URL, b.ID)
	h2, m2 := kernels.Stats()
	if m2 != m1 {
		t.Errorf("second client compiled %d new kernels, want 0 (shared runner)", m2-m1)
	}
	if h2 <= h1 {
		t.Errorf("second client recorded no kernel cache hits (hits %d -> %d)", h1, h2)
	}

	var stats statsView
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	nh, nm := s.cfg.Runner.NoiseCacheStats()
	if stats.NoiseCache.Hits != nh || stats.NoiseCache.Misses != nm {
		t.Errorf("stats endpoint reports %d/%d noise hits/misses, runner %d/%d",
			stats.NoiseCache.Hits, stats.NoiseCache.Misses, nh, nm)
	}
	if stats.NoiseCache.Entries != 0 || stats.NoiseCache.Bytes != 0 {
		t.Errorf("noise matrices outlived their jobs: %+v", stats.NoiseCache)
	}
	if stats.KernelCache.Hits != h2 || stats.KernelCache.Misses != m2 {
		t.Errorf("stats endpoint reports kernel cache %+v, runner %d hits, %d misses", stats.KernelCache, h2, m2)
	}
	if stats.Workers.Size == 0 {
		t.Errorf("stats endpoint reports zero-size worker pool: %+v", stats.Workers)
	}
	if stats.Jobs[statusDone] != 2 {
		t.Errorf("stats jobs %+v", stats.Jobs)
	}
}

// TestNoiseCacheBoundedByOption checks the NoiseCacheBytes option wires
// through to each job's noise cache: a bound small enough for one
// matrix evicts within the job, and the results stay identical to an
// unbounded runner's.
func TestNoiseCacheBoundedByOption(t *testing.T) {
	opt := tinyOptions()
	// One 200-trial × ~16-qubit matrix ≈ 25 KiB; bound to 64 KiB so the
	// two baseline qubit counts cannot both stay resident.
	opt.NoiseCacheBytes = 64 << 10
	r := experiments.NewRunner(opt)
	bounded, err := r.RunBenchmark("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	free, err := experiments.NewRunner(tinyOptions()).RunBenchmark("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded.Points) != len(free.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(bounded.Points), len(free.Points))
	}
	for i := range bounded.Points {
		if bounded.Points[i] != free.Points[i] {
			t.Fatalf("point %d differs under the byte bound:\nbounded %+v\nfree    %+v",
				i, bounded.Points[i], free.Points[i])
		}
	}
	snap := r.NoiseCacheSnapshot()
	if snap.Limit != opt.NoiseCacheBytes {
		t.Fatalf("per-job cache limit %d, want %d", snap.Limit, opt.NoiseCacheBytes)
	}
	if snap.Evictions == 0 {
		t.Fatalf("the %d-byte bound evicted nothing: %+v", opt.NoiseCacheBytes, snap)
	}
	if snap.Entries != 0 || snap.Bytes != 0 {
		t.Fatalf("noise matrices outlived the job: %+v", snap)
	}
}

// TestDuplicateSubmissionDedupes: the same spec is the same job — no
// second queue slot, same id back.
func TestDuplicateSubmissionDedupes(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)
	a := submit(t, ts.URL, sweepBody)
	b := submit(t, ts.URL, sweepBody)
	if a.ID != b.ID {
		t.Fatalf("duplicate submission created a new job: %s vs %s", a.ID, b.ID)
	}
	waitDone(t, ts.URL, a.ID)

	// Field order in the JSON body does not matter: the content address
	// comes from the canonical spec.
	c := submit(t, ts.URL, `{"kind":"sweep","spec":{"sigmas":[0.03],"configs":["ibm","eff-full"],"benchmarks":["sym6_145"]}}`)
	if c.ID != a.ID {
		t.Fatalf("reordered JSON fields changed the job id: %s vs %s", c.ID, a.ID)
	}
}

// TestStoreBackedRestartServesInstantly: a server restarted over the
// same store serves a previously computed job without re-running it.
func TestStoreBackedRestartServesInstantly(t *testing.T) {
	dir := t.TempDir()
	store1, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, store1, 4)
	first := submit(t, ts1.URL, sweepBody)
	waitDone(t, ts1.URL, first.ID)

	store2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, store2, 4)
	v := submit(t, ts2.URL, sweepBody)
	if v.ID != first.ID {
		t.Fatalf("content address changed across restarts: %s vs %s", v.ID, first.ID)
	}
	v = waitDone(t, ts2.URL, v.ID)
	if !v.Cached {
		t.Fatal("restarted server recomputed a stored run")
	}
	if hits, misses := s2.cfg.Runner.NoiseCacheStats(); hits+misses != 0 {
		t.Fatalf("stored run still simulated: %d hits, %d misses", hits, misses)
	}
}

// TestEventStream: the events endpoint replays buffered progress and
// terminates when the job completes.
func TestEventStream(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)
	v := submit(t, ts.URL, sweepBody)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []experiments.Event
	sc := bufio.NewScanner(resp.Body)
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
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if !strings.HasPrefix(last.Message, "job done") {
		t.Fatalf("stream did not end with completion: %+v", last)
	}
	progressSeen := false
	for _, e := range events {
		if e.Total > 0 && e.Done > 0 {
			progressSeen = true
		}
	}
	if !progressSeen {
		t.Error("no per-cell progress in the stream")
	}
}

// TestQueueBounded: submissions beyond queue capacity are rejected with
// 503 instead of piling up — and cancelling a queued job frees its slot
// immediately, so dead entries never count against the bound. The single
// executor is pinned on a long search so the queue cannot drain.
func TestQueueBounded(t *testing.T) {
	s, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		s.Shutdown(ctx) // cancel whatever is still running
	})

	running := submit(t, ts.URL, longSearchBody)
	waitStatus(t, ts.URL, running.ID, statusRunning)

	// Distinct benchmarks make distinct content addresses.
	fills := `{"kind":"sweep","spec":{"benchmarks":["dc1_220"],"configs":["eff-full"],"sigmas":[0.03]}}`
	overflow := `{"kind":"sweep","spec":{"benchmarks":["z4_268"],"configs":["eff-full"],"sigmas":[0.03]}}`
	queued := submit(t, ts.URL, fills)
	if queued.Status != statusQueued {
		t.Fatalf("filler job is %q, want queued", queued.Status)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(overflow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: %d, want 503", resp.StatusCode)
	}

	// The rejected job is not registered: the listing shows only the
	// running and the queued job, no phantom third.
	var listing struct {
		Jobs []jobStatus `json:"jobs"`
	}
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 2 {
		t.Fatalf("listing holds %d jobs, want 2", len(listing.Jobs))
	}

	// Cancelling the queued job frees the slot: the overflow submission
	// is now admitted instead of 503ing against a dead entry.
	if v := cancelJobHTTP(t, ts.URL, queued.ID); v.Status != statusCanceled {
		t.Fatalf("queued job cancel left status %q", v.Status)
	}
	admitted := submit(t, ts.URL, overflow)
	if admitted.Status != statusQueued {
		t.Fatalf("post-cancel submission is %q, want queued", admitted.Status)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)
	cases := []string{
		`{"kind":"anneal","spec":{}}`,
		`{"kind":"sweep","spec":{"benchmrks":["x"]}}`,
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}

// TestSearchJobIdIsStoreKey: the announced job id must be the run-store
// key the outcome lands under, including when the search picks up a
// warm-start hint from a stored sweep (the hint is part of the content
// address, so it must be resolved before keying).
func TestSearchJobIdIsStoreKey(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, store, 8)

	// Seed the store with a sweep the search can warm-start from.
	sw := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["eff-full"],"aux_counts":[0],"sigmas":[0.03]}}`)
	waitDone(t, ts.URL, sw.ID)

	se := submit(t, ts.URL, `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":15,"max_evals":3}}`)
	waitDone(t, ts.URL, se.ID)

	payload, entry, err := store.Peek(se.ID)
	if err != nil {
		t.Fatal(err)
	}
	if payload == nil {
		t.Fatalf("job id %s is not a store key: outcome stored elsewhere", se.ID)
	}
	if entry.Kind != "search" {
		t.Fatalf("stored entry kind %q", entry.Kind)
	}
	out, err := experiments.ReadSearchJSON(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if out.Spec.WarmStart == nil {
		t.Fatal("search did not warm-start from the stored sweep")
	}
}

// TestFinishedJobEviction: the in-memory job map is bounded — the oldest
// finished jobs are dropped once RetainJobs is exceeded.
func TestFinishedJobEviction(t *testing.T) {
	s, err := New(Config{
		Runner:     experiments.NewRunner(tinyOptions()),
		QueueSize:  8,
		RetainJobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	a := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.03]}}`)
	waitDone(t, ts.URL, a.ID)
	b := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["eff-layout-only"],"sigmas":[0.03]}}`)
	waitDone(t, ts.URL, b.ID)
	c := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["eff-full"],"sigmas":[0.03]}}`)
	waitDone(t, ts.URL, c.ID)

	// With RetainJobs=1, at most one finished job may remain listed, and
	// the evicted first job 404s.
	s.mu.Lock()
	remaining := len(s.order)
	s.mu.Unlock()
	if remaining > 2 {
		t.Fatalf("%d jobs retained, want <= 2", remaining)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still served: %d", resp.StatusCode)
	}
}

// longSearchBody is a search far larger than any test waits for — the
// cancellation and shutdown tests rely on it not finishing on its own.
const longSearchBody = `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":200000,"max_evals":2}}`

func waitStatus(t *testing.T, base, id, want string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	var v jobStatus
	for time.Now().Before(deadline) {
		v = getStatus(t, base, id)
		if v.Status == want {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s stuck at %q, want %q", id, v.Status, want)
	return jobStatus{}
}

func cancelJobHTTP(t *testing.T, base, id string) jobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	var v jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCancelRunningJob is the tentpole acceptance check: DELETE on a
// running Monte-Carlo search stops it mid-flight — observed via the
// events stream ending in "job canceled" — and nothing is persisted.
func TestCancelRunningJob(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, store, 4)

	v := submit(t, ts.URL, longSearchBody)
	waitStatus(t, ts.URL, v.ID, statusRunning)

	start := time.Now()
	cancelJobHTTP(t, ts.URL, v.ID)
	final := waitStatus(t, ts.URL, v.ID, statusCanceled)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if final.Err != "" {
		t.Fatalf("cancelled job carries an error: %q", final.Err)
	}

	// The events stream terminates with the cancellation event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last experiments.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
	}
	if last.Message != "job canceled" {
		t.Fatalf("stream ended with %+v, want job canceled", last)
	}

	// Cancelled work is never persisted; the result endpoint reports 410.
	if store.Len() != 0 {
		t.Fatalf("cancelled job stored %d entries", store.Len())
	}
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job: %d, want 410", rresp.StatusCode)
	}

	// A resubmission replaces the cancelled job and runs again.
	re := submit(t, ts.URL, longSearchBody)
	if re.ID != v.ID {
		t.Fatalf("resubmission changed the content address: %s vs %s", re.ID, v.ID)
	}
	if re.Status != statusQueued && re.Status != statusRunning {
		t.Fatalf("resubmitted job is %q", re.Status)
	}
	cancelJobHTTP(t, ts.URL, re.ID)
	waitStatus(t, ts.URL, re.ID, statusCanceled)
}

// TestCancelQueuedJob: a job cancelled while waiting in the queue
// retires immediately without ever running, and the executor skips it.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, nil, 8)

	running := submit(t, ts.URL, longSearchBody)
	waitStatus(t, ts.URL, running.ID, statusRunning)

	queued := submit(t, ts.URL, sweepBody) // single executor is busy
	if queued.Status != statusQueued {
		t.Fatalf("second job is %q, want queued", queued.Status)
	}
	v := cancelJobHTTP(t, ts.URL, queued.ID)
	if v.Status != statusCanceled {
		t.Fatalf("cancelled queued job is %q", v.Status)
	}
	if v.Started != nil {
		t.Fatal("cancelled queued job has a start time")
	}

	// Idempotent: cancelling again (or after completion) changes nothing.
	if v := cancelJobHTTP(t, ts.URL, queued.ID); v.Status != statusCanceled {
		t.Fatalf("re-cancel changed status to %q", v.Status)
	}

	cancelJobHTTP(t, ts.URL, running.ID)
	waitStatus(t, ts.URL, running.ID, statusCanceled)
}

// TestShutdownCancelsAfterDeadline is the shutdown-hang regression test
// at the package level: with a long Monte-Carlo job running, Shutdown
// with an expired deadline returns within the cancellation bound (one
// proposal batch / trial chunk), not after the job's full remaining
// work, and the job is recorded as canceled.
func TestShutdownCancelsAfterDeadline(t *testing.T) {
	s, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v := submit(t, ts.URL, longSearchBody)
	waitStatus(t, ts.URL, v.ID, statusRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded (jobs were cancelled)", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("Shutdown blocked for %s with a 100ms deadline", elapsed)
	}
	s.mu.Lock()
	st := s.jobs[v.ID].statusNow()
	s.mu.Unlock()
	if st != statusCanceled {
		t.Fatalf("job after shutdown is %q, want canceled", st)
	}

	// A clean drain returns nil: nothing left to cancel.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("idempotent Shutdown: %v", err)
	}
}

// TestJournalRestartListsPriorJobs: a server restarted over the same
// store + journal lists prior jobs with their final statuses, serves
// done outcomes from the store without recomputing, and marks jobs that
// were in flight when the process died as interrupted.
func TestJournalRestartListsPriorJobs(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.ndjson")
	store1, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal1, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store1, Journal: journal1, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	done := submit(t, ts1.URL, sweepBody)
	waitDone(t, ts1.URL, done.ID)
	canceled := submit(t, ts1.URL, longSearchBody)
	waitStatus(t, ts1.URL, canceled.ID, statusRunning)
	cancelJobHTTP(t, ts1.URL, canceled.ID)
	waitStatus(t, ts1.URL, canceled.ID, statusCanceled)

	ts1.Close()
	s1.Close()
	if err := journal1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash with a job still in flight: append its queued
	// record the way a dying server would have left it.
	crashJournal, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashJournal.Append(runstore.JobRecord{
		ID: "deadbeef", Kind: "sweep", Summary: "crashed sweep",
		Status: "running", Submitted: time.Now().UTC(), Started: time.Now().UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	crashJournal.Close()

	store2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal2, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store2, Journal: journal2, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
		journal2.Close()
	})

	var listing struct {
		Jobs []jobStatus `json:"jobs"`
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byID := map[string]jobStatus{}
	for _, j := range listing.Jobs {
		byID[j.ID] = j
	}
	if len(listing.Jobs) != 3 {
		t.Fatalf("restarted server lists %d jobs, want 3: %+v", len(listing.Jobs), listing.Jobs)
	}
	// Its outcome is in the store, so the restored done job is cached.
	if got := byID[done.ID]; got.Status != statusDone || !got.Restored || !got.Cached {
		t.Fatalf("done job restored as %+v", got)
	}
	if got := getStatus(t, ts2.URL, done.ID); !got.Cached {
		t.Fatalf("restored done job's status is not cached: %+v", got)
	}
	if got := byID[canceled.ID]; got.Status != statusCanceled {
		t.Fatalf("canceled job restored as %+v", got)
	}
	if got := byID["deadbeef"]; got.Status != statusInterrupted {
		t.Fatalf("in-flight job restored as %+v", got)
	}

	// The done job's outcome is served from the store — zero simulation.
	rresp, err := http.Get(ts2.URL + "/v1/jobs/" + done.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("restored result: %s", rresp.Status)
	}
	res, err := experiments.ReadSweepJSON(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("restored result is empty")
	}
	// Resubmitting the done sweep dedupes onto its restored record: done
	// and cached, answered without recomputing.
	if re := submit(t, ts2.URL, sweepBody); re.ID != done.ID || re.Status != statusDone || !re.Cached {
		t.Fatalf("resubmission after restart answered %+v, want the cached done job", re)
	}
	if hits, misses := s2.cfg.Runner.NoiseCacheStats(); hits+misses != 0 {
		t.Fatalf("restored result simulated: %d hits, %d misses", hits, misses)
	}
}

// TestEvictionNeverDropsActiveJobs pins the eviction invariant: only
// terminal jobs are evicted, oldest first, and queued/running jobs
// survive any retention pressure.
func TestEvictionNeverDropsActiveJobs(t *testing.T) {
	s := &Server{
		cfg:  Config{RetainJobs: 1},
		jobs: map[string]*job{},
	}
	add := func(id, status string) {
		j := &job{JobRecord: runstore.JobRecord{ID: id, Status: status}, done: make(chan struct{}), wake: make(chan struct{})}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	add("done1", statusDone)
	add("run1", statusRunning)
	add("fail1", statusFailed)
	add("queue1", statusQueued)
	add("cancel1", statusCanceled)
	add("done2", statusDone)

	s.mu.Lock()
	s.evictFinishedLocked()
	s.mu.Unlock()

	finished := 0
	for _, j := range s.jobs {
		if runstore.Terminal(j.Status) {
			finished++
		}
	}
	if finished != 1 {
		t.Fatalf("%d finished jobs after eviction, want 1", finished)
	}
	for _, id := range []string{"run1", "queue1"} {
		if _, ok := s.jobs[id]; !ok {
			t.Fatalf("eviction dropped active job %s", id)
		}
	}
	// Oldest terminal jobs went first; the newest terminal one survives.
	if _, ok := s.jobs["done2"]; !ok {
		t.Fatal("eviction dropped the newest finished job instead of the oldest")
	}
	for _, id := range []string{"done1", "fail1", "cancel1"} {
		if _, ok := s.jobs[id]; ok {
			t.Fatalf("stale terminal job %s survived eviction", id)
		}
	}
	if len(s.order) != 3 {
		t.Fatalf("order holds %d ids, want 3", len(s.order))
	}
}

// TestPublishWakesStreamers pins the notification path that replaced the
// polling ticker: a blocked streamer is woken by the append itself.
func TestPublishWakesStreamers(t *testing.T) {
	j := &job{done: make(chan struct{}), wake: make(chan struct{})}
	j.mu.Lock()
	wake := j.wake
	j.mu.Unlock()
	go j.publish(experiments.Event{Message: "x"})
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the streamer")
	}
	j.mu.Lock()
	if j.events != 1 || j.wake == wake {
		t.Fatalf("append bookkeeping wrong: %d events", j.events)
	}
	j.mu.Unlock()
}

// TestQueueHoldsOnlyQueuedJobs: popping a job and removing a canceled
// one clear the slots they vacate, so the queue's backing array keeps no
// job alive after it leaves the queue, and eviction frees it.
func TestQueueHoldsOnlyQueuedJobs(t *testing.T) {
	s := &Server{jobs: map[string]*job{}}
	s.qcond = sync.NewCond(&s.mu)
	a, b, c := &job{}, &job{}, &job{}
	s.queue = []*job{a, b, c}
	if got := s.popJob(); got != a {
		t.Fatal("popJob did not return the oldest job")
	}
	s.mu.Lock()
	s.removeQueuedLocked(c)
	s.mu.Unlock()
	if len(s.queue) != 1 || s.queue[0] != b {
		t.Fatalf("queue holds %d jobs, want only the second", len(s.queue))
	}
	for i, q := range s.queue[len(s.queue):cap(s.queue)] {
		if q != nil {
			t.Fatalf("slot %d past the queue still holds a job", len(s.queue)+i)
		}
	}
}

// TestConcurrentStreamersReadOneStream: streamers that join while a
// search appends its events, and one that joins after the search is
// done, read the same bytes. Streamers write the stream outside the
// job's lock while the engine appends to it; run under -race.
func TestConcurrentStreamersReadOneStream(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)
	v := submit(t, ts.URL, `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":60,"proposals":4,"max_evals":4}}`)
	read := func() ([]byte, error) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	const streamers = 4
	live := make([][]byte, streamers)
	errs := make([]error, streamers)
	var wg sync.WaitGroup
	for i := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			live[i], errs[i] = read()
		}()
	}
	wg.Wait()
	final, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(final, []byte("\n")); n != getStatus(t, ts.URL, v.ID).Events || n < 2 {
		t.Fatalf("final stream holds %d lines, status reports %d events", n, getStatus(t, ts.URL, v.ID).Events)
	}
	for i := range live {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(live[i], final) {
			t.Fatalf("streamer %d read %d bytes, the finished job serves %d", i, len(live[i]), len(final))
		}
	}
}

// TestRestoredDoneJobWithLostOutcomeIsRetryable: a journal-restored done
// job whose payload the run store can no longer produce must not dedupe
// resubmissions forever — the resubmission replaces it and recomputes.
func TestRestoredDoneJobWithLostOutcomeIsRetryable(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.ndjson")
	store1, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal1, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store1, Journal: journal1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	done := submit(t, ts1.URL, sweepBody)
	waitDone(t, ts1.URL, done.ID)
	ts1.Close()
	s1.Close()
	journal1.Close()

	// Lose the stored outcome (operator pruning, disk corruption...).
	if err := store1.Discard(done.ID); err != nil {
		t.Fatal(err)
	}

	store2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal2, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store2, Journal: journal2, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
		journal2.Close()
	})

	// The restored job claims done, but its result is gone: it is not
	// cached, and its result endpoint 404s.
	if v := getStatus(t, ts2.URL, done.ID); v.Status != statusDone || !v.Restored || v.Cached {
		t.Fatalf("restored job with a lost outcome reads %+v, want done, restored, not cached", v)
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + done.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("lost-outcome result: %d, want 404", resp.StatusCode)
	}

	// Resubmitting must replace the dead record and recompute, not
	// dedupe onto it with 200/done.
	re := submit(t, ts2.URL, sweepBody)
	if re.ID != done.ID {
		t.Fatalf("resubmission changed the content address: %s vs %s", re.ID, done.ID)
	}
	if re.Status != statusQueued && re.Status != statusRunning {
		t.Fatalf("resubmission deduped onto the dead job (status %q)", re.Status)
	}
	final := waitDone(t, ts2.URL, re.ID)
	if final.Cached {
		t.Fatal("recomputed job claims it was served from the store")
	}
	rresp, err := http.Get(ts2.URL + "/v1/jobs/" + done.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("recomputed result: %s", rresp.Status)
	}
}

// chimeraSearchBody is a tiny chimera-family search: the topology field
// must survive submission, the run store, and a journal restart.
const chimeraSearchBody = `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","topology":"chimera(2,2,4)","steps":6,"proposals":2,"max_evals":1}}`

// TestChimeraTopologySurvivesStoreAndJournal is the topology-field
// round-trip: a chimera search is submitted, finishes, and after a
// server restart from the journal the restored job still carries the
// topology in its spec and serves the stored outcome with the family
// intact — no recomputation.
func TestChimeraTopologySurvivesStoreAndJournal(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.ndjson")
	store1, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal1, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store1, Journal: journal1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	done := submit(t, ts1.URL, chimeraSearchBody)
	if !strings.Contains(string(done.Spec), `"chimera(2,2,4)"`) {
		t.Fatalf("submitted job view lost the topology: %s", done.Spec)
	}
	waitDone(t, ts1.URL, done.ID)
	ts1.Close()
	s1.Close()
	journal1.Close()

	store2, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal2, err := runstore.OpenJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store2, Journal: journal2, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
		journal2.Close()
	})

	restored := getStatus(t, ts2.URL, done.ID)
	if restored.Status != statusDone || !restored.Restored {
		t.Fatalf("chimera job restored as %+v", restored)
	}
	if !strings.Contains(string(restored.Spec), `"chimera(2,2,4)"`) {
		t.Fatalf("journal-restored job lost the topology: %s", restored.Spec)
	}

	resp, err := http.Get(ts2.URL + "/v1/jobs/" + done.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored chimera result: %s", resp.Status)
	}
	out, err := experiments.ReadSearchJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out.Spec.Topology != "chimera(2,2,4)" {
		t.Fatalf("stored outcome topology %q, want chimera(2,2,4)", out.Spec.Topology)
	}
	if out.Arch == nil || out.Arch.Family != "chimera(2,2,4)" {
		t.Fatalf("stored winning architecture is not chimera-tagged: %+v", out.Arch)
	}
	if hits, misses := s2.cfg.Runner.NoiseCacheStats(); hits+misses != 0 {
		t.Fatalf("restored chimera result simulated: %d hits, %d misses", hits, misses)
	}
}

// TestPortfolioJobEndToEnd submits a portfolio search over HTTP, waits
// for it, and checks the outcome carries per-lane results — and that the
// stats endpoint surfaces the kernel-cache counters and lane lifecycle
// the run produced.
func TestPortfolioJobEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, nil, 4)

	v := submit(t, ts.URL,
		`{"kind":"portfolio","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":12,"proposals":2,"max_evals":8,"lanes":3,"exchange_every":3}}`)
	if v.Kind != "portfolio" {
		t.Fatalf("submit view %+v", v)
	}
	v = waitDone(t, ts.URL, v.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	out, err := experiments.ReadSearchJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Lanes) != 3 {
		t.Fatalf("outcome has %d lanes, want 3", len(out.Lanes))
	}
	if out.Best.Yield <= 0 {
		t.Errorf("portfolio winner yield %g", out.Best.Yield)
	}

	var stats statsView
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.KernelCache.Misses == 0 {
		t.Error("stats report no kernel compiles after a portfolio run")
	}
	if stats.KernelCache.Entries == 0 || stats.KernelCache.Bytes == 0 {
		t.Errorf("stats report an empty kernel cache: %+v", stats.KernelCache)
	}
	kh, km := s.cfg.Runner.KernelCache().Stats()
	if stats.KernelCache.Hits != kh || stats.KernelCache.Misses != km {
		t.Errorf("stats kernel cache %d/%d, runner %d/%d",
			stats.KernelCache.Hits, stats.KernelCache.Misses, kh, km)
	}
	if stats.Lanes.Live != 0 || stats.Lanes.Done != 3 {
		t.Errorf("stats lanes %d live / %d done, want 0/3", stats.Lanes.Live, stats.Lanes.Done)
	}
}

// TestSubmitAdmissionBounds: a submission whose cost is unbounded is
// refused before it is queued — a portfolio asking for more than
// search.MaxLanes lanes with 400, a body over the size cap with 413 —
// and the server keeps admitting valid work afterwards.
func TestSubmitAdmissionBounds(t *testing.T) {
	_, ts := newTestServer(t, nil, 4)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	lanes := fmt.Sprintf(`{"kind":"portfolio","spec":{"benchmark":"sym6_145","lanes":%d}}`, search.MaxLanes+1)
	if got := post(lanes); got != http.StatusBadRequest {
		t.Errorf("portfolio with %d lanes: status %d, want 400", search.MaxLanes+1, got)
	}
	huge := `{"kind":"sweep","spec":{"benchmarks":["` + strings.Repeat("x", 2*maxSubmitBytes) + `"]}}`
	if got := post(huge); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", got)
	}

	var listing struct {
		Jobs []jobStatus `json:"jobs"`
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 0 {
		t.Fatalf("refused submissions left %d jobs behind", len(listing.Jobs))
	}
	if v := submit(t, ts.URL, sweepBody); v.ID == "" {
		t.Fatal("valid submission after the refusals got no job id")
	}
}
