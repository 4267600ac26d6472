package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qproc/internal/experiments"
	"qproc/internal/retry"
	"qproc/internal/runstore"
)

// readStream reads a job's whole /events stream on one connection.
func readStream(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRetriedJobFollowerSeesEveryAttempt: a client that follows a job's
// /events from before its first attempt fails reads, on that one
// connection, the failure, the retry announcement and the requeue
// through to "job done", and the same bytes as a client that reads the
// stream once the job is done.
func TestRetriedJobFollowerSeesEveryAttempt(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store, QueueSize: 4,
		Retry: retry.Policy{Failed: 1, Base: 250 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	// connected fires as the follower's request reaches the handler.
	connected := make(chan struct{}, 1)
	api := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			select {
			case connected <- struct{}{}:
			default:
			}
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		s.Close()
		ts.CloseClientConnections() // ts.Close waits for open streams
		ts.Close()
	})

	// The sweep waits in the queue behind a running search, so the
	// follower connects before its first attempt starts.
	blocker := submit(t, ts.URL, longSearchBody)
	// Its first progress event follows its store lookup, which the fault
	// below must not hit.
	waitForEvent(t, s, blocker.ID, `"best yield `)
	enableFaults(t, "store.get:error:times=1", 1)
	sweep := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.04]}}`)
	if sweep.Status != statusQueued {
		t.Fatalf("sweep is %q behind a running search, want queued", sweep.Status)
	}
	followed := make(chan []byte, 1)
	go func() {
		var body []byte
		if resp, err := http.Get(ts.URL + "/v1/jobs/" + sweep.ID + "/events"); err == nil {
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		followed <- body
	}()
	<-connected
	cancelJobHTTP(t, ts.URL, blocker.ID)

	var live []byte
	select {
	case live = <-followed:
	case <-time.After(2 * time.Minute):
		t.Fatal("follower's stream still open two minutes on")
	}
	if v := getStatus(t, ts.URL, sweep.ID); v.Status != statusDone {
		t.Fatalf("follower's stream ended with the job %q (err %q), want done; stream:\n%s", v.Status, v.Err, live)
	}
	lines := strings.Split(strings.TrimSuffix(string(live), "\n"), "\n")
	for i, want := range []string{`"job failed"`, `"retrying in `, `"requeued after failure"`} {
		if i >= len(lines) || !strings.Contains(lines[i], want) {
			t.Fatalf("follower's line %d does not carry %s; stream:\n%s", i, want, live)
		}
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, `"job done"`) {
		t.Fatalf("follower's stream ends with %s, want job done", last)
	}
	if late := readStream(t, ts.URL, sweep.ID); !bytes.Equal(live, late) {
		t.Fatalf("follower read\n%s\na late reader read\n%s", live, late)
	}
}

// TestShutdownEndsStreamsWaitingOutABackoff: a failed job waiting out
// its retry backoff keeps its stream open, and Shutdown ends that stream
// instead of holding its followers, and with them an HTTP server's
// shutdown, until the backoff would have elapsed.
func TestShutdownEndsStreamsWaitingOutABackoff(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store, QueueSize: 4,
		Retry: retry.Policy{Failed: 1, Base: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.CloseClientConnections() // ts.Close waits for open streams
		ts.Close()
	})

	enableFaults(t, "store.get:error:times=1", 1)
	v := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.04]}}`)
	waitStatus(t, ts.URL, v.ID, statusFailed)
	followed := make(chan []byte, 1)
	go func() {
		var body []byte
		if resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events"); err == nil {
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		followed <- body
	}()
	select {
	case body := <-followed:
		t.Fatalf("stream ended while the retry was pending:\n%s", body)
	case <-time.After(200 * time.Millisecond):
	}
	s.Close()
	select {
	case body := <-followed:
		if !strings.Contains(string(body), `"retrying in 1h0m0s (attempt 2)"`) {
			t.Fatalf("stream ended without the retry announcement:\n%s", body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown left open the stream of a job waiting out its backoff")
	}
}

// TestRequeueThatBailsEndsTheStream: when a client resubmits a job that
// is waiting out its retry backoff, the resubmission replaces it, and the
// replaced job's retry bails out; that ends the stream its followers are
// reading.
func TestRequeueThatBailsEndsTheStream(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Runner: experiments.NewRunner(tinyOptions()), Store: store, QueueSize: 4,
		Retry: retry.Policy{Failed: 1, Base: 250 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.CloseClientConnections() // ts.Close waits for open streams
		ts.Close()
	})

	enableFaults(t, "store.get:error:times=1", 1)
	const body = `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.04]}}`
	v := submit(t, ts.URL, body)
	waitStatus(t, ts.URL, v.ID, statusFailed)
	s.mu.Lock()
	failed := s.jobs[v.ID]
	s.mu.Unlock()
	submit(t, ts.URL, body)
	waitDone(t, ts.URL, v.ID)
	s.mu.Lock()
	replaced := s.jobs[v.ID] != failed
	s.mu.Unlock()
	if !replaced {
		t.Fatal("the resubmission did not replace the failed job")
	}
	select {
	case <-failed.done:
	case <-time.After(30 * time.Second):
		t.Fatal("the replaced job's stream is still open after its retry bailed out")
	}
	failed.mu.Lock()
	stream := string(failed.streamLocked())
	failed.mu.Unlock()
	if strings.Contains(stream, "requeued after failure") {
		t.Fatalf("the replaced job was requeued:\n%s", stream)
	}
}

// TestFinishedJobStreamHasNoSlack: once a job is done, it retains its
// stream compressed, with no plain copy or append slack left, and
// /events still serves every byte.
func TestFinishedJobStreamHasNoSlack(t *testing.T) {
	s, ts := newTestServer(t, nil, 4)
	v := submit(t, ts.URL, `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":40,"proposals":3,"max_evals":3,"aux_counts":[0]}}`)
	waitDone(t, ts.URL, v.ID)
	s.mu.Lock()
	j := s.jobs[v.ID]
	s.mu.Unlock()
	j.mu.Lock()
	plain, packed, held := j.streamLocked(), len(j.packed), cap(j.stream)
	j.mu.Unlock()
	if len(plain) == 0 || held != 0 || packed == 0 || 10*packed > len(plain) {
		t.Fatalf("finished job holds %d compressed bytes and %d plain for a %d-byte stream, want under a tenth and none",
			packed, held, len(plain))
	}
	if body := readStream(t, ts.URL, v.ID); !bytes.Equal(body, plain) {
		t.Fatalf("/events served %d bytes, the stream holds %d", len(body), len(plain))
	}
}

// startRetryServer starts a server over a store and journal in dir whose
// failed jobs retry once after an hour, so a test acts on a pending
// retry by calling requeue itself instead of waiting for the timer. It
// returns the journal's path.
func startRetryServer(t *testing.T, dir string, retain int) (*Server, *httptest.Server, *runstore.Store, string) {
	t.Helper()
	js := startJournaled(t, dir, Config{QueueSize: 4, RetainJobs: retain, Retry: retry.Policy{Failed: 1, Base: time.Hour}})
	return js.s, js.ts, js.store, js.path
}

// journaled is a server over a store and journal in one directory.
type journaled struct {
	s       *Server
	ts      *httptest.Server
	store   *runstore.Store
	journal *runstore.Journal
	path    string // the journal's
}

// startJournaled starts a server with cfg's queue, retention and retry
// settings over a store and journal in dir.
func startJournaled(t *testing.T, dir string, cfg Config) *journaled {
	t.Helper()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	js := &journaled{store: store, path: filepath.Join(dir, "jobs.ndjson")}
	if js.journal, err = runstore.OpenJournal(js.path, 0); err != nil {
		t.Fatal(err)
	}
	cfg.Runner, cfg.Store, cfg.Journal = experiments.NewRunner(tinyOptions()), store, js.journal
	if js.s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	js.ts = httptest.NewServer(js.s.Handler())
	t.Cleanup(js.stop)
	return js
}

// stop stops the server as qserve does on exit: the jobs, then the HTTP
// server, then the journal. Later calls do nothing.
func (js *journaled) stop() {
	js.s.Close()
	js.ts.CloseClientConnections() // ts.Close waits for open streams
	js.ts.Close()
	js.journal.Close()
}

// failIntoBackoff submits a sweep whose first attempt fails, and returns
// the job once its stream announces the retry.
func failIntoBackoff(t *testing.T, s *Server, base string) *job {
	t.Helper()
	enableFaults(t, "store.get:error:times=1", 1)
	v := submit(t, base, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.04]}}`)
	return waitForEvent(t, s, v.ID, `"retrying in `)
}

// waitForEvent returns id's job once its stream holds substr, woken by
// each append rather than by polling.
func waitForEvent(t *testing.T, s *Server, id, substr string) *job {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	for {
		j.mu.Lock()
		found := bytes.Contains(j.streamLocked(), []byte(substr))
		wake := j.wake
		j.mu.Unlock()
		if found {
			return j
		}
		select {
		case <-wake:
		case <-time.After(2 * time.Minute):
			t.Fatalf("job %s never streamed %s", id, substr)
		}
	}
}

// lastJournaled returns the status of id's last journal record.
func lastJournaled(t *testing.T, path, id string) string {
	t.Helper()
	return lastRecord(t, path, id).Status
}

// lastRecord returns id's last journal record.
func lastRecord(t *testing.T, path, id string) runstore.JobRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var last runstore.JobRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var rec runstore.JobRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err == nil && rec.ID == id {
			last = rec
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return last
}

// TestDeleteCancelsPendingRetry: a DELETE on a failed job waiting out
// its retry backoff cancels the retry. It answers canceled and deletes
// the job's checkpoint; when the backoff timer then fires, the job stays
// canceled; its stream has ended on "job canceled" without a requeue;
// and its last journal record is canceled.
func TestDeleteCancelsPendingRetry(t *testing.T) {
	s, ts, store, journalPath := startRetryServer(t, t.TempDir(), 0)
	j := failIntoBackoff(t, s, ts.URL)
	// The retry would resume from this checkpoint; the cancel drops it.
	if err := store.PutCheckpoint(j.ID, []byte(`{"schema":1}`)); err != nil {
		t.Fatal(err)
	}

	if v := cancelJobHTTP(t, ts.URL, j.ID); v.Status != statusCanceled {
		t.Fatalf("DELETE on a job waiting out its backoff answered %q, want canceled", v.Status)
	}
	s.requeue(j) // the backoff timer fires
	if v := getStatus(t, ts.URL, j.ID); v.Status != statusCanceled {
		t.Fatalf("job after its backoff elapsed is %q, want canceled", v.Status)
	}
	select {
	case <-j.done:
	default:
		t.Fatal("the canceled job's stream is still open")
	}
	stream := string(readStream(t, ts.URL, j.ID))
	lines := strings.Split(strings.TrimSuffix(stream, "\n"), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"job canceled"`) {
		t.Fatalf("stream ends with %s, want job canceled; stream:\n%s", last, stream)
	}
	if strings.Contains(stream, "requeued after failure") {
		t.Fatalf("the canceled job was requeued:\n%s", stream)
	}
	if data, err := store.GetCheckpoint(j.ID); err != nil || data != nil {
		t.Fatalf("checkpoint after the cancel: %q, %v; want none", data, err)
	}
	if st := lastJournaled(t, journalPath, j.ID); st != statusCanceled {
		t.Fatalf("last journal record is %q, want canceled", st)
	}
}

// TestEvictedPendingRetryStaysFailed pins what retention does to a
// failed job waiting out its retry backoff. Such a job counts as
// finished, so newer finished jobs can evict it; when the backoff timer
// then fires, requeue bails out: the job's stream ends without a
// requeue, and the journal keeps it failed.
func TestEvictedPendingRetryStaysFailed(t *testing.T) {
	s, ts, _, journalPath := startRetryServer(t, t.TempDir(), 1)
	j := failIntoBackoff(t, s, ts.URL)
	done := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.05]}}`)
	waitDone(t, ts.URL, done.ID)
	// This submission finds two finished jobs over a bound of one.
	last := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.06]}}`)
	waitDone(t, ts.URL, last.ID)
	s.mu.Lock()
	_, listed := s.jobs[j.ID]
	s.mu.Unlock()
	if listed {
		t.Fatal("retention kept the pending retry past its bound")
	}

	s.requeue(j) // the backoff timer fires
	select {
	case <-j.done:
	default:
		t.Fatal("the evicted job's stream is still open after its requeue bailed out")
	}
	j.mu.Lock()
	status, stream := j.Status, string(j.streamLocked())
	j.mu.Unlock()
	if status != statusFailed || strings.Contains(stream, "requeued after failure") {
		t.Fatalf("evicted job is %q after its backoff; stream:\n%s", status, stream)
	}
	if st := lastJournaled(t, journalPath, j.ID); st != statusFailed {
		t.Fatalf("last journal record is %q, want failed", st)
	}
}

// TestDeleteLeavesRestoredFailedJob: a failed job restored from the
// journal is never retried, though its attempts are within the retry
// budget, so it has no pending retry to cancel. A DELETE answers failed,
// and so does a Shutdown that cancels every listed job past its
// deadline; neither touches the job's stream or its journal record.
func TestDeleteLeavesRestoredFailedJob(t *testing.T) {
	dir := t.TempDir()
	journal, err := runstore.OpenJournal(filepath.Join(dir, "jobs.ndjson"), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	if err := journal.Append(runstore.JobRecord{ID: "deadbeef", Kind: "sweep", Summary: "failed sweep",
		Status: statusFailed, Err: "store read failed", Attempts: 1,
		Submitted: now, Started: now, Finished: now}); err != nil {
		t.Fatal(err)
	}
	journal.Close()
	s, ts, _, journalPath := startRetryServer(t, dir, 0)
	before := readStream(t, ts.URL, "deadbeef")

	if v := cancelJobHTTP(t, ts.URL, "deadbeef"); v.Status != statusFailed {
		t.Fatalf("DELETE on a restored failed job answered %q, want failed", v.Status)
	}
	// A running search outlasts the deadline, so Shutdown cancels.
	running := submit(t, ts.URL, longSearchBody)
	waitStatus(t, ts.URL, running.ID, statusRunning)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown drained cleanly, want the running search canceled")
	}
	if v := getStatus(t, ts.URL, "deadbeef"); v.Status != statusFailed {
		t.Fatalf("restored failed job after Shutdown is %q, want failed", v.Status)
	}
	if after := readStream(t, ts.URL, "deadbeef"); !bytes.Equal(before, after) {
		t.Fatalf("stream before the DELETE:\n%s\nafter it and Shutdown:\n%s", before, after)
	}
	if st := lastJournaled(t, journalPath, "deadbeef"); st != statusFailed {
		t.Fatalf("last journal record is %q, want failed", st)
	}
}

// TestDeleteLeavesFailedJobWhoseRequeueBailed: when a pending retry's
// backoff timer fires on a full queue, requeue bails out and the failure
// is final. A DELETE then answers failed and leaves the job's ended
// stream and its journal record as they were.
func TestDeleteLeavesFailedJobWhoseRequeueBailed(t *testing.T) {
	s, ts, _, journalPath := startRetryServer(t, t.TempDir(), 0)
	t.Cleanup(func() { // runs first: cancels the work that fills the queue
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		s.Shutdown(ctx)
	})
	j := failIntoBackoff(t, s, ts.URL)
	running := submit(t, ts.URL, longSearchBody)
	waitStatus(t, ts.URL, running.ID, statusRunning)
	for _, sigma := range []string{"0.01", "0.02", "0.03", "0.05"} {
		v := submit(t, ts.URL, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[`+sigma+`]}}`)
		if v.Status != statusQueued {
			t.Fatalf("filler job is %q, want queued", v.Status)
		}
	}

	s.requeue(j) // the backoff timer fires on the full queue
	select {
	case <-j.done:
	default:
		t.Fatal("the stream is still open after the requeue bailed out")
	}
	before := readStream(t, ts.URL, j.ID)
	if v := cancelJobHTTP(t, ts.URL, j.ID); v.Status != statusFailed {
		t.Fatalf("DELETE after the requeue bailed answered %q, want failed", v.Status)
	}
	if after := readStream(t, ts.URL, j.ID); !bytes.Equal(before, after) {
		t.Fatalf("stream before the DELETE:\n%s\nafter it:\n%s", before, after)
	}
	if st := lastJournaled(t, journalPath, j.ID); st != statusFailed {
		t.Fatalf("last journal record is %q, want failed", st)
	}
}

// pendingRetryConfig retries a failed job once after a backoff of base,
// and resumes a job a process left in flight once.
func pendingRetryConfig(base time.Duration) Config {
	return Config{QueueSize: 4, Retry: retry.Policy{Failed: 1, Interrupted: 1, Base: base}}
}

// streamBytes returns a copy of j's stream.
func streamBytes(j *job) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return bytes.Clone(j.streamLocked())
}

// waitClosed returns once Shutdown has closed s, woken by the broadcast
// that closes it. Only executors wait on qcond otherwise, so the caller
// must not wait while a job could be enqueued.
func waitClosed(s *Server) {
	s.mu.Lock()
	for !s.closed {
		s.qcond.Wait()
	}
	s.mu.Unlock()
}

// checkPendingRetryResumes checks what a stopped server left of the
// failed job j, whose retry was pending when it stopped: its stream ended
// with the bytes it had, and its last journal record is queued. A restart
// on the same store and journal then resumes it, and it ends done on its
// second attempt.
func checkPendingRetryResumes(t *testing.T, dir string, cfg Config, first *journaled, j *job, stream []byte) {
	t.Helper()
	select {
	case <-j.done:
	default:
		t.Fatal("the pending retry's stream is still open after Shutdown")
	}
	if got := streamBytes(j); !bytes.Equal(got, stream) {
		t.Fatalf("stream while the retry was pending:\n%s\nafter Shutdown:\n%s", stream, got)
	}
	if rec := lastRecord(t, first.path, j.ID); rec.Status != statusQueued || rec.Attempts != 1 {
		t.Fatalf("last journal record after Shutdown is %q with %d attempts, want queued with 1", rec.Status, rec.Attempts)
	}

	second := startJournaled(t, dir, cfg)
	waitForEvent(t, second.s, j.ID, `"job done`)
	if rec := lastRecord(t, second.path, j.ID); rec.Status != statusDone || rec.Attempts != 2 {
		t.Fatalf("last journal record after the restart is %q with %d attempts, want done with 2", rec.Status, rec.Attempts)
	}
}

// TestPendingRetryAtCloseResumesOnRestart: a failed job whose backoff
// outlasts the server is not lost with it. Close journals the job as
// queued and ends its stream, and the restart runs the retry.
func TestPendingRetryAtCloseResumesOnRestart(t *testing.T) {
	dir, cfg := t.TempDir(), pendingRetryConfig(time.Hour)
	first := startJournaled(t, dir, cfg)
	j := failIntoBackoff(t, first.s, first.ts.URL)
	stream := streamBytes(j)
	first.stop()
	checkPendingRetryResumes(t, dir, cfg, first, j, stream)
}

// TestPendingRetryInDrainResumesOnRestart: a job that fails while
// Shutdown drains, and whose short backoff elapses while a long search
// keeps the drain busy, is left to Shutdown by its requeue and resumed
// by the restart.
func TestPendingRetryInDrainResumesOnRestart(t *testing.T) {
	dir, cfg := t.TempDir(), pendingRetryConfig(time.Millisecond)
	first := startJournaled(t, dir, cfg)
	base := first.ts.URL
	// The sweep and a second long search wait behind a running one.
	running := submit(t, base, longSearchBody)
	// Its first progress event follows its store lookup, which the fault
	// below must not hit.
	waitForEvent(t, first.s, running.ID, `"best yield `)
	sweep := submit(t, base, `{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"configs":["ibm"],"sigmas":[0.04]}}`)
	next := submit(t, base, strings.Replace(longSearchBody, "200000", "200001", 1))
	enableFaults(t, "store.get:error:times=1", 1)
	shut := make(chan error, 1)
	go func() { shut <- first.s.Shutdown(context.Background()) }()
	waitClosed(first.s)

	// The drain runs the sweep, which fails, and then the second search,
	// which runs past the sweep's 1 ms backoff.
	cancelJobHTTP(t, base, running.ID)
	j := waitForEvent(t, first.s, sweep.ID, `"retrying in `)
	waitForEvent(t, first.s, next.ID, `"best yield `)
	stream := streamBytes(j)
	cancelJobHTTP(t, base, next.ID)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v, want a clean drain", err)
	}
	first.stop()
	checkPendingRetryResumes(t, dir, cfg, first, j, stream)
}
