package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
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
	waitStatus(t, ts.URL, blocker.ID, statusRunning)
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
	stream := string(failed.stream)
	failed.mu.Unlock()
	if strings.Contains(stream, "requeued after failure") {
		t.Fatalf("the replaced job was requeued:\n%s", stream)
	}
}

// TestFinishedJobStreamHasNoSlack: once a job is done, its retained
// stream holds exactly its bytes, without the append slack it grew by.
func TestFinishedJobStreamHasNoSlack(t *testing.T) {
	s, ts := newTestServer(t, nil, 4)
	v := submit(t, ts.URL, `{"kind":"search","spec":{"benchmark":"sym6_145","strategy":"anneal","steps":40,"proposals":3,"max_evals":3,"aux_counts":[0]}}`)
	waitDone(t, ts.URL, v.ID)
	s.mu.Lock()
	j := s.jobs[v.ID]
	s.mu.Unlock()
	j.mu.Lock()
	n, c := len(j.stream), cap(j.stream)
	j.mu.Unlock()
	if n == 0 || c != n {
		t.Fatalf("finished stream holds %d bytes in %d of capacity, want equal", n, c)
	}
	if body := readStream(t, ts.URL, v.ID); len(body) != n {
		t.Fatalf("/events served %d bytes, the stream holds %d", len(body), n)
	}
}
