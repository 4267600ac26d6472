// Package server wraps experiments.Runner in a long-lived HTTP/JSON
// service (the qserve binary): clients submit sweep and search jobs,
// watch per-job streamed progress, cancel running work, and fetch
// finished outcomes, while every job — whichever client submitted it —
// shares one runner (one compiled-kernel cache, one worker pool) and one
// optional run store, so overlapping topologies compile once and
// repeated work is served from disk without any computation.
//
// The API is JSON over HTTP:
//
//	POST   /v1/jobs                {"kind":"sweep"|"search","spec":{...}}
//	GET    /v1/jobs                list all jobs, submission order
//	GET    /v1/jobs/{id}           job status
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /v1/jobs/{id}/result    the outcome (404 until done)
//	GET    /v1/jobs/{id}/events    streamed progress, one JSON line per event
//	GET    /v1/stats               queue, job and cache counters
//	GET    /healthz                liveness
//
// Jobs are content-addressed: the id is the run-store key of the
// normalised spec (experiments.JobKey), so submitting the same work
// twice returns the same job instead of queuing it again, and a
// restarted server serves previously stored runs instantly. The queue is
// bounded; submissions beyond capacity are rejected with 503 so callers
// back off instead of piling up.
//
// Cancellation is cooperative: DELETE on a queued job retires it
// immediately, DELETE on a running job cancels its context and the
// evaluation engine stops within one proposal batch / Monte-Carlo trial
// chunk, reporting status "canceled". Cancelled outcomes are never
// persisted, so a later resubmission recomputes them.
//
// With a job-metadata journal configured (Config.Journal), every
// lifecycle transition is recorded next to the run store: a restarted
// server lists prior jobs with their final statuses, serves done ones
// from the store, and marks jobs that were still queued or running when
// the process died as "interrupted".
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"qproc/internal/experiments"
	"qproc/internal/memo"
	"qproc/internal/metrics"
	"qproc/internal/retry"
	"qproc/internal/runstore"
	"qproc/internal/workpool"
)

// Config assembles a Server.
type Config struct {
	// Runner executes every job; required. All clients share its kernel
	// cache and parallelism settings; each job draws its noise matrices
	// into a cache of its own.
	Runner *experiments.Runner
	// Store persists finished runs and serves repeats; optional.
	Store *runstore.Store
	// Journal records job metadata across restarts; optional. Jobs found
	// in it at startup are restored into the listing: terminal ones with
	// their final status, in-flight ones as "interrupted".
	Journal *runstore.Journal
	// Metrics records per-job progress series (yield, evals, lane
	// counters) as retention-bounded time-series points and serves the
	// windowed-query endpoints; optional. Recording is best-effort: a
	// metrics-write fault never fails a job.
	Metrics *metrics.Store
	// QueueSize bounds the number of jobs waiting to run; <= 0 means 16.
	QueueSize int
	// Executors is the number of jobs running concurrently; <= 0 means 1
	// (each job already fans out internally over the runner's workers).
	Executors int
	// RetainJobs bounds how many finished jobs (and their outcome
	// payloads) stay in memory; <= 0 means 256. When a new submission
	// would exceed the bound, the oldest finished jobs are dropped —
	// their outcomes remain retrievable from the run store when one is
	// configured, and a resubmission is served from it instantly.
	RetainJobs int
	// Retry supervises unhealthy jobs: a failed job is automatically
	// requeued after a backoff delay while its attempt count stays
	// within Retry.Failed, and a job the journal shows interrupted by a
	// process death is resubmitted at startup while within
	// Retry.Interrupted — resuming from its checkpoint when one exists.
	// The zero value disables all supervision (today's behaviour).
	Retry retry.Policy
}

// Server is the HTTP job service. Create with New, serve via Handler,
// stop with Shutdown (bounded) or Close (waits for all work).
type Server struct {
	cfg Config

	mu sync.Mutex
	// queue holds admitted jobs awaiting an executor, FIFO. A slice
	// (not a channel) so that cancelling a queued job frees its slot
	// immediately — dead entries never count against QueueSize.
	queue []*job
	// qcond wakes executors when the queue grows or the server closes.
	qcond  *sync.Cond
	jobs   map[string]*job
	order  []string
	closed bool
	// finished counts jobs in a terminal state, maintained on every
	// transition so eviction never has to rescan the whole job list.
	finished int

	wg sync.WaitGroup
}

// Job lifecycle states.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"
	statusCanceled = "canceled"
	// statusInterrupted marks a job the journal shows as queued or
	// running when the previous process died: its work was lost, a
	// resubmission requeues it.
	statusInterrupted = "interrupted"
)

// terminalStatus reports whether a job in this state will never run
// again (and so counts against the retention bound).
func terminalStatus(st string) bool {
	switch st {
	case statusDone, statusFailed, statusCanceled, statusInterrupted:
		return true
	}
	return false
}

// retryableStatus reports whether a resubmission of the same content
// address should replace the job rather than dedupe onto it.
func retryableStatus(st string) bool {
	return st == statusFailed || st == statusCanceled || st == statusInterrupted
}

// job is one submitted unit of work and its observable state.
type job struct {
	id      string
	kind    string
	summary string
	spec    json.RawMessage
	// resolvedSpec is the normalised spec the job actually runs with,
	// journaled so a restarted server can reconstruct and requeue the
	// job under the same content address.
	resolvedSpec json.RawMessage
	parsed       experiments.Job

	// ctx is cancelled by DELETE or server shutdown; the runner observes
	// it within one proposal batch / trial chunk. Restored jobs have no
	// ctx (they never run again).
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	status string
	// attempts counts runs started for this content address, carried
	// across requeues and restarts; the retry policy budgets against it.
	attempts  int
	submitted time.Time
	started   time.Time
	finished  time.Time
	cached    bool
	// restored marks a job rebuilt from the journal: its outcome lives
	// in the run store only, keyed by the job id.
	restored bool
	errMsg   string
	outcome  []byte
	events   []experiments.Event

	// done is closed after the final event is appended, waking streamers.
	done chan struct{}
	// wake is closed and replaced on every event append, so streamers
	// block until there is something new instead of polling on a timer.
	wake chan struct{}
}

// queuedJob gives j, which carries the work and its history, what every
// queued job starts with — submitted, retried or restored after a
// restart: the queued status, a fresh cancellable context, and the done
// and wake channels its streamers block on.
func queuedJob(j *job) *job {
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.status = statusQueued
	j.done = make(chan struct{})
	j.wake = make(chan struct{})
	return j
}

// appendEventLocked appends a progress event and wakes blocked
// streamers. Callers hold j.mu.
func (j *job) appendEventLocked(e experiments.Event) {
	j.events = append(j.events, e)
	close(j.wake)
	j.wake = make(chan struct{})
}

// publish appends a progress event. Events may arrive from multiple
// goroutines when the runner is parallel.
func (j *job) publish(e experiments.Event) {
	j.mu.Lock()
	j.appendEventLocked(e)
	j.mu.Unlock()
}

// New builds the server, restores journaled job metadata, and starts
// the executors.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("server: Config.Runner is required")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 16
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 256
	}
	s := &Server{
		cfg:  cfg,
		jobs: map[string]*job{},
	}
	s.qcond = sync.NewCond(&s.mu)
	s.restoreFromJournal()
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// restoreFromJournal rebuilds the job listing from the journal's folded
// records: terminal jobs keep their final status (done outcomes are
// re-served from the run store on demand). Jobs the previous process
// left queued or running are resubmitted automatically — resuming from
// their checkpoint when one exists — while the retry policy's
// interrupted budget allows; past it (or with no policy) they become
// "interrupted", and that transition is journaled, so the record
// reflects what this server reports.
func (s *Server) restoreFromJournal() {
	if s.cfg.Journal == nil {
		return
	}
	for _, rec := range s.cfg.Journal.Restored() {
		j := &job{
			id:        rec.ID,
			kind:      rec.Kind,
			summary:   rec.Summary,
			spec:      append(json.RawMessage(nil), rec.Spec...),
			status:    rec.Status,
			attempts:  rec.Attempts,
			submitted: rec.Submitted,
			started:   rec.Started,
			finished:  rec.Finished,
			errMsg:    rec.Err,
			restored:  true,
			done:      make(chan struct{}),
			wake:      make(chan struct{}),
		}
		switch rec.Status {
		case statusDone:
			j.events = []experiments.Event{{Message: "job done (restored from journal; outcome in run store)"}}
		case statusFailed, statusCanceled, statusInterrupted:
			j.events = []experiments.Event{{Message: "job " + rec.Status + " (restored from journal)"}}
		default: // queued or running when the process died
			if s.requeueRestoredLocked(rec) {
				continue
			}
			j.status = statusInterrupted
			if j.finished.IsZero() {
				j.finished = time.Now().UTC()
			}
			j.events = []experiments.Event{{Message: "job interrupted by server restart; resubmit to recompute"}}
			s.journalAppendLocked(j)
		}
		close(j.done) // restored jobs never run again
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.finished++
	}
	s.evictFinishedLocked()
}

// requeueRestoredLocked resubmits a job the previous process left
// queued or running, reconstructing it from the journaled resolved
// spec. The rebuilt job must hash back to the journaled id (spec or
// options drift across the restart means it is a different job — it is
// left interrupted instead of silently running other work under the old
// address) and must fit the queue. Runs during New, before executors
// start; the caller owns s.mu's data exclusively.
func (s *Server) requeueRestoredLocked(rec runstore.JobRecord) bool {
	attempts := rec.Attempts
	if attempts < 1 {
		attempts = 1 // journals from before attempt tracking
	}
	if !s.cfg.Retry.Allows(retry.StatusInterrupted, attempts) {
		return false
	}
	if len(rec.ResolvedSpec) == 0 || len(s.queue) >= s.cfg.QueueSize {
		return false
	}
	parsed, err := experiments.ParseJob(rec.Kind, rec.ResolvedSpec)
	if err != nil {
		return false
	}
	parsed = parsed.Normalize(s.cfg.Runner.Options())
	key, err := s.cfg.Runner.JobKeyFor(parsed)
	if err != nil || key != rec.ID {
		return false
	}
	j := queuedJob(&job{
		id:           rec.ID,
		kind:         rec.Kind,
		summary:      rec.Summary,
		spec:         append(json.RawMessage(nil), rec.Spec...),
		resolvedSpec: append(json.RawMessage(nil), rec.ResolvedSpec...),
		parsed:       parsed,
		attempts:     attempts,
		submitted:    rec.Submitted,
		events: []experiments.Event{{
			Message: "job interrupted by server restart; resuming from checkpoint if present"}},
	})
	s.journalAppendLocked(j)
	s.queue = append(s.queue, j)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return true
}

// journalAppendLocked records the job's current state in the journal,
// best-effort: metadata loss never fails a job. Callers either hold
// j.mu or own the job exclusively (submission before the job is
// reachable, restore); per-job record order follows from that.
func (s *Server) journalAppendLocked(j *job) {
	if s.cfg.Journal == nil {
		return
	}
	_ = s.cfg.Journal.Append(runstore.JobRecord{
		ID:           j.id,
		Kind:         j.kind,
		Summary:      j.summary,
		Spec:         j.spec,
		Status:       j.status,
		Submitted:    j.submitted,
		Started:      j.started,
		Finished:     j.finished,
		Err:          j.errMsg,
		Attempts:     j.attempts,
		ResolvedSpec: j.resolvedSpec,
	})
}

// Close stops accepting submissions, waits for queued and running jobs
// to finish — however long that takes — and returns. Safe to call more
// than once. Use Shutdown for a bounded stop.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

// Shutdown stops accepting submissions and drains queued and running
// jobs until ctx expires; past the deadline every job still queued or
// running is cooperatively cancelled (recorded as "canceled") and
// Shutdown returns once the executors have stopped — within one
// proposal batch / trial chunk of the cancel, not after the full
// remaining work. The return value is nil on a clean drain and
// ctx.Err() when jobs had to be cancelled. Safe to call more than once
// and concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.qcond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed with work possibly still in flight: cancel it all.
	// Queued jobs retire immediately; running jobs stop at the next
	// batch/chunk boundary, so the trailing wait is bounded.
	s.mu.Lock()
	pending := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		pending = append(pending, j)
	}
	s.mu.Unlock()
	canceledAny := false
	for _, j := range pending {
		if s.cancelJob(j) {
			canceledAny = true
		}
	}
	<-drained
	if !canceledAny {
		// The drain actually finished at ~the deadline: every job was
		// already terminal, nothing was cut short — that is a clean stop.
		return nil
	}
	return ctx.Err()
}

// executor drains the queue until Close/Shutdown. Jobs admitted before
// the close are still run (unless the shutdown deadline cancels them).
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		j := s.popJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// popJob blocks until a job is queued or the server has closed with an
// empty queue (nil).
func (s *Server) popJob() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.qcond.Wait()
	}
	if len(s.queue) == 0 {
		return nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	return j
}

// removeQueuedLocked drops j from the waiting queue, freeing its
// admission slot. A job already popped by an executor is simply absent.
// Callers hold s.mu.
func (s *Server) removeQueuedLocked(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// runJob executes one job through the shared runner and store,
// enforcing the spec's deadline and isolating panics: a panicking job
// fails with its stack in the event log while the executor survives. A
// failed job with retry budget left is requeued after a backoff delay.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.status != statusQueued {
		// Cancelled while waiting in the queue: already terminal.
		j.mu.Unlock()
		return
	}
	j.status = statusRunning
	j.started = time.Now().UTC()
	j.attempts++
	ctx := j.ctx
	s.journalAppendLocked(j)
	j.mu.Unlock()

	// The spec's deadline bounds this attempt's wall clock; the parent
	// ctx stays the cancellation signal, so "client cancelled" and "ran
	// out of time" remain distinguishable below.
	rctx := ctx
	timeout := j.parsed.Timeout()
	if timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	out, cached, err := s.runJobGuarded(rctx, j)
	var payload []byte
	if err == nil {
		payload, err = marshalOutcome(out)
	}

	j.mu.Lock()
	j.finished = time.Now().UTC()
	j.cached = cached
	switch {
	case err == nil:
		j.status = statusDone
		j.outcome = payload
		msg := "job done"
		if cached {
			msg = "job done (served from run store)"
		}
		j.appendEventLocked(experiments.Event{Message: msg})
	case timeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// The deadline fired, not the client: that is a failure (and so
		// retryable — a retry resumes from the last checkpoint, making
		// progress across attempts even under a tight deadline).
		j.status = statusFailed
		j.errMsg = fmt.Sprintf("job exceeded its %s deadline", timeout)
		j.appendEventLocked(experiments.Event{Message: "job failed", Err: j.errMsg})
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		// Cancellation is a client decision, not a failure; partial
		// results were discarded by the engine and never persisted.
		j.status = statusCanceled
		j.appendEventLocked(experiments.Event{Message: "job canceled"})
	default:
		j.status = statusFailed
		j.errMsg = err.Error()
		j.appendEventLocked(experiments.Event{Message: "job failed", Err: err.Error()})
	}
	status := j.status
	s.journalAppendLocked(j)
	close(j.done)
	j.mu.Unlock()
	j.cancel() // release the context's resources
	s.markFinished()
	switch status {
	case statusCanceled:
		// A cancelled job's checkpoint is stale by decision: the client
		// abandoned the work. (Done jobs clean up inside the runner.)
		s.deleteCheckpoint(j.id)
	case statusFailed:
		s.maybeRetry(j)
	}
}

// runJobGuarded is the RunResolvedJob call under a panic guard: a
// panicking job (or a panic escaping a shared worker via
// workpool.PanicError) is converted into a job failure carrying the
// original stack, so one poisoned spec cannot take down the executor —
// or the process — while other jobs run.
//
// RunResolvedJob, not RunJob: the job was resolved and keyed at
// submission; re-resolving here could pick up a warm-start hint from
// runs stored since and file the outcome under a different key than
// the announced job id.
func (s *Server) runJobGuarded(ctx context.Context, j *job) (out experiments.Outcome, cached bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			if pe, ok := v.(*workpool.PanicError); ok {
				v, stack = pe.Value, pe.Stack
			}
			err = fmt.Errorf("job panicked: %v", v)
			j.publish(experiments.Event{Message: "job panicked",
				Err: fmt.Sprintf("%v\n%s", v, stack)})
		}
	}()
	return s.cfg.Runner.RunResolvedJob(ctx, j.parsed, s.cfg.Store, func(e experiments.Event) {
		j.publish(e)
		s.recordEventMetrics(j.id, e)
	})
}

// deleteCheckpoint drops any resumable state stored for id.
func (s *Server) deleteCheckpoint(id string) {
	if s.cfg.Store != nil {
		_ = s.cfg.Store.DeleteCheckpoint(id)
	}
}

// maybeRetry requeues a failed job after the policy's backoff delay
// while its attempt count stays within budget; past the budget the
// failure is final and any checkpoint is cleaned up. (While retries
// remain, the checkpoint is kept — the next attempt resumes from it.)
func (s *Server) maybeRetry(j *job) {
	j.mu.Lock()
	attempts := j.attempts
	j.mu.Unlock()
	if !s.cfg.Retry.Allows(retry.StatusFailed, attempts) {
		s.deleteCheckpoint(j.id)
		return
	}
	delay := s.cfg.Retry.Delay(j.id, attempts)
	j.publish(experiments.Event{Message: fmt.Sprintf("retrying in %s (attempt %d)", delay, attempts+1)})
	time.AfterFunc(delay, func() { s.requeue(j) })
}

// requeue replaces a terminal failed job with a fresh queued job under
// the same content address, carrying forward the spec, attempt count
// and event history. It bails out when the server has closed, when the
// id no longer maps to the failed job (a client resubmitted or the
// record was evicted meanwhile), or when the queue is full — a retry
// never evicts client work.
func (s *Server) requeue(prev *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.jobs[prev.id] != prev || len(s.queue) >= s.cfg.QueueSize {
		return
	}
	prev.mu.Lock()
	j := queuedJob(&job{
		id:           prev.id,
		kind:         prev.kind,
		summary:      prev.summary,
		spec:         prev.spec,
		resolvedSpec: prev.resolvedSpec,
		parsed:       prev.parsed,
		attempts:     prev.attempts,
		submitted:    prev.submitted,
		events:       append([]experiments.Event(nil), prev.events...),
	})
	prev.mu.Unlock()
	j.events = append(j.events, experiments.Event{Message: "requeued after failure"})
	s.journalAppendLocked(j)
	s.queue = append(s.queue, j)
	s.jobs[j.id] = j
	s.finished-- // the terminal job left the books; its slot runs again
	s.qcond.Signal()
}

// markFinished bumps the terminal-job counter the eviction scan reads.
func (s *Server) markFinished() {
	s.mu.Lock()
	s.finished++
	s.mu.Unlock()
}

// cancelJob cooperatively cancels one job. A queued job retires
// immediately with status "canceled" and frees its queue slot; a
// running job has its context cancelled and the executor records the
// terminal state when the engine stops (within one proposal batch /
// trial chunk). Terminal jobs are left untouched. Returns whether a
// cancellation was initiated. Lock order is s.mu, then j.mu, as
// everywhere else.
func (s *Server) cancelJob(j *job) bool {
	s.mu.Lock()
	j.mu.Lock()
	switch j.status {
	case statusQueued:
		s.removeQueuedLocked(j)
		j.status = statusCanceled
		j.finished = time.Now().UTC()
		j.appendEventLocked(experiments.Event{Message: "job canceled"})
		s.journalAppendLocked(j)
		close(j.done)
		s.finished++
		j.mu.Unlock()
		s.mu.Unlock()
		j.cancel()
		// A checkpoint left by an earlier failed attempt is stale once
		// the client abandons the work.
		s.deleteCheckpoint(j.id)
		return true
	case statusRunning:
		j.mu.Unlock()
		s.mu.Unlock()
		j.cancel()
		return true
	default:
		j.mu.Unlock()
		s.mu.Unlock()
		return false
	}
}

func marshalOutcome(out experiments.Outcome) ([]byte, error) {
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// maxSubmitBytes caps a POST /v1/jobs body. A job spec is a few hundred
// bytes; a larger body is refused with 413 before it is buffered.
const maxSubmitBytes = 1 << 20

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
}

// jobStatus is the JSON view of a job.
type jobStatus struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	Summary   string          `json:"summary"`
	Spec      json.RawMessage `json:"spec,omitempty"` // as submitted
	Status    string          `json:"status"`
	Cached    bool            `json:"cached,omitempty"`
	Restored  bool            `json:"restored,omitempty"` // metadata from the journal, outcome in the store
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Err       string          `json:"err,omitempty"`
	// Done/Total mirror the latest progress event.
	Done   int `json:"done"`
	Total  int `json:"total"`
	Events int `json:"events"`
}

func (j *job) view() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobStatus{
		ID:        j.id,
		Kind:      j.kind,
		Summary:   j.summary,
		Spec:      j.spec,
		Status:    j.status,
		Cached:    j.cached,
		Restored:  j.restored,
		Submitted: j.submitted,
		Err:       j.errMsg,
		Events:    len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	for i := len(j.events) - 1; i >= 0; i-- {
		if j.events[i].Total > 0 {
			v.Done, v.Total = j.events[i].Done, j.events[i].Total
			break
		}
	}
	return v
}

// statusNow returns the job's current lifecycle state.
func (j *job) statusNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decoding request: %w", err))
		return
	}
	parsed, err := experiments.ParseJob(req.Kind, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Resolve before keying: a search may pick up a warm-start hint from
	// the store, and the hint is part of the content address. Resolving
	// here keeps the contract that the job id IS the run-store key of
	// the outcome.
	parsed = s.cfg.Runner.ResolveJob(parsed, s.cfg.Store)
	key, err := s.cfg.Runner.JobKeyFor(parsed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Journaled alongside the submitted spec so a restart can rebuild
	// the exact job; best-effort (nil just disables restart-resume for
	// this job).
	resolvedSpec, _ := experiments.SpecJSON(parsed)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErrorRetry(w, http.StatusServiceUnavailable,
			fmt.Errorf("server is shutting down"), s.cfg.Retry.RetryAfter())
		return
	}
	replacing := false
	if existing, ok := s.jobs[key]; ok {
		// Content-addressed dedupe: the same work is the same job. A
		// failed, canceled or interrupted job is replaced so callers can
		// retry — as is a restored "done" job whose outcome the run
		// store can no longer produce (otherwise it would dedupe forever
		// onto a result that can never be served).
		if st := existing.statusNow(); !retryableStatus(st) && !s.unservableRestored(existing, st) {
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, existing.view())
			return
		}
		replacing = true
	}
	if len(s.queue) >= s.cfg.QueueSize {
		s.mu.Unlock()
		writeErrorRetry(w, http.StatusServiceUnavailable,
			fmt.Errorf("job queue full (%d waiting); retry later", s.cfg.QueueSize),
			s.cfg.Retry.RetryAfter())
		return
	}
	j := queuedJob(&job{
		id:           key,
		kind:         parsed.Kind(),
		summary:      parsed.Normalize(s.cfg.Runner.Options()).Summary(),
		spec:         append(json.RawMessage(nil), req.Spec...),
		resolvedSpec: resolvedSpec,
		parsed:       parsed,
		submitted:    time.Now().UTC(),
	})
	// Journaled before an executor can see it (the queue append and the
	// executor's pop both happen under s.mu), so the "running" record
	// can never overtake the "queued" one.
	s.journalAppendLocked(j)
	s.queue = append(s.queue, j)
	s.qcond.Signal()
	if _, ok := s.jobs[key]; !ok {
		s.order = append(s.order, key)
	}
	s.jobs[key] = j
	if replacing {
		s.finished-- // a terminal job left the books; its slot is queued again
	}
	s.evictFinishedLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, j.view())
}

// unservableRestored reports whether j is a journal-restored done job
// whose outcome the run store can no longer produce (pruned, evicted
// or missing): its result endpoint can only ever 404, so a resubmission
// must replace and recompute it instead of deduping onto a dead record.
// The probe is an entry-existence check (Store.Has), not a payload
// read — the common resubmit-after-restart case costs a map lookup, so
// holding s.mu across it is fine. An entry that exists but fails
// verification is evicted by the result fetch, after which this probe
// reports it missing and the next resubmission recomputes. Callers hold
// s.mu.
func (s *Server) unservableRestored(j *job, st string) bool {
	if st != statusDone {
		return false
	}
	j.mu.Lock()
	dead := j.restored && j.outcome == nil
	j.mu.Unlock()
	if !dead {
		return false
	}
	return s.cfg.Store == nil || !s.cfg.Store.Has(j.id)
}

// evictFinishedLocked drops the oldest finished jobs beyond the
// retention bound, so a long-lived server's memory stays proportional to
// RetainJobs rather than to its lifetime. Queued and running jobs are
// never evicted. The terminal-job counter (maintained on every state
// transition) gates the scan, so submissions that are under the bound —
// the common case — pay one comparison instead of a rescan of every job.
// Callers hold s.mu.
func (s *Server) evictFinishedLocked() {
	for i := 0; i < len(s.order) && s.finished > s.cfg.RetainJobs; {
		id := s.order[i]
		if terminalStatus(s.jobs[id].statusNow()) {
			delete(s.jobs, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			s.finished--
			continue
		}
		i++
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobStatus, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// lookup resolves a job id; nil means the 404 was already written.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.view())
	}
}

// handleCancel implements DELETE /v1/jobs/{id}: cooperative
// cancellation. Idempotent — cancelling a terminal job returns its
// state unchanged with 200, so retries and races are harmless.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	status, errMsg, outcome := j.status, j.errMsg, j.outcome
	j.mu.Unlock()
	switch status {
	case statusDone:
		if outcome == nil {
			// Restored from the journal: the payload lives in the run
			// store under the job id (the id IS the store key).
			if s.cfg.Store != nil {
				if payload, _, err := s.cfg.Store.Get(j.id); err == nil && payload != nil {
					outcome = payload
				}
			}
			if outcome == nil {
				writeError(w, http.StatusNotFound,
					fmt.Errorf("outcome no longer available; resubmit the job to recompute"))
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(outcome)
	case statusFailed:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job failed: %s", errMsg))
	case statusCanceled, statusInterrupted:
		writeError(w, http.StatusGone, fmt.Errorf("job was %s; resubmit to recompute", status))
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("job is %s; result not ready", status))
	}
}

// handleEvents streams the job's progress as one JSON object per line
// (application/x-ndjson), replaying buffered events first and following
// live ones until the job completes or the client disconnects. Delivery
// is notification-driven: the streamer blocks on the job's wake channel
// (closed and replaced on every append), so idle streams cost nothing
// between events instead of waking on a poll timer.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	next := 0
	// emit drains events[next:] and returns the wake channel captured in
	// the same critical section, so an append between the drain and the
	// select below still fires the captured channel — no lost wakeups.
	emit := func() (chan struct{}, bool) {
		j.mu.Lock()
		pending := j.events[next:]
		next = len(j.events)
		wake := j.wake
		j.mu.Unlock()
		for _, e := range pending {
			if err := enc.Encode(e); err != nil {
				return nil, false
			}
		}
		if len(pending) > 0 && flusher != nil {
			flusher.Flush()
		}
		return wake, true
	}

	for {
		wake, ok := emit()
		if !ok {
			return
		}
		select {
		case <-j.done:
			emit() // final drain: completion appends its event before close
			return
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// statsView is the GET /v1/stats payload.
type statsView struct {
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	Jobs          map[string]int `json:"jobs"`
	NoiseCache    cacheView      `json:"noise_cache"`
	KernelCache   cacheView      `json:"kernel_cache"`
	MapCache      cacheView      `json:"map_cache"`
	Lanes         lanesView      `json:"lanes"`
	Workers       workersView    `json:"workers"`
	Store         *storeView     `json:"store,omitempty"`
	// Metrics reports the time-series event store: footprint, retention
	// bounds and eviction counters.
	Metrics *metrics.StoreStats `json:"metrics,omitempty"`
}

type counterView struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// cacheView reports one of the runner's caches: hit/miss counters, the
// resident entries with their byte footprint, and — when a byte bound is
// configured — the bound and how many entries it has evicted. For noise
// matrices, which live as long as the job that draws them, the counters
// sum over every job, the entries and bytes are what running jobs hold,
// and the bound applies to each job; compiled kernels and SABRE results
// are each one cache shared by all jobs.
type cacheView struct {
	counterView
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	LimitBytes int64  `json:"limit_bytes,omitempty"`
	Evictions  uint64 `json:"evictions,omitempty"`
}

// newCacheView renders a cache snapshot.
func newCacheView(s memo.Snapshot) cacheView {
	return cacheView{
		counterView: counterView{Hits: s.Hits, Misses: s.Misses},
		Entries:     s.Entries,
		Bytes:       s.Bytes,
		LimitBytes:  s.Limit,
		Evictions:   s.Evictions,
	}
}

// lanesView reports portfolio search lanes across all jobs the runner
// has served: currently advancing vs finished (cumulative).
type lanesView struct {
	Live int64 `json:"live"`
	Done int64 `json:"done"`
}

// workersView reports the shared helper pool.
type workersView struct {
	Size  int `json:"size"`
	InUse int `json:"in_use"`
}

type storeView struct {
	counterView
	Entries int `json:"entries"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	live, done := s.cfg.Runner.LaneStats()
	pool := s.cfg.Runner.Pool()
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	v := statsView{
		QueueDepth:    depth,
		QueueCapacity: s.cfg.QueueSize,
		Jobs: map[string]int{
			statusQueued: 0, statusRunning: 0, statusDone: 0,
			statusFailed: 0, statusCanceled: 0, statusInterrupted: 0,
		},
		NoiseCache:  newCacheView(s.cfg.Runner.NoiseCacheSnapshot()),
		KernelCache: newCacheView(s.cfg.Runner.KernelCache().Snapshot()),
		MapCache:    newCacheView(s.cfg.Runner.MapCache().Snapshot()),
		Lanes:       lanesView{Live: live, Done: done},
		Workers:     workersView{Size: pool.Size(), InUse: pool.InUse()},
	}
	s.mu.Lock()
	for _, id := range s.order {
		v.Jobs[s.jobs[id].statusNow()]++
	}
	s.mu.Unlock()
	if st := s.cfg.Store; st != nil {
		sh, sm := st.Stats()
		v.Store = &storeView{counterView: counterView{Hits: sh, Misses: sm}, Entries: st.Len()}
	}
	if m := s.cfg.Metrics; m != nil {
		ms := m.Stats()
		v.Metrics = &ms
	}
	writeJSON(w, http.StatusOK, v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeErrorRetry is writeError plus back-off guidance: the Retry-After
// header and a retry_after_sec field in the error JSON, both in whole
// seconds, derived from the server's retry policy. Used on 503s so
// well-behaved clients pace their resubmissions instead of hammering a
// full queue.
func writeErrorRetry(w http.ResponseWriter, code int, err error, sec int) {
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	writeJSON(w, code, map[string]any{"error": err.Error(), "retry_after_sec": sec})
}
