// Package server wraps experiments.Runner in a long-lived HTTP/JSON
// service (the qserve binary): clients submit sweep, search and
// portfolio jobs, watch per-job streamed progress, cancel running work,
// and fetch finished outcomes, while every job — whichever client
// submitted it — shares one runner (one compiled-kernel cache, one
// worker pool) and one optional run store, so overlapping topologies
// compile once and repeated work is served from disk without any
// computation.
//
// The API is JSON over HTTP:
//
//	POST   /v1/jobs                {"kind":"sweep"|"search"|"portfolio","spec":{...}}
//	GET    /v1/jobs                list all jobs, submission order
//	GET    /v1/jobs/{id}           job status
//	DELETE /v1/jobs/{id}           cancel a queued or running job or a pending retry
//	GET    /v1/jobs/{id}/result    the outcome (404 until done)
//	GET    /v1/jobs/{id}/events    streamed progress, one JSON line per event
//	GET    /v1/jobs/{id}/metrics   the job's progress series, windowed (metrics.go)
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
// chunk, reporting status "canceled". DELETE on a failed job waiting out
// its retry backoff retires it as "canceled" too, so the retry never
// runs and its checkpoint is deleted. Cancelled outcomes are never
// persisted, so a later resubmission recomputes them.
//
// With a job-metadata journal configured (Config.Journal), every
// lifecycle transition is recorded next to the run store: a restarted
// server lists prior jobs with their final statuses, serves done ones
// from the store, and marks jobs that were still queued or running when
// the process died as "interrupted". A failed job whose retry is
// pending at a clean shutdown is journaled as queued, so a restart
// resumes it like a job the process left in flight.
package server

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"slices"
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

	wg sync.WaitGroup
}

// retryableStatus reports whether a resubmission of the same content
// address should replace the job rather than dedupe onto it.
func retryableStatus(st string) bool {
	return st == runstore.StatusFailed || st == runstore.StatusCanceled || st == runstore.StatusInterrupted
}

// job is one submitted unit of work and its observable state. Its
// JobRecord is what the journal records on every transition: the id,
// kind, summary and specs never change once the job is built, while the
// status, timestamps, error and attempt count are guarded by mu like the
// rest of the state.
type job struct {
	runstore.JobRecord
	parsed experiments.Job

	// ctx is cancelled by DELETE or server shutdown; the runner observes
	// it within one proposal batch / trial chunk. Restored jobs have no
	// ctx (they never run again).
	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// cached marks an outcome served from the run store, not computed.
	cached bool
	// restored marks a job rebuilt from the journal: its outcome lives
	// in the run store only, keyed by the job id.
	restored bool
	outcome  []byte
	// stream is the job's progress as GET /v1/jobs/{id}/events serves
	// it, across every attempt: each event marshalled once, on append, as
	// one JSON line. Once the stream ends, packed holds its bytes
	// flate-compressed, about 30× smaller for a search, and stream is
	// empty (streamLocked reads both).
	stream []byte
	packed []byte
	// events counts the lines of stream; stepsDone and stepsTotal are
	// those of the latest event that carries a total.
	events, stepsDone, stepsTotal int

	// done is closed after the final event of the final attempt is
	// appended, waking streamers (endStreamLocked).
	done chan struct{}
	// wake is closed and replaced on every event append, so streamers
	// block until there is something new instead of polling on a timer.
	wake chan struct{}
}

// appendEventLocked appends a progress event to the stream and wakes
// blocked streamers. An event that fails to marshal is dropped; no
// engine event does, because every series value is finite. Callers hold
// j.mu or own the job exclusively.
func (j *job) appendEventLocked(e experiments.Event) {
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	j.stream = append(append(j.stream, line...), '\n')
	j.events++
	if e.Total > 0 {
		j.stepsDone, j.stepsTotal = e.Done, e.Total
	}
	close(j.wake)
	j.wake = make(chan struct{})
}

// endStreamLocked ends j's stream once no event can follow: it keeps the
// stream compressed, so a retained job holds neither its plain bytes nor
// their append slack, and closes done, so streamers drain the final event
// and stop. Later calls do nothing. Callers hold j.mu or own the job
// exclusively.
func (j *job) endStreamLocked() {
	if j.streamEnded() {
		return
	}
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, flate.DefaultCompression) // a valid level
	w.Write(j.stream)                                       // a bytes.Buffer takes every write
	w.Close()
	j.packed, j.stream = bytes.Clone(buf.Bytes()), nil
	close(j.done)
}

// streamLocked returns the stream's bytes, inflating an ended stream's.
// Callers hold j.mu or own the job exclusively.
func (j *job) streamLocked() []byte {
	if j.packed == nil {
		return j.stream
	}
	b, err := io.ReadAll(flate.NewReader(bytes.NewReader(j.packed)))
	if err != nil {
		panic(fmt.Sprintf("server: job %s: inflating its stream: %v", j.ID, err)) // unreachable: packed is deflate's output
	}
	return append(b, j.stream...)
}

// streamEnded reports whether j's stream has ended.
func (j *job) streamEnded() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
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
// reflects what this server reports. Runs during New, before executors
// start; the caller owns s.mu's data exclusively.
func (s *Server) restoreFromJournal() {
	if s.cfg.Journal == nil {
		return
	}
	for _, rec := range s.cfg.Journal.Restored() {
		if !runstore.Terminal(rec.Status) && s.resumeLocked(rec) {
			continue
		}
		j := &job{JobRecord: rec, restored: true, done: make(chan struct{}), wake: make(chan struct{})}
		switch rec.Status {
		case runstore.StatusDone:
			// Served from the run store while its entry exists; without
			// one, a resubmission recomputes it (unservableRestored).
			j.cached = s.cfg.Store != nil && s.cfg.Store.Has(rec.ID)
			j.appendEventLocked(experiments.Event{Message: "job done (restored from journal; outcome in run store)"})
			j.endStreamLocked()
		case runstore.StatusFailed, runstore.StatusCanceled, runstore.StatusInterrupted:
			j.appendEventLocked(experiments.Event{Message: "job " + rec.Status + " (restored from journal)"})
			j.endStreamLocked()
		default: // queued or running when the process died, and not resumed
			s.finishLocked(j, runstore.StatusInterrupted, "",
				experiments.Event{Message: "job interrupted by server restart; resubmit to recompute"})
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	s.evictFinishedLocked()
}

// resumeLocked resubmits a job the previous process left queued or
// running, reconstructing it from the journaled resolved spec, while the
// retry policy's interrupted budget allows. The rebuilt job must hash
// back to the journaled id (spec or options drift across the restart
// means it is a different job — it is left interrupted instead of
// silently running other work under the old address) and must fit the
// queue.
func (s *Server) resumeLocked(rec runstore.JobRecord) bool {
	if rec.Attempts < 1 {
		rec.Attempts = 1 // journals from before attempt tracking
	}
	if !s.cfg.Retry.Allows(runstore.StatusInterrupted, rec.Attempts) ||
		len(rec.ResolvedSpec) == 0 || len(s.queue) >= s.cfg.QueueSize {
		return false
	}
	parsed, err := experiments.ParseJob(rec.Kind, rec.ResolvedSpec)
	if err != nil {
		return false
	}
	parsed = parsed.Normalize(s.cfg.Runner.Options())
	if key, err := s.cfg.Runner.JobKeyFor(parsed); err != nil || key != rec.ID {
		return false
	}
	j := &job{JobRecord: rec, parsed: parsed}
	s.enqueueLocked(j)
	j.publish(experiments.Event{Message: "job interrupted by server restart; resuming from checkpoint if present"})
	return true
}

// enqueueLocked admits j, which carries the work and its history, as a
// queued job: the queued status with no start, finish or error and a
// fresh cancellable context. A new job also gets the channels its
// streamers block on; a requeued one keeps its open stream. It journals
// the queued record, appends j to the queue, lists a new id, maps the id
// to j and wakes an executor. The record is journaled before an executor
// can pop the job (the pop also happens under s.mu), so the "running"
// record can never overtake it. Callers hold s.mu, and j.mu when j is
// reachable, and check their own admission guards first.
func (s *Server) enqueueLocked(j *job) {
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.Status, j.Started, j.Finished, j.Err = runstore.StatusQueued, time.Time{}, time.Time{}, ""
	if j.done == nil {
		j.done, j.wake = make(chan struct{}), make(chan struct{})
	}
	s.journalAppendLocked(j)
	s.queue = append(s.queue, j)
	if _, ok := s.jobs[j.ID]; !ok {
		s.order = append(s.order, j.ID)
	}
	s.jobs[j.ID] = j
	s.qcond.Signal()
}

// finishLocked ends j's attempt in a terminal status: it stamps the
// status, the error and the finish time, appends the final event and
// journals the record. Unless a retry follows, it ends the stream too; a
// failed job with retry budget left keeps its stream open, so streamers
// follow it through the backoff into the next attempt. Callers hold j.mu
// or own the job exclusively.
func (s *Server) finishLocked(j *job, status, errMsg string, e experiments.Event) {
	j.Status, j.Err, j.Finished = status, errMsg, time.Now().UTC()
	j.appendEventLocked(e)
	s.journalAppendLocked(j)
	if !s.retriesLocked(j) {
		j.endStreamLocked()
	}
}

// retriesLocked reports whether j's ended attempt gets another one: it
// failed, and the retry policy's budget allows another attempt. Callers
// hold j.mu or own the job exclusively.
func (s *Server) retriesLocked(j *job) bool {
	return j.Status == runstore.StatusFailed && s.cfg.Retry.Allows(runstore.StatusFailed, j.Attempts)
}

// settle follows a job the executor or a queued cancel has just ended:
// it releases the job's context, deletes a canceled job's checkpoint
// (stale by decision: the client abandoned the work; done jobs clean up
// inside the runner) and hands a failed job to the retry policy.
func (s *Server) settle(j *job, status string) {
	j.cancel()
	switch status {
	case runstore.StatusCanceled:
		s.deleteCheckpoint(j.ID)
	case runstore.StatusFailed:
		s.maybeRetry(j)
	}
}

// journalAppendLocked records the job's current state in the journal,
// best-effort: metadata loss never fails a job. Callers either hold
// j.mu or own the job exclusively (submission before the job is
// reachable, restore); per-job record order follows from that.
func (s *Server) journalAppendLocked(j *job) {
	if s.cfg.Journal == nil {
		return
	}
	_ = s.cfg.Journal.Append(j.JobRecord)
}

// Close stops accepting submissions, waits for queued and running jobs
// to finish — however long that takes — and returns. Safe to call more
// than once. Use Shutdown for a bounded stop.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

// Shutdown stops accepting submissions and drains queued and running
// jobs until ctx expires; past the deadline every job still queued,
// running or waiting out a retry backoff is cooperatively cancelled
// (journaled as "canceled") and Shutdown returns once the executors have
// stopped — within one proposal batch / trial chunk of the cancel, not
// after the full remaining work. This server runs no retry once it is
// closing: after a clean drain, a failed job still waiting out its
// backoff is journaled as queued and its stream ends, so a restart
// resumes it within the interrupted budget. The return value is nil on a
// clean drain and ctx.Err() when jobs had to be cancelled. Safe to call
// more than once and concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.qcond.Broadcast()
	s.mu.Unlock()
	// Deferred, so it runs once the executors have stopped and every
	// job's attempt has ended.
	defer s.endStreams()

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

// endStreams ends every listed job's stream. Called once the executors
// have stopped and before the journal closes, it ends only the streams
// that failed jobs keep open while a retry is pending, which requeue
// leaves to it on a closing server. It journals each such job as queued
// first, as a job the process leaves in flight, so a restart resumes it
// within the interrupted budget. The job's record in memory and its
// stream bytes stay as they are.
func (s *Server) endStreams() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if s.retriesLocked(j) && !j.streamEnded() && s.cfg.Journal != nil {
			rec := j.JobRecord
			rec.Status, rec.Started, rec.Finished, rec.Err = runstore.StatusQueued, time.Time{}, time.Time{}, ""
			_ = s.cfg.Journal.Append(rec)
		}
		j.endStreamLocked()
		j.mu.Unlock()
	}
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
	s.queue = slices.Delete(s.queue, 0, 1)
	return j
}

// removeQueuedLocked drops j from the waiting queue, freeing its
// admission slot. A job already popped by an executor is simply absent.
// Like popJob, it clears the slot it vacates, so the queue's backing
// array holds only queued jobs and never keeps an evicted one alive.
// Callers hold s.mu.
func (s *Server) removeQueuedLocked(j *job) {
	if i := slices.Index(s.queue, j); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
	}
}

// runJob executes one job through the shared runner and store,
// enforcing the spec's deadline and isolating panics: a panicking job
// fails with its stack in the event log while the executor survives. A
// failed job with retry budget left is requeued after a backoff delay.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.Status != runstore.StatusQueued {
		// Cancelled while waiting in the queue: already terminal.
		j.mu.Unlock()
		return
	}
	j.Status = runstore.StatusRunning
	j.Started = time.Now().UTC()
	j.Attempts++
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

	status, errMsg := runstore.StatusFailed, ""
	switch {
	case err == nil:
		status = runstore.StatusDone
	case timeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// The deadline fired, not the client: that is a failure (and so
		// retryable — a retry resumes from the last checkpoint, making
		// progress across attempts even under a tight deadline).
		errMsg = fmt.Sprintf("job exceeded its %s deadline", timeout)
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		// Cancellation is a client decision, not a failure; partial
		// results were discarded by the engine and never persisted.
		status = runstore.StatusCanceled
	default:
		errMsg = err.Error()
	}
	// "job done", "job failed" with its error, or "job canceled".
	e := experiments.Event{Message: "job " + status, Err: errMsg}
	if status == runstore.StatusDone && cached {
		e.Message = "job done (served from run store)"
	}
	j.mu.Lock()
	j.cached, j.outcome = cached, payload
	s.finishLocked(j, status, errMsg, e)
	j.mu.Unlock()
	s.settle(j, status)
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
		s.recordEventMetrics(j.ID, e)
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
// The retry is announced under the lock that checked it, so a DELETE
// that cancels the pending retry either precedes the check or follows
// the announcement, and the stream still ends on "job canceled".
func (s *Server) maybeRetry(j *job) {
	j.mu.Lock()
	retries := s.retriesLocked(j)
	var delay time.Duration
	if retries {
		delay = s.cfg.Retry.Delay(j.ID, j.Attempts)
		j.appendEventLocked(experiments.Event{Message: fmt.Sprintf("retrying in %s (attempt %d)", delay, j.Attempts+1)})
	}
	j.mu.Unlock()
	if !retries {
		s.deleteCheckpoint(j.ID)
		return
	}
	time.AfterFunc(delay, func() { s.requeue(j) })
}

// requeue re-admits a failed job once its backoff has elapsed. It is the
// same job, so its spec, attempt count and stream carry over, and its
// streamers follow the next attempt. On a closing server it leaves a
// listed job to Shutdown's endStreams, whether the drain is still running
// or over. Otherwise it bails out, ending the stream, when the job is no
// longer failed (a DELETE canceled it), when the id no longer maps to the
// job (a client resubmitted or retention evicted it meanwhile; the
// journal keeps it failed), or when the queue is full — a retry never
// evicts client work.
func (s *Server) requeue(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	listed := s.jobs[j.ID] == j
	switch {
	case s.closed && listed:
		// endStreams journals a pending retry as queued and ends its stream.
	case !listed || j.Status != runstore.StatusFailed || len(s.queue) >= s.cfg.QueueSize:
		j.endStreamLocked()
	default:
		s.enqueueLocked(j)
		j.appendEventLocked(experiments.Event{Message: "requeued after failure"})
	}
}

// cancelJob cooperatively cancels one job. A queued job, or a failed
// one waiting out its retry backoff, retires immediately with status
// "canceled": a queued job frees its queue slot, and a pending retry's
// requeue bails out when its timer fires. A running job has its context
// cancelled and the executor records the terminal state when the engine
// stops (within one proposal batch / trial chunk). Other terminal jobs
// are left untouched, a failed one whose retry will not run included.
// Returns whether a cancellation was initiated. Lock order is s.mu, then
// j.mu, as everywhere else.
func (s *Server) cancelJob(j *job) bool {
	s.mu.Lock()
	j.mu.Lock()
	status := j.Status
	// A failed job's stream stays open exactly while its retry is pending;
	// a requeue that bails, Shutdown and a restore from the journal end it.
	waiting := status == runstore.StatusQueued || (s.retriesLocked(j) && !j.streamEnded())
	if waiting {
		s.removeQueuedLocked(j)
		s.finishLocked(j, runstore.StatusCanceled, "", experiments.Event{Message: "job canceled"})
	}
	j.mu.Unlock()
	s.mu.Unlock()
	switch {
	case waiting:
		s.settle(j, runstore.StatusCanceled)
	case status == runstore.StatusRunning:
		j.cancel()
	default:
		return false
	}
	return true
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
	// Done/Total are those of the latest progress event with a total.
	Done   int `json:"done"`
	Total  int `json:"total"`
	Events int `json:"events"`
}

func (j *job) view() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobStatus{
		ID:        j.ID,
		Kind:      j.Kind,
		Summary:   j.Summary,
		Spec:      j.Spec,
		Status:    j.Status,
		Cached:    j.cached,
		Restored:  j.restored,
		Submitted: j.Submitted,
		Err:       j.Err,
		Events:    j.events,
		Done:      j.stepsDone,
		Total:     j.stepsTotal,
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	return v
}

// statusNow returns the job's current lifecycle state.
func (j *job) statusNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.Status
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
	if existing := s.jobs[key]; existing != nil {
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
	}
	if len(s.queue) >= s.cfg.QueueSize {
		s.mu.Unlock()
		writeErrorRetry(w, http.StatusServiceUnavailable,
			fmt.Errorf("job queue full (%d waiting); retry later", s.cfg.QueueSize),
			s.cfg.Retry.RetryAfter())
		return
	}
	j := &job{JobRecord: runstore.JobRecord{
		ID:           key,
		Kind:         parsed.Kind(),
		Summary:      parsed.Normalize(s.cfg.Runner.Options()).Summary(),
		Spec:         append(json.RawMessage(nil), req.Spec...),
		ResolvedSpec: resolvedSpec,
		Submitted:    time.Now().UTC(),
	}, parsed: parsed}
	s.enqueueLocked(j)
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
	if st != runstore.StatusDone {
		return false
	}
	j.mu.Lock()
	dead := j.restored && j.outcome == nil
	j.mu.Unlock()
	if !dead {
		return false
	}
	return s.cfg.Store == nil || !s.cfg.Store.Has(j.ID)
}

// evictFinishedLocked drops the oldest finished jobs beyond the
// retention bound, so a long-lived server's memory stays proportional to
// RetainJobs rather than to its lifetime. Queued and running jobs are
// never evicted. One pass over order, newest first, counts the terminal
// jobs, keeps the newest RetainJobs of them and rebuilds order in place.
// Every earlier pass left at most RetainJobs terminal jobs, so the pass
// reads at most RetainJobs + QueueSize + Executors statuses. Callers hold
// s.mu.
func (s *Server) evictFinishedLocked() {
	kept, finished := len(s.order), 0
	for i := len(s.order) - 1; i >= 0; i-- {
		id := s.order[i]
		if runstore.Terminal(s.jobs[id].statusNow()) {
			if finished++; finished > s.cfg.RetainJobs {
				delete(s.jobs, id)
				continue
			}
		}
		kept--
		s.order[kept] = id
	}
	clear(s.order[:kept])
	s.order = s.order[kept:]
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
	status, errMsg, outcome := j.Status, j.Err, j.outcome
	j.mu.Unlock()
	switch status {
	case runstore.StatusDone:
		if outcome == nil {
			// Restored from the journal: the payload lives in the run
			// store under the job id (the id IS the store key).
			if s.cfg.Store != nil {
				if payload, _, err := s.cfg.Store.Get(j.ID); err == nil && payload != nil {
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
	case runstore.StatusFailed:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job failed: %s", errMsg))
	case runstore.StatusCanceled, runstore.StatusInterrupted:
		writeError(w, http.StatusGone, fmt.Errorf("job was %s; resubmit to recompute", status))
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("job is %s; result not ready", status))
	}
}

// handleEvents streams the job's progress as one JSON object per line
// (application/x-ndjson), replaying the stream so far first and
// following live appends until the job completes or the client
// disconnects. Delivery is notification-driven: the streamer blocks on
// the job's wake channel (closed and replaced on every append), so idle
// streams cost nothing between events instead of waking on a poll timer.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	next := 0
	// emit writes the bytes appended since the last call and returns the
	// wake channel captured in the same critical section, so an append
	// between the write and the select below still fires the captured
	// channel — no lost wakeups — and whether the stream had ended, so
	// the write was its final drain. Appends never touch bytes already in
	// the stream, so they are written outside the lock.
	emit := func() (wake chan struct{}, ended, ok bool) {
		j.mu.Lock()
		stream := j.streamLocked()
		pending := stream[next:]
		next = len(stream)
		wake, ended = j.wake, j.streamEnded()
		j.mu.Unlock()
		if len(pending) == 0 {
			return wake, ended, true
		}
		if _, err := w.Write(pending); err != nil {
			return nil, ended, false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return wake, ended, true
	}

	for {
		wake, ended, ok := emit()
		if !ok || ended {
			return
		}
		select {
		case <-j.done: // the next emit drains the final event
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
			runstore.StatusQueued: 0, runstore.StatusRunning: 0, runstore.StatusDone: 0,
			runstore.StatusFailed: 0, runstore.StatusCanceled: 0, runstore.StatusInterrupted: 0,
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
