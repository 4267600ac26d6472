// Command qserve is the long-lived evaluation service: it wraps the
// experiments engine (sweeps + guided searches) in an HTTP/JSON API with
// a bounded job queue, per-job streamed progress, cooperative job
// cancellation, and one shared compiled-kernel cache and worker pool
// across every client; each job's noise matrices are freed when it
// ends. With -store, finished runs persist content-addressed on disk,
// repeated submissions — across clients and across restarts — are served
// without recomputation, and a job-metadata journal next to the store
// lets a restarted server list prior jobs with their final statuses.
//
// The service is self-healing: with -store, running searches save
// resumable checkpoints (-checkpoint-every) next to their run; a job
// that was in flight when the process died is resubmitted automatically
// at startup (-retry-interrupted) and resumes from its checkpoint
// bit-identically instead of recomputing; a failed job is requeued
// after a capped-exponential backoff (-retry-failed, -retry-backoff).
// Past its retry budget a dead job surfaces as "interrupted" or
// "failed". A deterministic fault-injection harness (-fault-spec, or
// QSERVE_FAULT_SPEC) exercises these paths in tests — never enable it
// in production.
//
// Usage:
//
//	qserve -addr :8080 -store runs -queue 16
//	qserve -quick -addr 127.0.0.1:8080        # reduced Monte-Carlo budgets
//	qserve -store runs -drain 30s             # SIGTERM: drain 30s, then cancel
//	qserve -store runs -retry-failed 2 -retry-backoff 1s  # supervised retries
//
// Submit and watch a job:
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"kind":"sweep","spec":{"benchmarks":["sym6_145"],"sigmas":[0.03]}}'
//	curl -sN localhost:8080/v1/jobs/<id>/events     # one JSON line per event
//	curl -s  localhost:8080/v1/jobs/<id>/result
//	curl -s -X DELETE localhost:8080/v1/jobs/<id>   # cancel mid-flight
//	curl -s 'localhost:8080/v1/jobs/<id>/metrics?metric=yield&step_window=10'
//	curl -s  localhost:8080/v1/stats
//
// On SIGTERM/SIGINT the server stops accepting submissions, drains
// queued and running jobs for -drain, then cooperatively cancels
// whatever is left (each job stops within one proposal batch /
// Monte-Carlo trial chunk) and exits — it never hangs past the drain
// deadline on a long job, so a k8s grace period is honoured instead of
// escalating to SIGKILL and losing the journal's final records.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"qproc/internal/cliutil"
	"qproc/internal/experiments"
	"qproc/internal/faultinject"
	"qproc/internal/metrics"
	"qproc/internal/retry"
	"qproc/internal/runstore"
	"qproc/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port)")
		storeDir = flag.String("store", "", "persist finished runs in this directory (content-addressed run store)")
		queue    = flag.Int("queue", 16, "bound on queued jobs; submissions beyond it get 503")
		execs    = flag.Int("jobs", 1, "jobs running concurrently (each job fans out internally)")
		retain   = flag.Int("retain", 256, "finished jobs kept in memory; older ones are dropped (store-backed runs stay on disk)")
		quick    = flag.Bool("quick", false, "reduced Monte-Carlo budgets (fast smoke runs)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		workers  = flag.Int("workers", 0, "shared helper-pool size across all jobs and fan-out levels (0 = GOMAXPROCS)")
		cacheMB  = flag.Int("noise-cache-mb", 0, "byte bound on each running job's noise cache in MiB, LRU-evicted (0 = unbounded)")
		kernMB   = flag.Int("kernel-cache-mb", 0, "byte bound on the shared compiled-kernel cache in MiB, LRU-evicted (0 = unbounded)")
		serial   = flag.Bool("serial", false, "disable all parallelism")
		drain    = flag.Duration("drain", 10*time.Second, "on SIGTERM, finish queued and running jobs for this long, then cancel the rest cooperatively")

		jfsync  = flag.Bool("journal-fsync", true, "fsync the job journal on every append so lifecycle records survive power loss")
		ckEvery = flag.Int("checkpoint-every", 25, "with -store, save a resumable search checkpoint every N steps/depths and at every portfolio exchange barrier (0 disables)")

		metricsMB  = flag.Int("metrics-retain-mb", 64, "with -store, byte bound on the per-job metrics time series in MiB; the least recently written series lose their oldest chunks first (0 = unbounded)")
		metricsAge = flag.Duration("metrics-retain-age", 0, "with -store, evict metrics chunks whose newest point is older than this (0 = no age bound)")

		retryFailed      = flag.Int("retry-failed", 1, "times a failed job is automatically requeued after a backoff (0 disables)")
		retryInterrupted = flag.Int("retry-interrupted", 2, "times a job interrupted by a process death is resubmitted at startup, resuming from its checkpoint (0 disables)")
		retryBackoff     = flag.Duration("retry-backoff", 500*time.Millisecond, "base delay before the first retry; doubles per retry up to 30s, plus 20% deterministic jitter")

		faultSpec = flag.String("fault-spec", "", "deterministic fault-injection schedule, site:action[:k=v]*;... (testing only; also QSERVE_FAULT_SPEC)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for probabilistic fault-injection rules (also QSERVE_FAULT_SEED)")
	)
	flag.Parse()

	check(cliutil.Addr("addr", *addr))
	check(cliutil.Positive("queue", *queue))
	check(cliutil.Positive("jobs", *execs))
	check(cliutil.Positive("retain", *retain))
	check(cliutil.NonNegative("workers", *workers))
	check(cliutil.NonNegative("noise-cache-mb", *cacheMB))
	check(cliutil.NonNegative("kernel-cache-mb", *kernMB))
	check(cliutil.NonNegative("checkpoint-every", *ckEvery))
	check(cliutil.NonNegative("metrics-retain-mb", *metricsMB))
	if *metricsAge < 0 {
		check(fmt.Errorf("-metrics-retain-age must be non-negative, got %v", *metricsAge))
	}
	check(cliutil.NonNegative("retry-failed", *retryFailed))
	check(cliutil.NonNegative("retry-interrupted", *retryInterrupted))
	if *drain <= 0 {
		check(fmt.Errorf("-drain must be positive, got %v", *drain))
	}
	if *retryBackoff < 0 {
		check(fmt.Errorf("-retry-backoff must be non-negative, got %v", *retryBackoff))
	}
	if flag.NArg() > 0 {
		check(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	// Fault injection is off unless explicitly requested; the env fallback
	// lets test harnesses inject faults into a binary they do not launch
	// with custom flags.
	if *faultSpec == "" {
		*faultSpec = os.Getenv("QSERVE_FAULT_SPEC")
		if v := os.Getenv("QSERVE_FAULT_SEED"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				check(fmt.Errorf("QSERVE_FAULT_SEED %q: %w", v, err))
			}
			*faultSeed = n
		}
	}
	if *faultSpec != "" {
		plan, err := faultinject.Parse(*faultSpec, *faultSeed)
		check(err)
		faultinject.Enable(plan)
		fmt.Fprintf(os.Stderr, "qserve: FAULT INJECTION ACTIVE: %s (seed %d)\n", *faultSpec, *faultSeed)
	}

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	opt.Seed = *seed
	opt.Workers = *workers
	opt.NoiseCacheBytes = int64(*cacheMB) << 20
	opt.KernelCacheBytes = int64(*kernMB) << 20
	if *serial {
		opt.Parallel = false
	}
	opt.CheckpointEvery = *ckEvery

	var store *runstore.Store
	var journal *runstore.Journal
	var mstore *metrics.Store
	if *storeDir != "" {
		check(cliutil.StoreDir("store", *storeDir))
		var err error
		store, err = runstore.Open(*storeDir)
		check(err)
		// The job-metadata journal lives next to the run store: outcomes
		// are content-addressed in the store, lifecycle metadata here, so
		// a restart lists prior jobs and re-serves done ones.
		journal, err = runstore.OpenJournal(filepath.Join(*storeDir, "jobs.ndjson"), *retain,
			runstore.WithFsync(*jfsync))
		check(err)
		// Per-job progress series live under the store too, bounded by
		// the retention flags so the footprint never grows with uptime.
		mstore, err = metrics.Open(filepath.Join(*storeDir, "metrics"), metrics.Retention{
			MaxBytes: int64(*metricsMB) << 20,
			MaxAge:   *metricsAge,
		})
		check(err)
	}

	srv, err := server.New(server.Config{
		Runner:     experiments.NewRunner(opt),
		Store:      store,
		Journal:    journal,
		Metrics:    mstore,
		QueueSize:  *queue,
		Executors:  *execs,
		RetainJobs: *retain,
		Retry: retry.Policy{
			Failed:      *retryFailed,
			Interrupted: *retryInterrupted,
			Base:        *retryBackoff,
			Cap:         30 * time.Second,
			JitterFrac:  0.2,
			Seed:        *seed,
		},
	})
	check(err)

	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	storeNote := "no store"
	if store != nil {
		storeNote = fmt.Sprintf("store %s (%d runs, journal %s)", store.Root(), store.Len(), journal.Path())
	}
	fmt.Fprintf(os.Stderr, "qserve: listening on %s — %s, queue %d, %d executor(s), seed %d, drain %v\n",
		*addr, storeNote, *queue, *execs, *seed, *drain)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "qserve: shutting down (draining jobs for up to %v)\n", *drain)
		// Jobs first: srv.Shutdown stops accepting work, drains until the
		// deadline, then cooperatively cancels the rest — each job stops
		// within one proposal batch / trial chunk, so this returns
		// promptly instead of hanging on a long Monte-Carlo run. Event
		// streams end with the jobs, which is what lets the HTTP shutdown
		// below finish: it waits for active connections to go idle.
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "qserve: drain deadline hit; remaining jobs canceled")
		}
		cancelDrain()
		httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
		_ = httpSrv.Shutdown(httpCtx)
		cancelHTTP()
		if journal != nil {
			_ = journal.Close()
		}
		if mstore != nil {
			_ = mstore.Close()
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			check(err)
		}
	}
}

// newHTTPServer wraps the API handler in an http.Server hardened for a
// long-lived listener: connections that never finish sending headers
// (Slowloris) are dropped after 10s and idle keep-alive connections
// after two minutes. There is deliberately no global write timeout —
// event streams legitimately stay open for a job's whole lifetime.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qserve:", err)
		os.Exit(1)
	}
}
