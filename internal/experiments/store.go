package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"qproc/internal/core"
	"qproc/internal/runstore"
	"qproc/internal/search"
)

// RunJob executes job with lookup-before-compute through the optional
// run store. The job is normalised, content-addressed (JobKey) and
// looked up first: a hit decodes the stored payload and returns it with
// cached = true, performing zero new evaluations — repeated sweeps and
// searches are free. On a miss the job runs and its outcome is persisted
// before returning. A nil store just runs the job.
//
// Search jobs additionally warm-start from the store: when the spec
// carries no explicit hint, the stored sweeps covering the same
// benchmark under the same engine options are scanned and the best
// matching point seeds the optimiser (search.WarmStart). The resolved
// hint is part of the spec — and therefore of the content address — so a
// warm-started run is stored under the inputs that actually produced it.
func (r *Runner) RunJob(ctx context.Context, job Job, store *runstore.Store, progress func(Event)) (Outcome, bool, error) {
	return r.runResolved(ctx, r.resolveJob(job, store, progress), store, progress)
}

// RunResolvedJob executes job exactly as given — no warm-start
// resolution. Callers that content-address work at submission time and
// execute it later (the qserve service) must use this for the execution
// step: re-resolving there could pick up a hint from runs stored in
// between, silently filing the outcome under a different key than the
// one announced to the client.
//
// ctx cancels cooperatively: a cancelled job stops within one proposal
// batch / trial chunk and returns an error wrapping ctx.Err(); its
// partial outcome is never persisted.
func (r *Runner) RunResolvedJob(ctx context.Context, job Job, store *runstore.Store, progress func(Event)) (Outcome, bool, error) {
	return r.runResolved(ctx, job.Normalize(r.opt), store, progress)
}

// runResolved is the lookup-before-compute core shared by RunJob and
// RunResolvedJob. With a store and Options.CheckpointEvery > 0, search
// and portfolio jobs additionally save resumable checkpoints next to
// their run, resume from one left by an interrupted execution of the
// same key, and delete it once the outcome is persisted — the resumed
// result is bit-identical to an uninterrupted run, just cheaper.
func (r *Runner) runResolved(ctx context.Context, job Job, store *runstore.Store, progress func(Event)) (Outcome, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key, err := JobKey(job, r.opt)
	if err != nil {
		return nil, false, err
	}
	if store != nil {
		payload, _, err := store.Get(key)
		if err != nil {
			return nil, false, err
		}
		if payload != nil {
			out, err := DecodeOutcome(job.Kind(), payload)
			if err == nil {
				if progress != nil {
					progress(Event{Message: fmt.Sprintf("served from run store (%.12s)", key)})
				}
				// Any checkpoint left behind is stale: the work is done.
				_ = store.DeleteCheckpoint(key)
				return out, true, nil
			}
			// Verified bytes the current schema cannot decode: evict and
			// recompute rather than failing the job.
			_ = store.Discard(key)
		}
	}
	ckpt := store != nil && r.opt.CheckpointEvery > 0 &&
		(job.Kind() == "search" || job.Kind() == "portfolio")
	run := func(resume *search.Checkpoint) (Outcome, error) {
		rctx := ctx
		if ckpt {
			rctx = context.WithValue(ctx, checkpointKey{}, &search.CheckpointOptions{
				Every:  r.opt.CheckpointEvery,
				Resume: resume,
				Save: func(cp *search.Checkpoint) {
					data, err := cp.Encode()
					if err == nil {
						err = store.PutCheckpoint(key, data)
					}
					if err != nil && progress != nil {
						progress(Event{Message: "failed to save checkpoint", Err: err.Error()})
					}
				},
			})
		}
		return job.Run(rctx, r, progress)
	}
	var resume *search.Checkpoint
	if ckpt {
		// Best-effort: any problem reading or decoding the checkpoint
		// means a cold start, never a failed job.
		if data, err := store.GetCheckpoint(key); err == nil && data != nil {
			if cp, derr := search.DecodeCheckpoint(data); derr == nil {
				resume = cp
				if progress != nil {
					progress(Event{Message: fmt.Sprintf(
						"resuming from checkpoint (unit %d, %d evals spent)", cp.Unit, cp.Evals())})
				}
			} else {
				_ = store.DeleteCheckpoint(key)
			}
		}
	}
	out, err := run(resume)
	if err != nil && resume != nil && errors.Is(err, search.ErrBadCheckpoint) {
		// A checkpoint the engine rejects (spec drift, stale schema) is
		// discarded and the job restarts cold rather than failing.
		_ = store.DeleteCheckpoint(key)
		if progress != nil {
			progress(Event{Message: "checkpoint rejected; restarting cold", Err: err.Error()})
		}
		out, err = run(nil)
	}
	if err != nil {
		return nil, false, err
	}
	if store != nil {
		// Persistence is an optimisation: a computed outcome is never
		// discarded because the store write failed (disk full, permission
		// change) — report the failure as an event and return the result.
		payload, perr := marshalJSON(out)
		if perr == nil {
			_, perr = store.Put(key, job.Kind(), job.Summary(), payload)
		}
		if perr != nil && progress != nil {
			progress(Event{Message: "failed to persist run; result not stored", Err: perr.Error()})
		}
		_ = store.DeleteCheckpoint(key)
	}
	return out, false, nil
}

// ResolveJob normalises job and, for a search over a store, fills the
// warm-start hint the run would derive — returning the exact job RunJob
// will execute. Callers that content-address work before submitting it
// (the qserve service) must resolve first, so the announced key matches
// the key the outcome is stored under.
func (r *Runner) ResolveJob(job Job, store *runstore.Store) Job {
	return r.resolveJob(job, store, nil)
}

// resolveJob is ResolveJob with warm-start progress reporting. It is
// idempotent: a job whose hint is already set passes through unchanged.
func (r *Runner) resolveJob(job Job, store *runstore.Store, progress func(Event)) Job {
	job = job.Normalize(r.opt)
	if store == nil {
		return job
	}
	switch j := job.(type) {
	case SearchJob:
		if resolveWarmStart(&j.Spec, store, r.opt, progress) {
			return j
		}
	case PortfolioJob:
		if resolveWarmStart(&j.Spec.SearchSpec, store, r.opt, progress) {
			return j
		}
	}
	return job
}

// resolveWarmStart fills spec's warm-start hint from the store when it
// has none, reporting the source; it returns whether spec changed.
func resolveWarmStart(spec *SearchSpec, store *runstore.Store, opt Options, progress func(Event)) bool {
	if spec.WarmStart != nil {
		return false
	}
	ws, src := warmStartFrom(store, *spec, opt)
	if ws == nil {
		return false
	}
	spec.WarmStart = ws
	if progress != nil {
		progress(Event{Message: fmt.Sprintf(
			"warm-start aux=%d buses=%d from stored sweep %.12s", ws.Aux, ws.Buses, src)})
	}
	return true
}

// JobKeyFor is JobKey under this runner's options.
func (r *Runner) JobKeyFor(job Job) (string, error) { return JobKey(job, r.opt) }

// warmStartFrom scans the stored sweeps for points covering the search's
// benchmark at its σ, under the same result-affecting engine options,
// restricted to the aux variants and bus budget the search may visit.
// The best point by the search objective becomes the hint; IBM baseline
// points are skipped (fixed chips do not live on the generated lattice).
// The scan order is the store's sorted entry order, so the hint is
// deterministic for given store contents.
func warmStartFrom(store *runstore.Store, spec SearchSpec, opt Options) (*search.WarmStart, string) {
	auxOK := map[int]bool{}
	for _, a := range spec.AuxCounts {
		auxOK[a] = true
	}
	var best *SweepPoint
	var src string
	for _, e := range store.Entries() {
		if e.Kind != "sweep" {
			continue
		}
		// The entry summary lists the sweep's benchmarks (SweepJob.Summary),
		// so sweeps that cannot cover this search are skipped without
		// reading their payloads; a false positive only costs one decode.
		if !strings.Contains(e.Summary, spec.Benchmark) {
			continue
		}
		// Peek, not Get: this scan must not inflate the hit counter that
		// reports how many runs were served from the store.
		payload, _, err := store.Peek(e.Key)
		if err != nil || payload == nil {
			continue
		}
		sr, err := ReadSweepJSON(bytes.NewReader(payload))
		if err != nil {
			continue
		}
		if sr.Options.Seed != opt.Seed || sr.Options.YieldTrials != opt.YieldTrials ||
			sr.Options.FreqLocalTrials != opt.FreqLocalTrials {
			continue // different noise matrices or frequency flow: not comparable
		}
		for i := range sr.Points {
			p := &sr.Points[i]
			if p.Benchmark != spec.Benchmark || p.Sigma != spec.Sigma ||
				!auxOK[p.AuxQubits] || p.Config == core.ConfigIBM {
				continue
			}
			if spec.MaxBuses != nil && *spec.MaxBuses >= 0 && p.Buses > *spec.MaxBuses {
				continue
			}
			if best == nil || warmObjective(p, spec.PerfWeight) > warmObjective(best, spec.PerfWeight) {
				best, src = p, e.Key
			}
		}
	}
	if best == nil {
		return nil, ""
	}
	return &search.WarmStart{Aux: best.AuxQubits, Buses: best.Buses}, src
}

// warmObjective ranks stored points by the objective the search will
// maximise: yield, optionally blended with mapped performance.
func warmObjective(p *SweepPoint, perfWeight float64) float64 {
	if perfWeight <= 0 {
		return p.Yield
	}
	return p.Yield * math.Pow(p.NormPerf, perfWeight)
}
