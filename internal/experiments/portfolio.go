package experiments

import (
	"context"
	"fmt"
	"time"

	"qproc/internal/search"
)

// PortfolioSpec describes a portfolio search: a base SearchSpec run as
// several concurrent diversified lanes over the runner's shared kernel
// cache, with elite exchange at fixed barriers. MaxEvals is the whole
// portfolio's Monte-Carlo budget, split across lanes.
type PortfolioSpec struct {
	SearchSpec
	// Lanes is the lane count; <= 0 defaults to search.DefaultLanes.
	Lanes int `json:"lanes"`
	// ExchangeEvery is the steps/depths between elite-exchange barriers;
	// 0 derives a quarter of the longest lane's budget. It participates
	// in the job fingerprint because it changes lane trajectories.
	ExchangeEvery int `json:"exchange_every,omitempty"`
}

// withDefaults fills the empty axes on top of the embedded search spec.
func (s PortfolioSpec) withDefaults(opt Options) PortfolioSpec {
	s.SearchSpec, _ = s.SearchSpec.withDefaults(opt)
	if s.Lanes <= 0 {
		s.Lanes = search.DefaultLanes
	}
	return s
}

// PortfolioJob runs a portfolio of concurrent search lanes.
type PortfolioJob struct {
	Spec PortfolioSpec `json:"spec"`
}

func (j PortfolioJob) Kind() string { return "portfolio" }

func (j PortfolioJob) Normalize(opt Options) Job {
	j.Spec = j.Spec.withDefaults(opt)
	return j
}

func (j PortfolioJob) Summary() string {
	s := j.Spec
	out := fmt.Sprintf("portfolio %s %s ×%d lanes aux %v",
		s.Strategy, s.Benchmark, s.Lanes, s.AuxCounts)
	if s.Topology != "" {
		out += " on " + s.Topology
	}
	return out
}

func (j PortfolioJob) Run(ctx context.Context, r *Runner, progress func(Event)) (Outcome, error) {
	var cb func(SearchProgress)
	if progress != nil {
		cb = func(p SearchProgress) { progress(p.Event()) }
	}
	return r.Portfolio(ctx, j.Spec, cb)
}

func (j PortfolioJob) spec() any { return j.Spec }

func (j PortfolioJob) Timeout() time.Duration { return time.Duration(j.Spec.TimeoutSec) * time.Second }

// Portfolio runs the portfolio search on one benchmark: spec.Lanes
// deterministic lanes advancing concurrently on the runner's shared
// worker pool, all scoring through the runner's noise cache (common
// random numbers) and compiled-kernel cache (a topology compiled in one
// lane is served from cache in all others), with elite exchange at
// fixed barriers. Parallel and serial runs are bit-identical; ctx
// cancels cooperatively under the same contract as Search.
func (r *Runner) Portfolio(ctx context.Context, spec PortfolioSpec, progress func(SearchProgress)) (*SearchOutcome, error) {
	spec = spec.withDefaults(r.opt)
	pf := search.PortfolioOptions{Lanes: spec.Lanes, ExchangeEvery: spec.ExchangeEvery, Counters: r.lanes}
	return r.runSearch(ctx, "portfolio", spec.SearchSpec, &pf, progress)
}
