// Package search is the guided design-space optimiser the exhaustive
// sweep engine (internal/experiments) grows into: instead of enumerating
// every (bus configuration × layout × frequency) design point, it walks
// the space with neighbour moves — add/remove/shift a 4-qubit bus square,
// jump to an auxiliary-qubit layout, re-seed a frequency region — under
// one of two strategies, simulated annealing or beam search.
//
// The paper (Section 7) leaves global optimisation of the design space as
// future work, and exhaustive sweeps stop scaling once the aux/bus axes
// multiply. The engine gets its leverage from two-tier scoring:
//
//   - every proposed state is ranked by the closed-form expected collision
//     count of its frequency assignment, maintained *incrementally*
//     (collision.Incremental re-scores only the terms a local move
//     perturbs), and
//   - only analytically promising states receive a full Monte-Carlo yield
//     estimate, which reuses the common-random-numbers noise matrices in
//     yield.NoiseCache, so every evaluated design with the same qubit
//     count is scored under identical simulated fabrications.
//
// Both strategies are deterministic for a fixed seed: random draws happen
// only on the serial control path, parallel workers compute pure functions
// into index-addressed slots, and every ranking tie breaks on a canonical
// state key. Parallel and serial runs return bit-identical results.
package search

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"qproc/internal/circuit"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/lattice"
	"qproc/internal/mapper"
	"qproc/internal/topology"
	"qproc/internal/workpool"
	"qproc/internal/yield"
)

// Strategy selects the search algorithm.
type Strategy string

const (
	// Anneal is batch-proposal simulated annealing: each step draws a
	// batch of neighbour moves, scores them concurrently, and applies a
	// Metropolis accept/reject to the best.
	Anneal Strategy = "anneal"
	// Beam is deterministic beam search: every frontier state expands all
	// its neighbour moves, and the best BeamWidth states survive.
	Beam Strategy = "beam"
)

// Strategies lists the implemented strategies.
func Strategies() []Strategy { return []Strategy{Anneal, Beam} }

// ParseStrategy validates a strategy name.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case Anneal, Beam:
		return Strategy(s), nil
	}
	return "", fmt.Errorf("search: unknown strategy %q (have anneal, beam)", s)
}

// Options configures a search run.
type Options struct {
	// Strategy picks annealing or beam search.
	Strategy Strategy
	// Seed drives every stochastic component deterministically.
	Seed int64
	// Sigma is the fabrication noise parameter the designs are optimised
	// for, GHz.
	Sigma float64
	// Trials is the Monte-Carlo budget per full yield evaluation.
	Trials int
	// AuxCounts are the auxiliary-qubit layout variants the search may
	// visit; the first entry seeds the annealer.
	AuxCounts []int
	// MaxBuses caps the number of 4-qubit bus squares per design;
	// < 0 means no cap.
	MaxBuses int
	// MaxEvals caps the number of full Monte-Carlo evaluations; <= 0
	// means unlimited. The incremental analytic surrogate is never
	// capped.
	MaxEvals int
	// Steps is the annealing step count.
	Steps int
	// Proposals is the number of neighbour moves drawn per annealing
	// step (scored concurrently).
	Proposals int
	// T0 and Tend are the initial and final annealing temperatures in
	// expected-collision units.
	T0, Tend float64
	// BeamWidth is the beam search frontier size.
	BeamWidth int
	// Depth is the maximum beam search depth.
	Depth int
	// PerfWeight blends mapped performance into the objective:
	// objective = yield · normPerf^PerfWeight. Zero optimises yield
	// alone and skips mapping during the search.
	PerfWeight float64
	// Mapper holds the SABRE parameters used when PerfWeight > 0 and for
	// the final report.
	Mapper mapper.Options
	// Params are the collision-model constants the search scores and
	// evaluates designs with. Its Algorithm 3 seed allocations come from
	// the design flow, which allocates at collision.DefaultParams().
	Params collision.Params
	// Parallel fans proposal construction and Monte-Carlo trials out over
	// a bounded worker pool; results are bit-identical with it off.
	Parallel bool
	// Workers bounds the fan-out; 0 means GOMAXPROCS.
	Workers int
	// Pool, when non-nil, is the shared helper pool every fan-out level
	// draws from — proposal construction here and trial-level chunking in
	// the yield simulator — so a search embedded in a multi-job service
	// respects one global core budget. Nil gives each fan-out a private
	// pool of Workers-1 helpers, so that with the caller at most Workers
	// bodies run at once.
	Pool *workpool.Pool
	// Kernels, when non-nil, is the shared compiled-kernel cache the
	// Monte-Carlo tier draws from: every evaluation keys its kernel by
	// canonical topology (collision.TopoKey), so portfolio lanes and
	// repeated jobs reuse compiled kernels instead of recompiling.
	// Compilation is pure — results are bit-identical with and without
	// the cache; like Pool, it never enters a job fingerprint.
	Kernels *collision.KernelCache
	// Maps, when non-nil, is the shared SABRE result cache the
	// performance metrics read through: baseline (1), the winner and,
	// when PerfWeight > 0, every evaluated design, so a topology an
	// earlier lane, job or sweep routed is not routed again. A hit returns
	// exactly what mapper.Map would; like Kernels, it never enters a job
	// fingerprint.
	Maps *mapper.Cache
	// WarmStart optionally seeds the search from a known-good region of
	// the space — typically the best point of a prior exhaustive sweep.
	// Nil starts cold.
	WarmStart *WarmStart
	// Family selects the topology family the search designs for. Nil
	// means the paper's square lattice. Families without multi-qubit bus
	// sites (chimera, coupler) restrict the move set to aux jumps and
	// frequency re-seeds automatically.
	Family topology.Family
	// Checkpoint, when non-nil, makes the run resumable: Save receives a
	// Checkpoint at every Every units (single lane) or exchange barrier
	// (portfolio), and Resume restores a prior one. Resuming produces a
	// Result bit-identical to the uninterrupted run. Like Pool, it never
	// enters a job fingerprint.
	Checkpoint *CheckpointOptions

	// rngSeed, when non-zero, overrides Seed for the annealing control
	// RNG only — the problem layouts, frequency seeds and Monte-Carlo
	// noise still derive from Seed. RunPortfolio uses it to diversify
	// lane trajectories while every lane scores designs under the same
	// simulated fabrications (common random numbers), which is what
	// makes elites comparable — and transferable — across lanes.
	rngSeed int64
	// fullEval scores every promotion with the one-shot batch estimator
	// instead of the trial-survivor incremental one. Results are
	// bit-identical either way (the incremental estimator's contract);
	// the switch is the reference side of the search-level differential
	// test.
	fullEval bool
}

// controlSeed is the seed of the annealing control RNG.
func (o Options) controlSeed() int64 {
	if o.rngSeed != 0 {
		return o.rngSeed
	}
	return o.Seed
}

// WarmStart names the design-space region a search should start from:
// an auxiliary-qubit layout variant and a bus-square budget. The warm
// seed state is built greedily (the analytically best eligible square is
// added Buses times onto the Algorithm 3 assignment) and joins the
// standard seed states at the front, so annealing starts from it and
// beam search keeps it in the initial frontier. A stale hint cannot
// remove the cold seeds — it only adds a starting point.
type WarmStart struct {
	// Aux selects the layout variant; it must be one of Options.AuxCounts
	// or the hint is ignored.
	Aux int `json:"aux"`
	// Buses is the 4-qubit bus-square budget of the seed; clamped to
	// Options.MaxBuses and to the squares actually eligible.
	Buses int `json:"buses"`
}

// DefaultOptions returns a configuration suitable for the paper's
// benchmark scale.
func DefaultOptions() Options {
	return Options{
		Strategy:  Anneal,
		Seed:      1,
		Sigma:     yield.DefaultSigma,
		Trials:    yield.DefaultTrials,
		AuxCounts: []int{0},
		MaxBuses:  -1,
		Steps:     400,
		Proposals: 8,
		T0:        0.5,
		Tend:      0.01,
		BeamWidth: 8,
		Depth:     12,
		Mapper:    mapper.DefaultOptions(),
		Params:    collision.DefaultParams(),
		Parallel:  true,
	}
}

// Validate rejects option combinations the engine cannot honour.
func (o Options) Validate() error {
	if _, err := ParseStrategy(string(o.Strategy)); err != nil {
		return err
	}
	if o.Sigma <= 0 {
		return fmt.Errorf("search: Sigma must be positive, got %g", o.Sigma)
	}
	if o.Trials <= 0 {
		return fmt.Errorf("search: Trials must be positive, got %d", o.Trials)
	}
	if len(o.AuxCounts) == 0 {
		return fmt.Errorf("search: AuxCounts must name at least one layout variant")
	}
	for _, a := range o.AuxCounts {
		if a < 0 {
			return fmt.Errorf("search: negative aux count %d", a)
		}
	}
	if o.Strategy == Anneal && (o.Steps <= 0 || o.Proposals <= 0) {
		return fmt.Errorf("search: annealing needs positive Steps and Proposals, got %d/%d", o.Steps, o.Proposals)
	}
	if o.Strategy == Anneal && (o.T0 <= 0 || o.Tend <= 0) {
		return fmt.Errorf("search: annealing needs positive temperatures, got T0=%g Tend=%g", o.T0, o.Tend)
	}
	if o.Strategy == Beam && (o.BeamWidth <= 0 || o.Depth <= 0) {
		return fmt.Errorf("search: beam search needs positive BeamWidth and Depth, got %d/%d", o.BeamWidth, o.Depth)
	}
	if o.PerfWeight < 0 {
		return fmt.Errorf("search: PerfWeight must be >= 0, got %g", o.PerfWeight)
	}
	if o.Workers < 0 {
		return fmt.Errorf("search: Workers must be >= 0, got %d", o.Workers)
	}
	if o.WarmStart != nil && (o.WarmStart.Aux < 0 || o.WarmStart.Buses < 0) {
		return fmt.Errorf("search: WarmStart must be non-negative, got aux=%d buses=%d",
			o.WarmStart.Aux, o.WarmStart.Buses)
	}
	return nil
}

// units returns the run's budget in search units: annealing steps or
// beam depths.
func (o Options) units() int {
	if o.Strategy == Beam {
		return o.Depth
	}
	return o.Steps
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1) over the shared pool when one is attached, or
// a private pool of Workers-1 helpers (with the caller, at most Workers
// bodies at once), when the options ask for parallelism; inline
// otherwise. fn must write its outcome by index so the result is
// independent of scheduling. A panicking body reaches the caller as a
// *workpool.PanicError. A cancelled ctx stops index dispatch — in-flight
// bodies finish, the rest are skipped — and the caller is expected to
// notice ctx.Err() and discard the partial batch; a live ctx leaves the
// run bit-identical to an uncancelled one.
func (o Options) forEach(ctx context.Context, n int, fn func(int)) {
	var pool *workpool.Pool // nil runs every index inline
	if o.Parallel && o.workers() >= 2 {
		pool = o.Pool
		if pool == nil {
			pool = workpool.New(o.workers() - 1)
		}
	}
	_ = pool.ForEachCtx(ctx, n, fn)
}

// Progress is delivered to the optional progress callback once per
// annealing step or beam depth.
type Progress struct {
	// Step counts annealing steps or beam depths, 1-based; Total is the
	// configured maximum.
	Step, Total int
	// Evals is the number of full Monte-Carlo evaluations spent so far.
	Evals int
	// BestYield and BestExpected describe the incumbent.
	BestYield    float64
	BestExpected float64
	// CondChecks counts the condition-bundle-per-trial evaluations the
	// Monte-Carlo tier has performed; CondSkipped counts the ones the
	// trial-survivor incremental estimator avoided relative to
	// from-scratch evaluation. Both are cumulative over the run.
	CondChecks  uint64
	CondSkipped uint64
	// LanesLive and LanesDone describe a portfolio run's lanes: still
	// advancing vs out of budget. Both zero on single-lane runs.
	LanesLive, LanesDone int
}

// TracePoint records one improvement of the incumbent.
type TracePoint struct {
	Step     int     `json:"step"`
	Evals    int     `json:"evals"`
	Yield    float64 `json:"yield"`
	Expected float64 `json:"expected"`
}

// Result is the outcome of a search run.
type Result struct {
	Strategy Strategy `json:"strategy"`
	// Best is the winning design: architecture with frequencies, bus
	// squares, aux count, labelled core.ConfigSearch.
	Best *core.Design `json:"-"`
	// Yield is Best's Monte-Carlo yield estimate.
	Yield float64 `json:"yield"`
	// Expected is Best's analytic expected collision count.
	Expected float64 `json:"expected"`
	// Objective is the scalar the search maximised (= Yield when
	// PerfWeight is zero).
	Objective float64 `json:"objective"`
	// GateCount, Swaps and NormPerf come from mapping the program onto
	// Best (NormPerf is gates of IBM baseline (1) over Best's gates).
	GateCount int     `json:"gate_count"`
	Swaps     int     `json:"swaps"`
	NormPerf  float64 `json:"norm_perf"`
	// Evals is the number of full Monte-Carlo design evaluations spent —
	// the currency the guided search saves against an exhaustive sweep.
	Evals int `json:"evals"`
	// Proposals is the number of candidate states constructed and scored
	// by the incremental analytic surrogate.
	Proposals int `json:"proposals"`
	// CondChecks / CondSkipped report the Monte-Carlo tier's
	// condition-bundle evaluations performed and avoided (see Progress).
	CondChecks  uint64 `json:"cond_checks,omitempty"`
	CondSkipped uint64 `json:"cond_skipped,omitempty"`
	// Trace logs every incumbent improvement in order. On a portfolio
	// run it is the winning lane's trace; Lanes carries all of them.
	Trace []TracePoint `json:"trace"`
	// Lanes carries the per-lane outcomes of a portfolio run (nil on
	// single-lane runs): each lane's configuration, incumbent and full
	// trace, the raw material for Pareto-front extraction across lanes.
	Lanes []LaneResult `json:"lanes,omitempty"`
	// Exchanges counts the barriers before the end at which a portfolio
	// run had an incumbent to broadcast; a one-lane portfolio counts them
	// too, though it has no lane to send to. Zero on Run.
	Exchanges int `json:"exchanges,omitempty"`
}

// Run searches the design space of the decomposed program c and returns
// the best design found. cache may be nil; passing a shared
// yield.NoiseCache lets several runs (or a surrounding sweep) reuse the
// common-random-numbers matrices. progress may be nil; it fires once
// per annealing step or beam depth.
//
// Run is a one-lane portfolio whose barriers fall every
// opt.Checkpoint.Every units when it saves checkpoints, and nowhere
// before the end when it does not; its Result carries no Lanes and no
// Exchanges.
//
// ctx is a cooperative cancellation signal: a cancelled run stops within
// one proposal batch (annealing step / beam depth) or Monte-Carlo trial
// chunk, discards all partial state and returns ctx.Err(). A nil or
// never-cancelled ctx leaves the result bit-identical to every prior
// release — cancellation checks never touch the RNG stream or the
// scoring order.
func Run(ctx context.Context, c *circuit.Circuit, opt Options, cache *yield.NoiseCache, progress func(Progress)) (*Result, error) {
	every := opt.units()
	if ck := opt.Checkpoint; ck != nil && ck.Save != nil && ck.Every > 0 {
		every = ck.Every
	}
	res, err := drive(ctx, c, opt, cache, lanePlan{lanes: 1, every: every, laneProgress: progress})
	if err != nil {
		return nil, err
	}
	res.Lanes, res.Exchanges = nil, 0
	return res, nil
}

// finish maps the lane's incumbent, the run's winner, and assembles the
// Result around it. When PerfWeight > 0 the winner was already mapped
// during evaluation. drive sums the run-wide counters over the lanes.
func (c *laneCore) finish() (*Result, error) {
	st := c.best.state
	gates, swaps, normPerf := c.best.gates, c.best.swaps, c.best.normPerf
	if gates == 0 {
		var err error
		gates, swaps, normPerf, err = c.ev.performance(st)
		if err != nil {
			return nil, err
		}
	}
	a := st.Arch.Clone()
	a.Name = fmt.Sprintf("%s/search-%s-%dbus", c.p.circ.Name, c.p.opt.Strategy, len(st.Sites))
	squares := make([]lattice.Square, len(st.Sites))
	copy(squares, st.Sites)
	return &Result{
		Strategy: c.p.opt.Strategy,
		Best: &core.Design{
			Arch:      a,
			Buses:     len(st.Sites),
			Squares:   squares,
			Config:    core.ConfigSearch,
			AuxQubits: st.Aux,
		},
		Yield:     c.best.yield,
		Expected:  st.Expected,
		Objective: c.best.objective,
		GateCount: gates,
		Swaps:     swaps,
		NormPerf:  normPerf,
		Trace:     c.trace,
	}, nil
}

// tempAt returns the geometric annealing temperature for step s of n.
func tempAt(opt Options, s, n int) float64 {
	if n <= 1 {
		return opt.T0
	}
	frac := float64(s) / float64(n-1)
	return opt.T0 * math.Pow(opt.Tend/opt.T0, frac)
}
