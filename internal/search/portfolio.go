package search

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"qproc/internal/circuit"
	"qproc/internal/yield"
)

// DefaultLanes is the portfolio lane count when the options leave it
// unset.
const DefaultLanes = 4

// MaxLanes bounds the portfolio lane count. Every lane owns an
// evaluator and its per-lane state, so the cost of a run grows with its
// lanes; with the default temperatures, every even anneal lane from
// 12 on already runs the same clamped schedule, T0 = Tend.
const MaxLanes = 64

// PortfolioOptions configures RunPortfolio on top of a base Options.
type PortfolioOptions struct {
	// Lanes is the number of concurrent search lanes; <= 0 means
	// DefaultLanes. Lane 0 always runs the base configuration; further
	// lanes diversify the control-RNG seed, the annealing temperature
	// ladder, and (when the base options carry valid knobs for it) the
	// other strategy.
	Lanes int `json:"lanes"`
	// ExchangeEvery is the number of steps (anneal) / depths (beam)
	// between elite-exchange barriers; <= 0 derives a quarter of the
	// longest lane's budget. Exchange happens on the serial control
	// path in lane order, so parallel and serial portfolio runs are
	// bit-identical.
	ExchangeEvery int `json:"exchange_every"`
	// Counters, when non-nil, receives live/done lane transitions for
	// stats endpoints; it never influences the run.
	Counters *LaneCounters `json:"-"`
}

// LaneCounters aggregates portfolio lane lifecycle transitions across
// every run that shares it (a runner passes one to all its portfolio
// jobs). Safe for concurrent use.
type LaneCounters struct {
	live atomic.Int64
	done atomic.Int64
}

// Snapshot returns the lanes currently advancing and the lanes that
// have exhausted their budget (cumulative).
func (c *LaneCounters) Snapshot() (live, done int64) {
	return c.live.Load(), c.done.Load()
}

// LaneResult is one lane's outcome inside a portfolio Result: its
// configuration axes, its evaluated incumbent and its full trace — the
// raw material for extracting a yield/performance Pareto front across
// lanes.
type LaneResult struct {
	Lane     int      `json:"lane"`
	Strategy Strategy `json:"strategy"`
	// Seed is the lane's control-RNG seed (annealing only draws from
	// it; beam lanes record it for completeness).
	Seed int64 `json:"seed"`
	// T0/Tend are the lane's annealing temperatures (zero on beam lanes).
	T0   float64 `json:"t0,omitempty"`
	Tend float64 `json:"tend,omitempty"`
	// Yield, Expected and Objective describe the lane's evaluated
	// incumbent.
	Yield     float64 `json:"yield"`
	Expected  float64 `json:"expected"`
	Objective float64 `json:"objective"`
	// Evals / Proposals are the lane's own spend.
	Evals     int `json:"evals"`
	Proposals int `json:"proposals"`
	// Trace logs the lane's incumbent improvements (including adopted
	// elites at exchange barriers).
	Trace []TracePoint `json:"trace"`
}

// lane is the resumable per-strategy search loop the driver advances:
// advance runs to a barrier, inject offers it the global elite, and
// finished reports budget exhaustion. Implemented by annealLane and
// beamLane.
type lane interface {
	advance(ctx context.Context, until int) error
	inject(e *evaluated) error
	incumbent() *evaluated
	result() (*evaluated, []TracePoint)
	// unit is the lane's current position in units (steps / depths).
	unit() int
	finished() bool
	// snapshot fills the lane-specific fields of a checkpoint. Serial
	// control path only.
	snapshot(*LaneCheckpoint)
}

// strategyReady reports whether the options carry valid knobs to run
// strategy s as a portfolio lane.
func strategyReady(o Options, s Strategy) bool {
	switch s {
	case Anneal:
		return o.Steps > 0 && o.Proposals > 0 && o.T0 > 0 && o.Tend > 0
	case Beam:
		return o.BeamWidth > 0 && o.Depth > 0
	}
	return false
}

// laneBudget splits the portfolio's total Monte-Carlo evaluation budget
// across n lanes: floor share, remainder to the earliest lanes, and at
// least one evaluation per lane (every lane must be able to score its
// seed). total <= 0 stays unlimited for every lane.
func laneBudget(total, i, n int) int {
	if total <= 0 || n <= 1 {
		return total
	}
	share := total / n
	if i < total%n {
		share++
	}
	if share < 1 {
		share = 1
	}
	return share
}

// rebudget reallocates the portfolio's unspent Monte-Carlo budget at an
// exchange barrier: each lane's cap becomes its spend so far plus a fair
// share (remainder to the earliest lanes) of whatever the whole
// portfolio has left. A lane that under-uses its initial split — its
// promotion threshold self-limits, or memo pre-seeding made its seed
// free — releases the slack to lanes still promoting, while the sum of
// caps never exceeds the original budget. Runs on the serial control
// path, so parallel and serial runs stay bit-identical.
func rebudget(lanes []*laneRun, total int) {
	if total <= 0 {
		return
	}
	spent := 0
	for _, lr := range lanes {
		spent += lr.ev.evals
	}
	remaining := total - spent
	if remaining < 0 {
		remaining = 0
	}
	n := len(lanes)
	share, extra := remaining/n, remaining%n
	for i, lr := range lanes {
		add := share
		if i < extra {
			add++
		}
		lr.ev.setCap(lr.ev.evals + add)
	}
}

// laneOptions derives lane i's configuration from the base options.
// Lane 0 is the base configuration itself (same control seed, same
// temperatures) so a portfolio generalises — never regresses — the
// single-lane run it wraps, apart from the budget split and adopted
// elites. Later lanes diversify deterministically: distinct control-RNG
// seeds, an alternating hotter/colder temperature ladder, and lane 1
// runs the other strategy when the base options carry valid knobs for
// it (mixed-strategy portfolio).
func laneOptions(base Options, i, n int) Options {
	o := base
	o.MaxEvals = laneBudget(base.MaxEvals, i, n)
	if i == 0 {
		return o
	}
	o.rngSeed = base.Seed + int64(i)*1_000_003
	other := Beam
	if base.Strategy == Beam {
		other = Anneal
	}
	if i == 1 && n >= 3 && strategyReady(base, other) {
		o.Strategy = other
		return o
	}
	if o.Strategy == Anneal {
		// Alternating temperature ladder: ×2, ×1/2, ×4, ×1/4, … around
		// the base schedule; the floor keeps the schedule monotone.
		k := (i + 1) / 2
		f := math.Pow(2, float64(k))
		if i%2 == 0 {
			f = 1 / f
		}
		o.T0 = base.T0 * f
		if o.T0 < o.Tend {
			o.T0 = o.Tend
		}
	}
	return o
}

// laneRun couples a lane with its view of the problem and the evaluator
// it owns.
type laneRun struct {
	opt      Options
	p        *Problem
	ev       *evaluator
	ln       lane
	finished bool
}

// newLaneRun builds lane i of n over the run's shared space: the lane's
// options, its problem view (its own proposal counter) and evaluator,
// then the strategy lane itself — restored from resume when one is
// given, else fresh, with its memo pre-seeded from preSeed. Restoring
// never re-runs seed promotion or frontier evaluation, so no budget is
// re-spent; pre-seeding hands over evaluations that, under common random
// numbers, this lane would reproduce bit for bit.
func newLaneRun(ctx context.Context, sp *space, base Options, i, n int, cache *yield.NoiseCache,
	progress func(Progress), preSeed map[string]*evaluated, resume *Checkpoint) (*laneRun, error) {
	lopt := laneOptions(base, i, n)
	if err := lopt.Validate(); err != nil {
		return nil, err
	}
	p := sp.problem(lopt)
	ev := newEvaluator(p, cache)
	// The Monte-Carlo tier inherits the signal, so a cancel lands within
	// one trial chunk even mid-evaluation.
	ev.sim.Ctx = ctx
	lr := &laneRun{opt: lopt, p: p, ev: ev}
	var err error
	if resume != nil {
		lc := &resume.Lanes[i]
		if err := ev.restoreMemo(resume.Memo); err != nil {
			return nil, err
		}
		if err := ev.warm(lc); err != nil {
			return nil, err
		}
		p.proposals = lc.Proposals
		if lopt.Strategy == Beam {
			lr.ln, err = resumeBeamLane(p, ev, progress, lc)
		} else {
			lr.ln, err = resumeAnnealLane(p, ev, progress, lc)
		}
	} else {
		for k, e := range preSeed {
			cp := *e
			ev.seen[k] = &cp
		}
		if lopt.Strategy == Beam {
			lr.ln, err = newBeamLane(ctx, p, ev, progress)
		} else {
			lr.ln, err = newAnnealLane(p, ev, progress)
		}
	}
	if err != nil {
		return nil, err
	}
	return lr, nil
}

// lanePlan is all that tells Run and RunPortfolio apart: how many lanes
// the driver builds, where their barriers fall, and who reports
// progress.
type lanePlan struct {
	lanes int
	// every is the barrier cadence in units; <= 0 derives a quarter of
	// the longest lane's budget.
	every int
	// laneProgress receives every unit's progress from the lanes
	// themselves, so it suits one lane only: per-unit events from
	// concurrent lanes would interleave non-deterministically. merged
	// receives run-wide progress at every barrier instead.
	laneProgress, merged func(Progress)
	counters             *LaneCounters
}

// RunPortfolio searches the design space of the decomposed program c
// with pf.Lanes deterministic lanes advancing concurrently on the
// shared worker pool, exchanging elites at fixed step barriers. Every
// lane is a self-contained search loop — its own options, proposal
// counter, evaluator and estimator over the run's one set of base
// layouts, seed allocations and analytic memo — and all lanes score
// under the same Monte-Carlo noise matrices (common random numbers, the
// same Seed-derived simulator as Run), which is what makes incumbents
// comparable across lanes and lets an exchanged elite carry its
// evaluation along instead of being re-scored. At each barrier the best lane incumbent (lane-order
// tie-break on the better total order) is broadcast: receiving lanes
// re-materialise it locally and adopt it only when it strictly improves
// their position, so lane diversity survives ties. Exchange runs on the
// serial control path in lane order — parallel and serial portfolio
// runs return bit-identical results.
//
// The merged Result is the winning lane's design with run-wide totals
// (evals, proposals, condition statistics) and per-lane traces in
// Result.Lanes for Pareto extraction. cache follows Run's contract;
// progress receives merged progress at every barrier. opt.Kernels (when
// set) is shared by every lane, so a topology compiled in one lane is
// served from cache in all others. More than MaxLanes lanes is an
// error.
func RunPortfolio(ctx context.Context, c *circuit.Circuit, opt Options, pf PortfolioOptions, cache *yield.NoiseCache, progress func(Progress)) (*Result, error) {
	n := pf.Lanes
	if n <= 0 {
		n = DefaultLanes
	}
	if n > MaxLanes {
		return nil, fmt.Errorf("search: %d lanes exceed the maximum of %d", n, MaxLanes)
	}
	return drive(ctx, c, opt, cache, lanePlan{lanes: n, every: pf.ExchangeEvery, merged: progress, counters: pf.Counters})
}

// drive is the one search loop behind Run and RunPortfolio. It builds
// pl.lanes lanes (or restores them from opt.Checkpoint.Resume), advances
// them together from barrier to barrier, and at each barrier before the
// end exchanges the global elite, merges the lanes' memos, rebudgets and
// checkpoints. With one lane the exchange, merge and rebudget change
// nothing: there is no other lane to receive, and the single cap equals
// the budget.
func drive(ctx context.Context, c *circuit.Circuit, opt Options, cache *yield.NoiseCache, pl lanePlan) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := pl.lanes
	ck := opt.Checkpoint
	var resume *Checkpoint
	if ck != nil && ck.Resume != nil {
		resume = ck.Resume
		if len(resume.Lanes) != n {
			return nil, fmt.Errorf("%w: %d lanes, want %d", ErrBadCheckpoint, len(resume.Lanes), n)
		}
		if resume.Strategy != opt.Strategy {
			return nil, fmt.Errorf("%w: strategy %s, want %s", ErrBadCheckpoint, resume.Strategy, opt.Strategy)
		}
	}

	// One problem space per run: every lane, fresh or resumed, shares
	// the base layouts, seed allocations and analytic memo.
	sp, err := newSpace(c, opt)
	if err != nil {
		return nil, err
	}
	lanes := make([]*laneRun, n)
	errs := make([]error, n)
	build := func(i int, preSeed map[string]*evaluated) {
		lanes[i], errs[i] = newLaneRun(ctx, sp, opt, i, n, cache, pl.laneProgress, preSeed, resume)
	}
	if resume != nil {
		// Restored lanes are independent: all n fan out concurrently.
		opt.forEach(ctx, n, func(i int) { build(i, nil) })
	} else {
		// Lane 0 builds first so its seed evaluations can pre-seed every
		// other lane: every lane starts from the same seed states (same
		// Problem seed), so duplicate seeds across lanes stop costing
		// Monte-Carlo budget. The rest fan out concurrently (independent
		// per lane, landing by index).
		build(0, nil)
		if errs[0] != nil {
			return nil, errs[0]
		}
		opt.forEach(ctx, n-1, func(j int) { build(j+1, lanes[0].ev.seen) })
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if pl.counters != nil {
		pl.counters.live.Add(int64(n))
		defer func() {
			for _, lr := range lanes {
				if !lr.finished {
					pl.counters.live.Add(-1)
				}
			}
		}()
	}
	markFinished := func() {
		for _, lr := range lanes {
			if !lr.finished && lr.ln.finished() {
				lr.finished = true
				if pl.counters != nil {
					pl.counters.live.Add(-1)
					pl.counters.done.Add(1)
				}
			}
		}
	}

	// globalBest scans lane incumbents in lane order; better's total
	// order is strict, so ties keep the earliest (seed-ordered) lane.
	globalBest := func() (*evaluated, int) {
		var best *evaluated
		idx := -1
		for i, lr := range lanes {
			if e := lr.ln.incumbent(); e != nil && better(e, best) {
				best, idx = e, i
			}
		}
		return best, idx
	}

	units := 0
	for _, lr := range lanes {
		if u := lr.opt.units(); u > units {
			units = u
		}
	}
	ex := pl.every
	if ex <= 0 {
		ex = (units + 3) / 4
	}

	exchanges := 0
	startUnit := 0
	if resume != nil {
		// A checkpoint is only ever taken at a crossed barrier strictly
		// before the end. Several lanes exchange at multiples of the
		// cadence, so their resume point must divide it; a single lane
		// has no exchange points, and its barriers fall every ex units
		// from wherever it resumes.
		if resume.Unit < 0 || resume.Unit >= units || (n > 1 && resume.Unit%ex != 0) {
			return nil, fmt.Errorf("%w: barrier %d does not align with exchange cadence %d over %d units",
				ErrBadCheckpoint, resume.Unit, ex, units)
		}
		startUnit = resume.Unit
		exchanges = resume.Exchanges
	}
	for start := startUnit; start < units; start += ex {
		until := start + ex
		if until > units {
			until = units
		}
		opt.forEach(ctx, n, func(i int) {
			errs[i] = lanes[i].ln.advance(ctx, until)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		markFinished()
		if until < units {
			// Elite exchange on the serial control path, lane order.
			if elite, ei := globalBest(); elite != nil {
				for j, lr := range lanes {
					if j == ei {
						continue
					}
					if err := lr.ln.inject(elite); err != nil {
						return nil, err
					}
				}
				exchanges++
			}
			// Memo merge: every evaluation any lane has paid for becomes a
			// free memo hit in all others — lanes score under common random
			// numbers, so re-evaluating would reproduce the same bits. Which
			// lane's copy seeds the union is immaterial for the same reason:
			// all copies of a key carry identical values.
			merged := make(map[string]*evaluated, len(lanes[0].ev.seen))
			for _, lr := range lanes {
				for k, e := range lr.ev.seen {
					if _, ok := merged[k]; !ok {
						merged[k] = e
					}
				}
			}
			for _, lr := range lanes {
				for k, e := range merged {
					if _, ok := lr.ev.seen[k]; !ok {
						cp := *e
						lr.ev.seen[k] = &cp
					}
				}
			}
			rebudget(lanes, opt.MaxEvals)
			// Checkpoint after the merge and rebudget: every lane's memo
			// is the shared union and every cap is final, so this barrier
			// is an exact resume point. Once every lane is out of work,
			// later barriers would only save copies of the same state.
			if ck != nil && ck.Save != nil && !allFinished(lanes) {
				ck.Save(checkpointAt(opt.Strategy, lanes, until, exchanges))
			}
		}
		if pl.merged != nil {
			pr := Progress{Step: until, Total: units}
			for _, lr := range lanes {
				pr.Evals += lr.ev.evals
				ch, sk := lr.ev.condStats()
				pr.CondChecks += ch
				pr.CondSkipped += sk
				if lr.finished {
					pr.LanesDone++
				} else {
					pr.LanesLive++
				}
			}
			if best, _ := globalBest(); best != nil {
				pr.BestYield = best.yield
				pr.BestExpected = best.state.Expected
			}
			pl.merged(pr)
		}
	}

	best, bi := globalBest()
	if best == nil {
		return nil, fmt.Errorf("search: no design evaluated (MaxEvals=%d)", opt.MaxEvals)
	}
	win := lanes[bi]
	_, winTrace := win.ln.result()
	res, err := win.p.finish(win.ev, best, winTrace)
	if err != nil {
		return nil, err
	}
	res.Evals, res.Proposals = 0, 0
	res.CondChecks, res.CondSkipped = 0, 0
	res.Lanes = make([]LaneResult, n)
	for i, lr := range lanes {
		e, tr := lr.ln.result()
		res.Evals += lr.ev.evals
		res.Proposals += lr.p.proposals
		ch, sk := lr.ev.condStats()
		res.CondChecks += ch
		res.CondSkipped += sk
		lres := LaneResult{
			Lane:      i,
			Strategy:  lr.opt.Strategy,
			Seed:      lr.opt.controlSeed(),
			Evals:     lr.ev.evals,
			Proposals: lr.p.proposals,
			Trace:     tr,
		}
		if lr.opt.Strategy == Anneal {
			lres.T0, lres.Tend = lr.opt.T0, lr.opt.Tend
		}
		if e != nil {
			lres.Yield = e.yield
			lres.Expected = e.state.Expected
			lres.Objective = e.objective
		}
		res.Lanes[i] = lres
	}
	res.Exchanges = exchanges
	return res, nil
}

// allFinished reports whether no lane has work left.
func allFinished(lanes []*laneRun) bool {
	for _, lr := range lanes {
		if !lr.ln.finished() {
			return false
		}
	}
	return true
}
