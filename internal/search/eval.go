package search

import (
	"fmt"
	"math"

	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/faultinject"
	"qproc/internal/mapper"
	"qproc/internal/yield"
)

// evaluated pairs a state with its full Monte-Carlo evaluation.
type evaluated struct {
	state     *State
	yield     float64
	objective float64
	// gates/swaps are filled only when PerfWeight > 0 (the mapper ran).
	gates, swaps int
	normPerf     float64
}

// evaluator owns the expensive scoring tier: Monte-Carlo yield through a
// yield.Estimator under the common-random-numbers noise cache, plus
// SABRE mapping when performance participates in the objective. All
// methods run on the serial control path of a strategy; the Monte-Carlo
// trials themselves fan out inside the simulator.
type evaluator struct {
	p *Problem
	// sim is the underlying simulator the estimator scores with; Run
	// injects its cancellation context here.
	sim *yield.Simulator
	// est scores assignments: the incremental Monte-Carlo estimator by
	// default — consecutive promotions that only move frequencies, the
	// common case on an annealing trajectory, re-check only the
	// conditions around the moved qubits — or the one-shot batch
	// estimator under fullEval. Both return the same bits for the same
	// assignment, so the evaluator's results do not depend on which
	// promotions happened to share a topology.
	est yield.Estimator
	// baseGates anchors NormPerf: gates of the program on IBM baseline
	// (1). Computed lazily, only when the mapper is needed, as is prog,
	// the program's fingerprint for Options.Maps.
	baseGates int
	prog      *mapper.Program
	evals     int
	// cap, when capSet, overrides Options.MaxEvals as the evaluation
	// budget (portfolio rebudgeting at exchange barriers). Unlike
	// MaxEvals, a cap of zero means frozen, not unlimited.
	cap    int
	capSet bool
	seen   map[string]*evaluated
	// lastEval is the state of the most recent Monte-Carlo evaluation —
	// the assignment the incremental estimator's live trial-survivor
	// state holds. Checkpoints record it so a resume can rebuild that
	// state and keep the incremental fast path (and its statistics)
	// bit-identical to an uninterrupted run.
	lastEval *State
	// canon memoises the canonical topology key (collision.TopoKey) per
	// search-local topology key, so each distinct topology pays the
	// adjacency serialisation once per evaluator instead of once per
	// evaluation.
	canon map[string]string
}

func newEvaluator(p *Problem, cache *yield.NoiseCache) *evaluator {
	// Seed offset mirrors experiments.Runner.simulator, so a search
	// sharing a runner's cache scores designs under the exact noise
	// matrices the exhaustive sweep used.
	sim := yield.New(p.opt.Seed + 7919)
	sim.Sigma = p.opt.Sigma
	sim.Trials = p.opt.Trials
	sim.Params = p.opt.Params
	sim.Parallel = p.opt.Parallel
	sim.Workers = p.opt.Workers
	sim.Pool = p.opt.Pool
	sim.Cache = cache
	sim.Kernels = p.opt.Kernels
	var est yield.Estimator = &yield.IncrementalEstimator{Sim: sim}
	if p.opt.fullEval {
		est = yield.BatchEstimator{Sim: sim}
	}
	return &evaluator{p: p, sim: sim, est: est,
		seen: map[string]*evaluated{}, canon: map[string]string{}}
}

// mcYield scores st's assignment through the evaluator's estimator,
// keyed by canonical topology (collision.TopoKey) so the incremental
// estimator can reuse its trial-survivor state across promotions that
// share a coupling graph — and so the shared kernel cache serves the
// same compiled kernel to every lane and job that visits the topology,
// whatever search-local recipe produced it.
func (ev *evaluator) mcYield(st *State) float64 {
	key, adj := ev.topology(st)
	return ev.est.Estimate(key, adj, st.Freqs())
}

// topology returns st's canonical topology key, memoised in canon, and
// its coupling graph, which st's analytic scorer already holds.
func (ev *evaluator) topology(st *State) (key string, adj [][]int) {
	adj = st.inc.Adj()
	key, ok := ev.canon[st.topoKey]
	if !ok {
		key = collision.TopoKey(adj)
		ev.canon[st.topoKey] = key
	}
	return key, adj
}

// condStats reports the cumulative Monte-Carlo condition-bundle
// evaluations performed and skipped across all trial states so far;
// zeros when the estimator keeps no such state (fullEval).
func (ev *evaluator) condStats() (checked, skipped uint64) {
	if inc, ok := ev.est.(*yield.IncrementalEstimator); ok {
		return inc.Stats()
	}
	return 0, 0
}

// budget reports whether another full evaluation is allowed.
func (ev *evaluator) budget() bool {
	if ev.capSet {
		return ev.evals < ev.cap
	}
	return ev.p.opt.MaxEvals <= 0 || ev.evals < ev.p.opt.MaxEvals
}

// setCap overrides the evaluator's evaluation budget; zero freezes it.
func (ev *evaluator) setCap(n int) { ev.cap, ev.capSet = n, true }

// evaluate runs the full scoring tier on st, memoised by state key. The
// bool is false when the evaluation budget is exhausted (and the state
// was not seen before).
func (ev *evaluator) evaluate(st *State) (*evaluated, bool, error) {
	if e, ok := ev.seen[st.key]; ok {
		return e, true, nil
	}
	if !ev.budget() {
		return nil, false, nil
	}
	if err := faultinject.Check(faultinject.SiteEstimatorEstimate); err != nil {
		return nil, false, err
	}
	ev.evals++
	e := &evaluated{state: st, yield: ev.mcYield(st)}
	ev.lastEval = st
	e.objective = e.yield
	if ev.p.opt.PerfWeight > 0 {
		gates, swaps, normPerf, err := ev.performance(st)
		if err != nil {
			return nil, false, err
		}
		e.gates, e.swaps, e.normPerf = gates, swaps, normPerf
		e.objective = e.yield * math.Pow(normPerf, ev.p.opt.PerfWeight)
	}
	ev.seen[st.key] = e
	return e, true, nil
}

// transplant records another lane's finished evaluation for st in this
// evaluator's memo without spending budget. It is only valid under the
// portfolio's common-random-numbers discipline: every lane's simulator
// derives from the same Seed, so re-evaluating st here would reproduce
// e's numbers exactly — the transplant skips the Monte-Carlo cost, not
// the contract. An existing memo entry (this lane already evaluated or
// adopted the state) is kept.
func (ev *evaluator) transplant(st *State, e *evaluated) {
	if _, ok := ev.seen[st.key]; ok {
		return
	}
	cp := *e
	cp.state = st
	ev.seen[st.key] = &cp
}

// better ranks two evaluations: higher objective wins, ties break to the
// lower analytic score, then to the canonical key (total order, so the
// incumbent is schedule-independent).
func better(a, b *evaluated) bool {
	if b == nil {
		return true
	}
	if a.objective != b.objective {
		return a.objective > b.objective
	}
	if a.state.Expected != b.state.Expected {
		return a.state.Expected < b.state.Expected
	}
	return a.state.key < b.state.key
}

// performance maps the program onto st and returns the paper's metrics,
// reading through Options.Maps.
func (ev *evaluator) performance(st *State) (gates, swaps int, normPerf float64, err error) {
	if ev.prog == nil {
		ev.prog = mapper.NewProgram(ev.p.circ)
	}
	maps, mopt := ev.p.opt.Maps, ev.p.opt.Mapper
	if ev.baseGates == 0 {
		baselines := core.NewFlow(ev.p.opt.Seed).Baselines(ev.p.circ)
		if len(baselines) == 0 {
			return 0, 0, 0, fmt.Errorf("search: %s needs %d qubits, exceeding every baseline",
				ev.p.circ.Name, ev.p.circ.Qubits)
		}
		n, err := maps.Counts(ev.prog, baselines[0].Arch, mopt)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("search: mapping baseline: %w", err)
		}
		ev.baseGates = n.GateCount
	}
	n, err := maps.Counts(ev.prog, st.Arch, mopt)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("search: mapping %s onto %s: %w", ev.p.circ.Name, st.Arch.Name, err)
	}
	return n.GateCount, n.Swaps, float64(ev.baseGates) / float64(n.GateCount), nil
}
