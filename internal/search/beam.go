package search

import (
	"context"
	"sort"
)

// beamLane is deterministic beam search as a resumable lane: the
// frontier starts from the seed states (every aux variant × {Algorithm
// 3, 5-frequency} on the bus-free layout) and at each depth every
// frontier state expands its full deterministic move set — one add per
// eligible square, one remove per selected square, and the per-qubit
// coordinate-descent frequency moves. Candidates are built and scored
// concurrently into index slots, deduplicated by canonical key, merged
// with the frontier, and the best BeamWidth by (analytic score, key)
// survive. Newly surfaced frontier members receive full Monte-Carlo
// evaluations in frontier order while the budget lasts. No RNG
// anywhere, so parallel == serial trivially.
type beamLane struct {
	p        *Problem
	ev       *evaluator
	progress func(Progress)
	frontier []*State
	// inFrontier indexes the frontier by canonical key for dedup.
	inFrontier map[string]bool
	best       *evaluated
	trace      []TracePoint
	depth      int
	// done latches once the frontier stops growing or the evaluation
	// budget runs out; an injected elite that enters the frontier
	// un-latches it.
	done bool
}

// newBeamLane builds the lane at depth 0 and evaluates the initial
// frontier.
func newBeamLane(ctx context.Context, p *Problem, ev *evaluator, progress func(Progress)) (*beamLane, error) {
	seeds, err := p.seedStates()
	if err != nil {
		return nil, err
	}
	frontier := append([]*State(nil), seeds...)
	sortStates(frontier)
	if len(frontier) > p.opt.BeamWidth {
		frontier = frontier[:p.opt.BeamWidth]
	}
	l := &beamLane{p: p, ev: ev, progress: progress,
		frontier: frontier, inFrontier: map[string]bool{}}
	for _, st := range frontier {
		l.inFrontier[st.key] = true
	}
	if err := l.evalFrontier(ctx, 0); err != nil {
		return nil, err
	}
	return l, nil
}

// evalFrontier runs the full scoring tier over the frontier in order
// while the budget lasts, updating the lane incumbent and trace.
func (l *beamLane) evalFrontier(ctx context.Context, depth int) error {
	for _, st := range l.frontier {
		if err := ctx.Err(); err != nil {
			return err
		}
		e, ok, err := l.ev.evaluate(st)
		if err != nil {
			return err
		}
		if !ok {
			return nil // budget exhausted
		}
		if better(e, l.best) {
			l.best = e
			l.trace = append(l.trace, TracePoint{Step: depth, Evals: l.ev.evals, Yield: e.yield, Expected: st.Expected})
		}
	}
	return nil
}

// unit returns the lane's current depth.
func (l *beamLane) unit() int { return l.depth }

// snapshot fills the lane-specific checkpoint fields. Serial control
// path only.
func (l *beamLane) snapshot(lc *LaneCheckpoint) {
	lc.Strategy = Beam
	lc.Done = l.done
	for _, st := range l.frontier {
		lc.Frontier = append(lc.Frontier, recipeOf(st))
	}
	if l.best != nil {
		lc.BestKey = l.best.state.key
	}
	lc.Trace = append([]TracePoint(nil), l.trace...)
}

// finished reports whether the lane has converged or consumed its depth
// budget (an injected elite entering the frontier un-latches done).
func (l *beamLane) finished() bool { return l.done || l.depth >= l.p.opt.Depth }

// incumbent returns the lane's evaluated best (nil before any
// evaluation succeeded).
func (l *beamLane) incumbent() *evaluated { return l.best }

// result returns the lane's incumbent and trace.
func (l *beamLane) result() (*evaluated, []TracePoint) { return l.best, l.trace }

// advance expands the frontier depth by depth up to (but not past) the
// barrier until, clamped to the lane's own Depth budget; it stops early
// once the frontier converges or the evaluation budget is spent. A
// cancelled ctx aborts at the next depth boundary (and mid-expansion
// via forEach / mid-evaluation via the simulator), returning ctx.Err()
// with all partial state discarded.
func (l *beamLane) advance(ctx context.Context, until int) error {
	opt := l.p.opt
	if until > opt.Depth {
		until = opt.Depth
	}
	for l.depth < until && !l.done {
		l.depth++
		depth := l.depth
		if err := ctx.Err(); err != nil {
			return err
		}
		// Stage 1: every frontier member derives its move list. Each
		// member is handled by exactly one worker (bestReseeds probes the
		// member's own incremental scorer).
		moveLists := make([][]move, len(l.frontier))
		opt.forEach(ctx, len(l.frontier), func(i int) {
			st := l.frontier[i]
			var ms []move
			for _, s := range l.p.addCandidates(st) {
				ms = append(ms, move{kind: moveAddBus, site: s})
			}
			for _, s := range st.Sites {
				ms = append(ms, move{kind: moveRemoveBus, old: s})
			}
			ms = append(ms, l.p.bestReseeds(st)...)
			moveLists[i] = ms
		})

		// Stage 2: flatten in frontier order and build concurrently.
		type job struct {
			origin *State
			m      move
		}
		var jobs []job
		for i, ms := range moveLists {
			for _, m := range ms {
				jobs = append(jobs, job{l.frontier[i], m})
			}
		}
		states := make([]*State, len(jobs))
		opt.forEach(ctx, len(jobs), func(i int) {
			st, err := l.p.apply(jobs[i].origin, jobs[i].m)
			if err == nil {
				states[i] = st
			}
		})
		if err := ctx.Err(); err != nil {
			return err // partial expansion: discard, don't merge it
		}
		l.p.proposals += len(jobs)

		// Merge: dedup by key in deterministic job order, then keep the
		// best BeamWidth of frontier ∪ candidates.
		pool := append([]*State(nil), l.frontier...)
		seen := map[string]bool{}
		for k := range l.inFrontier {
			seen[k] = true
		}
		grew := false
		for _, st := range states {
			if st == nil || seen[st.key] {
				continue
			}
			seen[st.key] = true
			pool = append(pool, st)
		}
		sortStates(pool)
		if len(pool) > opt.BeamWidth {
			pool = pool[:opt.BeamWidth]
		}
		l.inFrontier = map[string]bool{}
		for _, st := range pool {
			if !containsKey(l.frontier, st.key) {
				grew = true
			}
			l.inFrontier[st.key] = true
		}
		l.frontier = pool
		if err := l.evalFrontier(ctx, depth); err != nil {
			return err
		}
		if l.progress != nil {
			pr := Progress{Step: depth, Total: opt.Depth, Evals: l.ev.evals}
			pr.CondChecks, pr.CondSkipped = l.ev.condStats()
			if l.best != nil {
				pr.BestYield = l.best.yield
				pr.BestExpected = l.best.state.Expected
			}
			l.progress(pr)
		}
		if !grew || !l.ev.budget() {
			l.done = true // frontier converged, or nothing left to spend
		}
	}
	return nil
}

// inject offers the lane an elite state found elsewhere (the portfolio
// exchange). The state is re-materialised inside this lane's problem,
// its evaluation transplanted into the lane's memo (valid under the
// portfolio's common-random-numbers discipline), and merged into the
// frontier under the usual (analytic score, key) order; entering the
// frontier un-latches a converged lane so the next advance expands
// around it. Runs on the portfolio's serial control path only.
func (l *beamLane) inject(e *evaluated) error {
	st, err := l.p.adoptState(e.state)
	if err != nil {
		return err
	}
	l.ev.transplant(st, e)
	if adopted, ok := l.ev.seen[st.key]; ok && better(adopted, l.best) {
		l.best = adopted
		l.trace = append(l.trace, TracePoint{Step: l.depth, Evals: l.ev.evals, Yield: adopted.yield, Expected: st.Expected})
	}
	if l.inFrontier[st.key] {
		return nil
	}
	pool := append(append([]*State(nil), l.frontier...), st)
	sortStates(pool)
	if len(pool) > l.p.opt.BeamWidth {
		pool = pool[:l.p.opt.BeamWidth]
	}
	l.inFrontier = map[string]bool{}
	entered := false
	for _, fst := range pool {
		l.inFrontier[fst.key] = true
		if fst.key == st.key {
			entered = true
		}
	}
	l.frontier = pool
	if entered {
		l.done = false
	}
	return nil
}

// sortStates orders by (analytic score ascending, key) — a total order.
func sortStates(sts []*State) {
	sort.Slice(sts, func(i, j int) bool {
		if sts[i].Expected != sts[j].Expected {
			return sts[i].Expected < sts[j].Expected
		}
		return sts[i].key < sts[j].key
	})
}

func containsKey(sts []*State, key string) bool {
	for _, st := range sts {
		if st.key == key {
			return true
		}
	}
	return false
}
