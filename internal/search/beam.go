package search

import (
	"context"
	"fmt"
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
	*laneCore
	frontier []*State
	// done latches once the frontier stops growing or the evaluation
	// budget runs out; an injected elite that enters the frontier
	// un-latches it.
	done bool
}

// newBeamLane builds the lane at depth 0 and evaluates the initial
// frontier. Given a checkpoint, whose core is already restored, it
// instead rebuilds the frontier in its saved (already sorted) order and
// the convergence latch. evalFrontier is NOT re-run then: the checkpoint
// was taken after it, and re-running would double-spend budget on any
// member it had to skip.
func newBeamLane(ctx context.Context, c *laneCore, lc *LaneCheckpoint) (*beamLane, error) {
	l := &beamLane{laneCore: c}
	if lc == nil {
		seeds, err := c.p.seedStates()
		if err != nil {
			return nil, err
		}
		l.merge(seeds)
		if err := l.evalFrontier(ctx); err != nil {
			return nil, err
		}
		return l, nil
	}
	if lc.Strategy != Beam {
		return nil, fmt.Errorf("%w: lane is not a resumable beam lane", ErrBadCheckpoint)
	}
	for _, r := range lc.Frontier {
		st, err := c.p.stateFromRecipe(r)
		if err != nil {
			return nil, fmt.Errorf("%w: frontier state: %v", ErrBadCheckpoint, err)
		}
		l.frontier = append(l.frontier, st)
	}
	l.done = lc.Done
	return l, nil
}

// evalFrontier runs the full scoring tier over the frontier in order
// while the budget lasts.
func (l *beamLane) evalFrontier(ctx context.Context) error {
	for _, st := range l.frontier {
		if err := ctx.Err(); err != nil {
			return err
		}
		if ok, err := l.probe(st); !ok || err != nil {
			return err
		}
	}
	return nil
}

// merge makes the best BeamWidth states of the frontier and cands, by
// (analytic score, key), the new frontier. A nil candidate, or one whose
// key is already pooled, is skipped, so the first of equal states wins.
// It reports whether a state outside the old frontier entered.
func (l *beamLane) merge(cands []*State) (grew bool) {
	pool := append([]*State(nil), l.frontier...)
	// inOld maps each pooled key to whether the old frontier holds it.
	inOld := make(map[string]bool, len(pool)+len(cands))
	for _, st := range pool {
		inOld[st.key] = true
	}
	for _, st := range cands {
		if st == nil {
			continue
		}
		if _, dup := inOld[st.key]; !dup {
			inOld[st.key] = false
			pool = append(pool, st)
		}
	}
	sortStates(pool)
	if len(pool) > l.p.opt.BeamWidth {
		pool = pool[:l.p.opt.BeamWidth]
	}
	for _, st := range pool {
		grew = grew || !inOld[st.key]
	}
	l.frontier = pool
	return grew
}

// snapshot fills the lane-specific checkpoint fields. Serial control
// path only.
func (l *beamLane) snapshot(lc *LaneCheckpoint) {
	lc.Strategy = Beam
	lc.Done = l.done
	for _, st := range l.frontier {
		lc.Frontier = append(lc.Frontier, recipeOf(st))
	}
}

// finished reports whether the lane has converged or consumed its depth
// budget (an injected elite entering the frontier un-latches done).
func (l *beamLane) finished() bool { return l.done || l.unit >= l.p.opt.Depth }

// advance expands the frontier depth by depth up to (but not past) the
// barrier until; it stops early once the frontier converges or the
// evaluation budget is spent. A cancelled ctx aborts at the next depth
// boundary (and mid-expansion via forEach / mid-evaluation via the
// simulator), returning ctx.Err() with all partial state discarded.
func (l *beamLane) advance(ctx context.Context, until int) error {
	opt := l.p.opt
	for l.unit < until && !l.done {
		l.unit++
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

		// Merge in deterministic job order.
		grew := l.merge(states)
		if err := l.evalFrontier(ctx); err != nil {
			return err
		}
		l.report()
		if !grew || !l.ev.budget() {
			l.done = true // frontier converged, or nothing left to spend
		}
	}
	return nil
}

// inject offers the lane an elite state found elsewhere. The adopted
// state is merged into the frontier under the usual (analytic score,
// key) order; entering it un-latches a converged lane so the next
// advance expands around it. Runs on the portfolio's serial control path
// only.
func (l *beamLane) inject(e *evaluated) error {
	st, err := l.adopt(e)
	if err != nil {
		return err
	}
	if l.merge([]*State{st}) {
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
