package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// annealLane is batch-proposal simulated annealing as a resumable lane:
// newAnnealLane seeds it and advance runs it forward to a step barrier,
// so a single run drives it to Steps in one call while a portfolio
// interleaves segments of several lanes with elite exchanges between.
// Each step draws Proposals neighbour moves from the serial RNG,
// constructs and scores the candidate states concurrently (pure
// functions into index slots), then applies one Metropolis accept/reject
// to the best candidate by analytic score. States whose analytic score
// beats everything evaluated so far are promoted to a full Monte-Carlo
// evaluation. Every random draw happens on the lane's serial control
// path, so parallel and serial runs are bit-identical.
type annealLane struct {
	*laneCore
	// src is the control RNG's counting source: rng draws flow through
	// it, so a checkpoint can record the stream position and a resume
	// can replay to it.
	src *countingSource
	rng *rand.Rand
	cur *State
	// bestExpected is the internal promotion threshold: only states that
	// analytically beat everything evaluated so far receive a full
	// Monte-Carlo evaluation.
	bestExpected float64
}

// maxMoveDraws bounds, with generous slack, the control draws of one
// move, a step's Metropolis uniform counted as one more: randomMove
// makes at most five, and Intn's rejection sampling rarely adds one.
const maxMoveDraws = 64

// newAnnealLane builds the lane at step 0 and promotes its seed state
// (the warm-start seed when configured, else aux = AuxCounts[0] with
// Algorithm 3 frequencies). Given a checkpoint, whose core is already
// restored, it instead replays the control RNG to the recorded draw
// count and rebuilds the current position and the threshold.
func newAnnealLane(c *laneCore, lc *LaneCheckpoint) (*annealLane, error) {
	src := newCountingSource(c.p.opt.controlSeed())
	l := &annealLane{laneCore: c, src: src, rng: rand.New(src), bestExpected: math.Inf(1)}
	if lc == nil {
		seeds, err := c.p.seedStates()
		if err != nil {
			return nil, err
		}
		l.cur = seeds[0]
		if err := l.promote(l.cur); err != nil {
			return nil, err
		}
		return l, nil
	}
	if lc.Strategy != Anneal || lc.Cur == nil {
		return nil, fmt.Errorf("%w: lane is not a resumable anneal lane", ErrBadCheckpoint)
	}
	// Replaying costs one Int63 per recorded draw, so a count no run of
	// lc.Unit steps could reach is rejected before it is replayed.
	if float64(lc.RNGDraws) > float64(lc.Unit)*(float64(c.p.opt.Proposals)+1)*maxMoveDraws {
		return nil, fmt.Errorf("%w: %d control draws, more than %d steps of %d proposals make",
			ErrBadCheckpoint, lc.RNGDraws, lc.Unit, c.p.opt.Proposals)
	}
	cur, err := c.p.stateFromRecipe(*lc.Cur)
	if err != nil {
		return nil, fmt.Errorf("%w: current state: %v", ErrBadCheckpoint, err)
	}
	src.skip(lc.RNGDraws)
	l.cur = cur
	if lc.Threshold != nil {
		l.bestExpected = *lc.Threshold
	}
	return l, nil
}

// promote runs the full scoring tier on st when it analytically beats
// everything evaluated so far.
func (l *annealLane) promote(st *State) error {
	if st.Expected >= l.bestExpected {
		return nil
	}
	l.bestExpected = st.Expected
	_, err := l.probe(st)
	return err
}

// snapshot fills the lane-specific checkpoint fields. Serial control
// path only.
func (l *annealLane) snapshot(lc *LaneCheckpoint) {
	lc.Strategy = Anneal
	lc.RNGDraws = l.src.n
	if !math.IsInf(l.bestExpected, 1) {
		t := l.bestExpected
		lc.Threshold = &t
	}
	cur := recipeOf(l.cur)
	lc.Cur = &cur
}

// finished reports whether the lane has consumed its step budget.
func (l *annealLane) finished() bool { return l.unit >= l.p.opt.Steps }

// advance runs annealing steps up to (but not past) the step barrier
// until. A cancelled ctx aborts at the next step boundary (and mid-batch
// via forEach / mid-evaluation via the simulator), returning ctx.Err()
// with all partial state discarded.
func (l *annealLane) advance(ctx context.Context, until int) error {
	opt := l.p.opt
	for l.unit < until {
		step := l.unit
		if err := ctx.Err(); err != nil {
			return err
		}
		// Draw the whole batch serially, then build concurrently.
		moves := make([]move, opt.Proposals)
		for i := range moves {
			moves[i] = l.p.randomMove(l.rng, l.cur)
		}
		states := make([]*State, opt.Proposals)
		origin := l.cur
		opt.forEach(ctx, opt.Proposals, func(i int) {
			st, err := l.p.apply(origin, moves[i])
			if err == nil {
				states[i] = st
			}
		})
		if err := ctx.Err(); err != nil {
			return err // partial batch: discard, don't select from it
		}
		l.p.proposals += len(moves)

		// Pick the best candidate: lowest analytic score, key tie-break.
		var cand *State
		for _, st := range states {
			if st == nil || st.key == l.cur.key {
				continue
			}
			if cand == nil || st.Expected < cand.Expected ||
				(st.Expected == cand.Expected && st.key < cand.key) {
				cand = st
			}
		}

		// Exactly one uniform per step keeps the RNG stream aligned
		// whether or not a candidate materialised.
		u := l.rng.Float64()
		l.unit++
		if cand != nil {
			dE := cand.Expected - l.cur.Expected
			if dE <= 0 || u < math.Exp(-dE/tempAt(opt, step, opt.Steps)) {
				l.cur = cand
				if err := l.promote(l.cur); err != nil {
					return err
				}
			}
		}
		l.report()
	}
	return nil
}

// inject offers the lane an elite state found elsewhere. The adopted
// state lowers the promotion threshold it beats, and replaces the
// lane's current position when strictly better analytically (ties keep
// the lane's own trajectory, preserving diversity). Runs on the
// portfolio's serial control path only.
func (l *annealLane) inject(e *evaluated) error {
	st, err := l.adopt(e)
	if err != nil {
		return err
	}
	if st.Expected < l.bestExpected {
		l.bestExpected = st.Expected
	}
	if st.Expected < l.cur.Expected {
		l.cur = st
	}
	return nil
}

// randomMove draws one neighbour move of st from the serial RNG. Falls
// back to a frequency re-seed when the drawn kind has no legal target.
func (p *Problem) randomMove(rng *rand.Rand, st *State) move {
	kind := rng.Intn(10)
	switch {
	case kind < 3: // add a bus
		if cands := p.addCandidates(st); len(cands) > 0 {
			return move{kind: moveAddBus, site: cands[rng.Intn(len(cands))]}
		}
	case kind < 5: // remove a bus
		if len(st.Sites) > 0 {
			return move{kind: moveRemoveBus, old: st.Sites[rng.Intn(len(st.Sites))]}
		}
	case kind < 6: // shift: move a bus to a different site
		if m, ok := p.randomShift(rng, st); ok {
			return m
		}
	case kind < 7: // jump to another aux layout variant
		if len(p.auxCounts) > 1 {
			target := p.auxCounts[rng.Intn(len(p.auxCounts))]
			five := rng.Intn(2) == 1
			if target != st.Aux {
				return move{kind: moveAuxJump, aux: target, five: five}
			}
		}
	}
	cands := freqCandidates
	return move{
		kind:  moveReseed,
		qubit: rng.Intn(st.Arch.NumQubits()),
		freq:  cands[rng.Intn(len(cands))],
	}
}

// randomShift draws a shift move: a random selected site is removed and
// a random site eligible in its absence is added.
func (p *Problem) randomShift(rng *rand.Rand, st *State) (move, bool) {
	if len(st.Sites) == 0 {
		return move{}, false
	}
	victim := st.Sites[rng.Intn(len(st.Sites))]
	rest := removeSite(st.Sites, victim)
	// Re-derive eligibility without the victim on a scratch architecture.
	scratch := p.bases[st.Aux].arch.Clone()
	for _, s := range rest {
		if err := scratch.ApplyMultiBus(s); err != nil {
			return move{}, false // unreachable: subset of a valid set
		}
	}
	var eligible []move
	for _, s := range p.bases[st.Aux].sites {
		if s != victim && scratch.CanApplyMultiBus(s) {
			eligible = append(eligible, move{kind: moveShiftBus, old: victim, site: s})
		}
	}
	if len(eligible) == 0 {
		return move{}, false
	}
	return eligible[rng.Intn(len(eligible))], true
}
