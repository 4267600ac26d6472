package search

// laneCore is the bookkeeping every search strategy shares: the lane's
// problem view, the evaluator it owns, its progress sink, its position
// in units (annealing steps / beam depths), and its evaluated incumbent
// with the trace of its improvements. annealLane and beamLane embed it
// and keep only what differs between them. Serial control path only.
type laneCore struct {
	p        *Problem
	ev       *evaluator
	progress func(Progress)
	unit     int
	best     *evaluated
	trace    []TracePoint
}

// record makes e the incumbent when it beats the current one, and traces
// the improvement at the lane's unit under st's analytic score: st is the
// state the lane probed, and e may be a memo entry for an equal-key
// state built elsewhere.
func (c *laneCore) record(st *State, e *evaluated) {
	if better(e, c.best) {
		c.best = e
		c.trace = append(c.trace, TracePoint{Step: c.unit, Evals: c.ev.evals, Yield: e.yield, Expected: st.Expected})
	}
}

// probe runs the full scoring tier on st and records the result. It
// reports false, with no error, once the evaluation budget is spent.
func (c *laneCore) probe(st *State) (bool, error) {
	e, ok, err := c.ev.evaluate(st)
	if err != nil || !ok {
		return false, err
	}
	c.record(st, e)
	return true, nil
}

// report delivers the lane's progress at the end of a unit. Both numbers
// describe the evaluated incumbent.
func (c *laneCore) report() {
	if c.progress == nil {
		return
	}
	pr := Progress{Step: c.unit, Total: c.p.opt.units(), Evals: c.ev.evals}
	pr.CondChecks, pr.CondSkipped = c.ev.condStats()
	if c.best != nil {
		pr.BestYield = c.best.yield
		pr.BestExpected = c.best.state.Expected
	}
	c.progress(pr)
}

// adopt takes in an elite found by another lane (the portfolio
// exchange). The state is re-materialised inside this lane's problem
// (its own architecture and incremental scorer — lanes never share
// mutable state), and its evaluation is transplanted into the lane's
// memo, which is valid because every lane scores under the same noise
// matrices (common random numbers), so re-evaluating it here would
// reproduce the exact numbers. The adopted evaluation is recorded like
// one of the lane's own, and the strategy decides what the returned
// state does to its position.
func (c *laneCore) adopt(e *evaluated) (*State, error) {
	st, err := c.p.adoptState(e.state)
	if err != nil {
		return nil, err
	}
	c.ev.transplant(st, e)
	c.record(st, c.ev.seen[st.key])
	return st, nil
}
