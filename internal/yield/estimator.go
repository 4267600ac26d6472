package yield

// Estimator is the scoring seam between the two Monte-Carlo yield
// estimators the search evaluator chooses from: one-shot batch
// Monte-Carlo (BatchEstimator) and incremental Monte-Carlo through a
// trial-survivor state (IncrementalEstimator). Both return the same bits
// for the same assignment.
//
// topoKey canonically identifies the coupling graph: equal keys MUST
// imply equal adjacency lists — collision.TopoKey(adj) is the one
// canonical spelling, and every keyed caller derives from it so the
// kernel cache and the estimators can never disagree. Stateless
// estimators pass it through to the simulator's kernel cache; stateful
// ones (IncrementalEstimator) additionally use it to decide whether
// cached per-topology state applies to this call. An empty key means
// "unkeyed" and never matches cached state or cached kernels, so
// passing "" is always correct — merely slower.
//
// Implementations must be deterministic — equal (adj, freqs) inputs
// return equal float64 results — but are not required to be safe for
// concurrent use unless documented otherwise.
type Estimator interface {
	// Estimate scores the frequency assignment freqs over the coupling
	// graph adj.
	Estimate(topoKey string, adj [][]int, freqs []float64) float64
}

// BatchEstimator scores every call with the simulator's one-shot batch
// Monte-Carlo estimate (the compiled-kernel sweep of EstimateWithNoise).
// It is stateless across calls — topoKey only routes kernel compilation
// through the simulator's kernel cache, never changes a number — and
// safe for concurrent use exactly when the wrapped simulator is.
type BatchEstimator struct {
	Sim *Simulator
}

// Estimate runs the one-shot batch Monte-Carlo estimate.
func (b BatchEstimator) Estimate(topoKey string, adj [][]int, freqs []float64) float64 {
	return b.Sim.EstimateFreqsKeyed(topoKey, adj, freqs)
}

// IncrementalEstimator scores through a trial-survivor state
// (TrialState): consecutive calls sharing a non-empty topoKey
// re-estimate incrementally — only the condition bundles within reach of
// the moved qubits are re-checked — while a topology change rebuilds the
// state with one full pass. Every result is bit-identical to the
// one-shot batch estimate of the same assignment (the TrialState
// contract), so which calls happened to share a topology never shows in
// the numbers. Not safe for concurrent use: the cached state is mutated
// per call.
type IncrementalEstimator struct {
	Sim *Simulator

	st   *TrialState
	topo string
	// accChecked/accSkipped accumulate the condition statistics of
	// retired trial states; Stats folds in the live one. Signed so Warm
	// can bias them negative against a freshly built state, restoring a
	// checkpointed total exactly.
	accChecked, accSkipped int64
}

// Estimate scores freqs, incrementally when the previous call shared a
// non-empty topoKey.
func (e *IncrementalEstimator) Estimate(topoKey string, adj [][]int, freqs []float64) float64 {
	if e.st != nil && topoKey != "" && e.topo == topoKey {
		return e.Sim.ReEstimate(e.st, nil, freqs)
	}
	if e.st != nil {
		c, s := e.st.Stats()
		e.accChecked += int64(c)
		e.accSkipped += int64(s)
	}
	e.st = e.Sim.NewTrialStateKeyed(topoKey, adj, freqs)
	e.topo = topoKey
	return e.st.Yield()
}

// Warm rebuilds the estimator's trial-survivor state for the given
// assignment — as if the previous Estimate call had scored it — and
// pins the cumulative condition statistics to (checked, skipped). A
// resumed search uses it to restore the incremental fast path exactly:
// the next Estimate on the same topoKey re-estimates from this state,
// and Stats continues from the checkpointed totals, so an interrupted
// run and an uninterrupted one report identical numbers.
func (e *IncrementalEstimator) Warm(topoKey string, adj [][]int, freqs []float64, checked, skipped uint64) {
	e.st = e.Sim.NewTrialStateKeyed(topoKey, adj, freqs)
	e.topo = topoKey
	c0, s0 := e.st.Stats()
	e.accChecked = int64(checked) - int64(c0)
	e.accSkipped = int64(skipped) - int64(s0)
}

// Stats reports the cumulative bundle-trial evaluations performed and
// the ones incremental re-estimation skipped relative to from-scratch
// loops, across every trial state the estimator has held.
func (e *IncrementalEstimator) Stats() (checked, skipped uint64) {
	c, s := e.accChecked, e.accSkipped
	if e.st != nil {
		lc, ls := e.st.Stats()
		c += int64(lc)
		s += int64(ls)
	}
	// The accumulators can sit below zero between Warm and the live
	// state's first re-estimates; totals never should.
	if c < 0 {
		c = 0
	}
	if s < 0 {
		s = 0
	}
	return uint64(c), uint64(s)
}
