package search

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qproc/internal/collision"
	"qproc/internal/lattice"
	"qproc/internal/yield"
)

// CheckpointSchema versions the checkpoint wire format; DecodeCheckpoint
// rejects mismatches so a resumed run never misreads an old layout.
const CheckpointSchema = 1

// ErrBadCheckpoint wraps every checkpoint-resume validation failure —
// schema or strategy mismatches, states that no longer reconstruct,
// misaligned barriers. Callers treat it as "restart cold", never as a
// job failure.
var ErrBadCheckpoint = errors.New("search: bad checkpoint")

// CheckpointOptions wires checkpointing into Run / RunPortfolio.
type CheckpointOptions struct {
	// Every is Run's checkpoint cadence in search units (annealing steps
	// / beam depths); <= 0 disables Run's saves. RunPortfolio ignores it
	// and saves at its exchange barriers instead — the barrier is the
	// natural consistency point. Either way a barrier saves only while
	// some lane still has work.
	Every int
	// Resume, when non-nil, restores the run from a prior checkpoint
	// instead of starting cold. The options must match the ones the
	// checkpoint was taken under (same spec), or the run fails with
	// ErrBadCheckpoint.
	Resume *Checkpoint
	// Save receives each checkpoint on the serial control path; it must
	// not retain the pointer past the call if it mutates it. Persisting
	// is the caller's concern (and may be best-effort).
	Save func(*Checkpoint)
}

// StateRecipe is the portable identity of a search State: aux variant,
// bus sites and frequency assignment. newState reconstructs the exact
// State (equal canonical key) from it — the same determinism adoptState
// relies on for cross-lane elite transfer.
type StateRecipe struct {
	Aux   int       `json:"aux"`
	Sites [][2]int  `json:"sites,omitempty"`
	Freqs []float64 `json:"freqs"`
}

// EvalRecord is one memoised Monte-Carlo evaluation: the state recipe
// plus every number evaluate produced for it. Under common random
// numbers, restoring the record is bit-identical to re-evaluating.
type EvalRecord struct {
	State     StateRecipe `json:"state"`
	Yield     float64     `json:"yield"`
	Objective float64     `json:"objective"`
	Gates     int         `json:"gates,omitempty"`
	Swaps     int         `json:"swaps,omitempty"`
	NormPerf  float64     `json:"norm_perf,omitempty"`
}

// LaneCheckpoint is the resumable state of one lane at a unit barrier.
type LaneCheckpoint struct {
	Strategy  Strategy `json:"strategy"`
	Unit      int      `json:"unit"`
	Evals     int      `json:"evals"`
	Proposals int      `json:"proposals"`
	// Cap is the evaluator's rebudgeted evaluation cap, when one was set.
	Cap *int `json:"cap,omitempty"`
	// RNGDraws counts the Int63 values the annealing control RNG has
	// consumed; resume replays the stream to this offset, so the resumed
	// trajectory is draw-for-draw identical.
	RNGDraws uint64 `json:"rng_draws,omitempty"`
	// Threshold is the annealer's promotion threshold (bestExpected);
	// nil encodes +Inf, which JSON cannot.
	Threshold *float64 `json:"threshold,omitempty"`
	// Cur is the annealer's current position.
	Cur *StateRecipe `json:"cur,omitempty"`
	// Frontier is the beam frontier in its sorted order.
	Frontier []StateRecipe `json:"frontier,omitempty"`
	// Done is the beam convergence latch.
	Done bool `json:"done,omitempty"`
	// BestKey names the lane incumbent inside the checkpoint memo.
	BestKey string       `json:"best_key,omitempty"`
	Trace   []TracePoint `json:"trace,omitempty"`
	// CondChecked/CondSkipped pin the incremental estimator's cumulative
	// condition statistics; LastEval names the assignment its live
	// trial-survivor state held, so resume restores the incremental fast
	// path exactly.
	CondChecked uint64       `json:"cond_checked,omitempty"`
	CondSkipped uint64       `json:"cond_skipped,omitempty"`
	LastEval    *StateRecipe `json:"last_eval,omitempty"`
}

// Checkpoint is the full resumable state of a Run or RunPortfolio at a
// unit barrier; both write this one shape, Run with a single lane. It
// is pure data — json round-trips it exactly (float64 values encode at
// full precision) — and resuming from it produces a final Result
// bit-identical to the uninterrupted run. Checkpoints from releases
// that also carried a "portfolio" flag decode and resume unchanged: the
// lane count says the same.
type Checkpoint struct {
	Schema   int      `json:"schema"`
	Strategy Strategy `json:"strategy"`
	// Unit is the barrier crossed, Exchanges the elite exchanges so far.
	Unit      int `json:"unit"`
	Exchanges int `json:"exchanges,omitempty"`
	// Memo is the Monte-Carlo evaluation memo, sorted by state key: the
	// post-merge union every lane shares.
	Memo  []EvalRecord     `json:"memo,omitempty"`
	Lanes []LaneCheckpoint `json:"lanes"`
}

// Evals sums the Monte-Carlo evaluations spent across all lanes at the
// checkpoint — what a resumed run starts from instead of zero.
func (c *Checkpoint) Evals() int {
	total := 0
	for i := range c.Lanes {
		total += c.Lanes[i].Evals
	}
	return total
}

// Encode serialises the checkpoint.
func (c *Checkpoint) Encode() ([]byte, error) { return json.Marshal(c) }

// DecodeCheckpoint parses and schema-checks a checkpoint; failures wrap
// ErrBadCheckpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if cp.Schema != CheckpointSchema {
		return nil, fmt.Errorf("%w: schema %d, want %d", ErrBadCheckpoint, cp.Schema, CheckpointSchema)
	}
	return &cp, nil
}

// countingSource is a rand.Source that counts the Int63 values drawn.
// It deliberately does NOT implement rand.Source64: rand.Rand derives
// Intn and Float64 from Int63 alone on a plain Source, so wrapping the
// stdlib source changes no value in the stream — it only makes the
// draw count observable, which is what lets a checkpoint record the RNG
// position and a resume replay the stream to it.
type countingSource struct {
	src rand.Source
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed)}
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// skip burns n draws, positioning a fresh source at a checkpointed
// offset.
func (s *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Int63()
	}
	s.n = n
}

// recipeOf captures a state's portable identity.
func recipeOf(st *State) StateRecipe {
	r := StateRecipe{Aux: st.Aux, Freqs: append([]float64(nil), st.Freqs()...)}
	for _, s := range st.Sites {
		r.Sites = append(r.Sites, [2]int{s.Origin.X, s.Origin.Y})
	}
	return r
}

// stateFromRecipe reconstructs the exact state (equal canonical key)
// inside this problem. It never bumps the proposal counter — the
// checkpoint restores that explicitly.
func (p *Problem) stateFromRecipe(r StateRecipe) (*State, error) {
	sites := make([]lattice.Square, len(r.Sites))
	for i, s := range r.Sites {
		sites[i] = lattice.Square{Origin: lattice.Coord{X: s[0], Y: s[1]}}
	}
	return p.newState(r.Aux, sites, append([]float64(nil), r.Freqs...))
}

// snapshotMemo captures the evaluator's Monte-Carlo memo, sorted by
// state key for a canonical byte encoding.
func (ev *evaluator) snapshotMemo() []EvalRecord {
	keys := make([]string, 0, len(ev.seen))
	for k := range ev.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]EvalRecord, 0, len(keys))
	for _, k := range keys {
		e := ev.seen[k]
		out = append(out, EvalRecord{
			State:     recipeOf(e.state),
			Yield:     e.yield,
			Objective: e.objective,
			Gates:     e.gates,
			Swaps:     e.swaps,
			NormPerf:  e.normPerf,
		})
	}
	return out
}

// restoreMemo rebuilds the memo from checkpoint records. Restored
// entries are bit-identical to re-evaluating under common random
// numbers — the same contract transplant relies on.
func (ev *evaluator) restoreMemo(records []EvalRecord) error {
	for i := range records {
		r := &records[i]
		st, err := ev.p.stateFromRecipe(r.State)
		if err != nil {
			return fmt.Errorf("%w: memo state: %v", ErrBadCheckpoint, err)
		}
		ev.seen[st.key] = &evaluated{
			state:     st,
			yield:     r.Yield,
			objective: r.Objective,
			gates:     r.Gates,
			swaps:     r.Swaps,
			normPerf:  r.NormPerf,
		}
	}
	return nil
}

// warm restores the evaluator's counters, budget cap and — when the
// incremental estimator is in play — its trial-survivor state, pinned
// to the checkpointed condition statistics.
func (ev *evaluator) warm(lc *LaneCheckpoint) error {
	ev.evals = lc.Evals
	if lc.Cap != nil {
		ev.setCap(*lc.Cap)
	}
	if lc.LastEval == nil {
		return nil
	}
	st, err := ev.p.stateFromRecipe(*lc.LastEval)
	if err != nil {
		return fmt.Errorf("%w: last-eval state: %v", ErrBadCheckpoint, err)
	}
	if inc, ok := ev.est.(*yield.IncrementalEstimator); ok {
		adj := st.Arch.AdjList()
		key, cached := ev.canon[st.topoKey]
		if !cached {
			key = collision.TopoKey(adj)
			ev.canon[st.topoKey] = key
		}
		inc.Warm(key, adj, st.Freqs(), lc.CondChecked, lc.CondSkipped)
	}
	ev.lastEval = st
	return nil
}

// snapshotLane captures one lane and its evaluator at a unit barrier.
// Runs on the serial control path only.
func snapshotLane(p *Problem, ev *evaluator, ln lane) LaneCheckpoint {
	lc := LaneCheckpoint{
		Unit:      ln.unit(),
		Evals:     ev.evals,
		Proposals: p.proposals,
	}
	if ev.capSet {
		c := ev.cap
		lc.Cap = &c
	}
	lc.CondChecked, lc.CondSkipped = ev.condStats()
	if ev.lastEval != nil {
		r := recipeOf(ev.lastEval)
		lc.LastEval = &r
	}
	ln.snapshot(&lc)
	return lc
}

// checkpointAt assembles the checkpoint at barrier unit. Called after
// the memo merge, so every lane's memo is the same union and lane 0's
// copy stands for all.
func checkpointAt(strategy Strategy, lanes []*laneRun, unit, exchanges int) *Checkpoint {
	cp := &Checkpoint{
		Schema:    CheckpointSchema,
		Strategy:  strategy,
		Unit:      unit,
		Exchanges: exchanges,
		Memo:      lanes[0].ev.snapshotMemo(),
	}
	for _, lr := range lanes {
		cp.Lanes = append(cp.Lanes, snapshotLane(lr.p, lr.ev, lr.ln))
	}
	return cp
}

// resumeAnnealLane rebuilds an anneal lane at its checkpointed step:
// the control RNG replayed to the recorded draw count, the current
// position reconstructed, the incumbent looked up in the restored memo.
func resumeAnnealLane(p *Problem, ev *evaluator, progress func(Progress), lc *LaneCheckpoint) (*annealLane, error) {
	if lc.Strategy != Anneal || lc.Cur == nil {
		return nil, fmt.Errorf("%w: lane is not a resumable anneal lane", ErrBadCheckpoint)
	}
	cur, err := p.stateFromRecipe(*lc.Cur)
	if err != nil {
		return nil, fmt.Errorf("%w: current state: %v", ErrBadCheckpoint, err)
	}
	src := newCountingSource(p.opt.controlSeed())
	src.skip(lc.RNGDraws)
	l := &annealLane{
		p:            p,
		ev:           ev,
		progress:     progress,
		src:          src,
		rng:          rand.New(src),
		cur:          cur,
		bestExpected: math.Inf(1),
		step:         lc.Unit,
	}
	if lc.Threshold != nil {
		l.bestExpected = *lc.Threshold
	}
	if lc.BestKey != "" {
		e, ok := ev.seen[lc.BestKey]
		if !ok {
			return nil, fmt.Errorf("%w: incumbent %q missing from memo", ErrBadCheckpoint, lc.BestKey)
		}
		l.best = e
	}
	l.trace = append([]TracePoint(nil), lc.Trace...)
	return l, nil
}

// resumeBeamLane rebuilds a beam lane at its checkpointed depth: the
// frontier reconstructed in its saved (already sorted) order, the
// convergence latch and incumbent restored. evalFrontier is NOT re-run —
// the checkpoint was taken after it, and re-running would double-spend
// budget on any member it had to skip.
func resumeBeamLane(p *Problem, ev *evaluator, progress func(Progress), lc *LaneCheckpoint) (*beamLane, error) {
	if lc.Strategy != Beam {
		return nil, fmt.Errorf("%w: lane is not a resumable beam lane", ErrBadCheckpoint)
	}
	l := &beamLane{
		p:          p,
		ev:         ev,
		progress:   progress,
		inFrontier: map[string]bool{},
		depth:      lc.Unit,
		done:       lc.Done,
	}
	for _, r := range lc.Frontier {
		st, err := p.stateFromRecipe(r)
		if err != nil {
			return nil, fmt.Errorf("%w: frontier state: %v", ErrBadCheckpoint, err)
		}
		l.frontier = append(l.frontier, st)
		l.inFrontier[st.key] = true
	}
	if lc.BestKey != "" {
		e, ok := ev.seen[lc.BestKey]
		if !ok {
			return nil, fmt.Errorf("%w: incumbent %q missing from memo", ErrBadCheckpoint, lc.BestKey)
		}
		l.best = e
	}
	l.trace = append([]TracePoint(nil), lc.Trace...)
	return l, nil
}
