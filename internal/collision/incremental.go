package collision

import (
	"math"
	"sync/atomic"
)

// Incremental maintains the analytic expected-collision count of one
// coupling graph under a mutable frequency assignment, re-scoring only the
// terms a frequency change can affect. The guided design-space search
// proposes thousands of single-qubit (or small-region) frequency moves per
// run; recomputing every closed-form marginal each time would make the
// surrogate as expensive as the Monte-Carlo estimate it replaces. Its
// coordinate descent ranks a qubit's 35 candidates by the terms a move
// changes (Plan, see MovePlan) and previews only the few that can still
// win.
//
// Terms are grouped per edge bundle of the compiled Kernel: the pair
// conditions 1-4 of the edge in its current orientation (see orient) plus
// the spectator conditions 5-7 of every (control, spectator, target)
// triple the edge generates. A bundle's score depends only on the
// frequencies of the edge's endpoints and their neighbours, so an update
// touches just the bundles in the Kernel's dependency list of each moved
// qubit. Orientation flips caused by an update are handled naturally:
// affected bundles are re-scored from scratch, re-deriving their control.
//
// The marginals are read through a Marginals memo, the scorer's only
// cache of them: each qubit's memo index (memoIndex) is kept beside its
// frequency, so a lookup needs no rounding, and a bundle reads its
// spectator terms from one memo row in place (scoreBundle). The memo
// covers the grid and the 5-frequency seed scheme; only a frequency
// outside that set falls back to the formula.
//
// The total is summed over bundles in edge-index order on every Score
// call, so it is a pure function of the current frequencies — no
// accumulated floating-point drift, and bit-identical across any update
// history that ends in the same assignment.
type Incremental struct {
	kern  *Kernel
	memo  *Marginals
	adj   [][]int
	freqs []float64
	// idx[q] is memoIndex(freqs[q]); Set, Preview1 and Clone keep the
	// two in step.
	idx []int8
	// edgeE holds the current bundle score per kernel edge.
	edgeE []float64
	// mark/stamp deduplicate bundle re-scores within one update; scratch
	// holds previewed bundle scores without committing them to edgeE.
	mark     []int
	stamp    int
	scratch  []float64
	rescored uint64
}

// NewIncremental compiles the incremental scorer for the coupling graph
// adj under the initial design frequencies freqs (copied, not retained),
// with a memo of its own.
func NewIncremental(adj [][]int, freqs []float64, sigma float64, p Params) *Incremental {
	return NewIncrementalWith(adj, freqs, NewMarginals(p, sigma))
}

// NewIncrementalWith is NewIncremental reading its marginals through
// memo, which scorers of the same (Params, σ) may share, concurrently.
func NewIncrementalWith(adj [][]int, freqs []float64, memo *Marginals) *Incremental {
	k := NewKernel(adj, memo.params)
	m := k.NumEdges()
	inc := &Incremental{
		kern:    k,
		memo:    memo,
		adj:     adj,
		freqs:   append([]float64(nil), freqs...),
		idx:     make([]int8, len(freqs)),
		edgeE:   make([]float64, m),
		mark:    make([]int, m),
		scratch: make([]float64, m),
	}
	for q, f := range freqs {
		inc.idx[q] = int8(memoIndex(f))
	}
	for e := range inc.edgeE {
		inc.edgeE[e] = inc.scoreBundle(e)
	}
	return inc
}

// scoreBundle computes every marginal of edge e from the current
// frequencies — pair conditions in the current orientation plus every
// spectator triple around the control — and returns their sum. The
// spectator slots of the bundle's (control, target) pair form one memo
// row, MemoSize apart, read in place as MovePlan's addRow reads its
// rows; an empty slot or a spectator off the memo goes through
// Spectator's fill path.
func (inc *Incremental) scoreBundle(e int) float64 {
	ctl, tgt, specs := inc.kern.Orient(e, inc.freqs)
	m, freqs, idx := inc.memo, inc.freqs, inc.idx
	fj, fk := freqs[ctl], freqs[tgt]
	j, k := int(idx[ctl]), int(idx[tgt])
	s := m.Pair(fj, fk, j, k)
	var row []atomic.Uint64
	if m.specs != nil && inMemo(j, k) {
		row = m.specs[j*MemoSize*MemoSize+k:]
	}
	for _, i := range specs {
		ii := int(idx[i])
		if row != nil && ii >= 0 {
			if b := row[ii*MemoSize].Load(); b != 0 {
				s += math.Float64frombits(b &^ filled)
				continue
			}
		}
		s += m.spectatorMiss(fj, freqs[i], fk, j, ii, k)
	}
	inc.rescored++
	return s
}

// Score returns the expected collision count of the current assignment,
// summing bundles in fixed edge order.
func (inc *Incremental) Score() float64 {
	total := 0.0
	for _, e := range inc.edgeE {
		total += e
	}
	return total
}

// Freq returns the current design frequency of qubit q.
func (inc *Incremental) Freq(q int) float64 { return inc.freqs[q] }

// Adj returns the adjacency lists the scorer was compiled for. Callers
// must not mutate them.
func (inc *Incremental) Adj() [][]int { return inc.adj }

// Freqs returns a copy of the current assignment.
func (inc *Incremental) Freqs() []float64 {
	return append([]float64(nil), inc.freqs...)
}

// Set updates the frequencies of the given qubits (vals aligned with
// qubits) and re-scores every dependent bundle exactly once.
func (inc *Incremental) Set(qubits []int, vals []float64) {
	for i, q := range qubits {
		inc.freqs[q] = vals[i]
		inc.idx[q] = int8(memoIndex(vals[i]))
	}
	inc.stamp++
	for _, q := range qubits {
		for _, e := range inc.kern.Deps(q) {
			if inc.mark[e] != inc.stamp {
				inc.mark[e] = inc.stamp
				inc.edgeE[e] = inc.scoreBundle(int(e))
			}
		}
	}
}

// Plan returns the move plan of qubit q under the current assignment,
// priced through the scorer's memo: its Best picks q's coordinate-descent
// frequency with Preview1 as the literal score. The plan reads the
// scorer's state in place, so it is valid until the next update.
func (inc *Incremental) Plan(q int) MovePlan {
	return MovePlan{memo: inc.memo, adj: inc.adj, freqs: inc.freqs, idx: inc.idx, q: q}
}

// Set1 is Set for a single qubit.
func (inc *Incremental) Set1(q int, f float64) {
	inc.Set([]int{q}, []float64{f})
}

// Preview1 returns the Score the assignment would have with qubit q moved
// to f, leaving the scorer unchanged. It scores each dependent bundle
// once into a scratch slot and sums all bundles in edge order with the
// scratch values substituted: the same values in the same order a
// Set1 + Score + restoring Set1 round-trip would produce (so results are
// bit-identical to that spelling), with no committed state to restore.
// The guided search's coordinate descent calls it only to verify the
// candidates its move plan cannot rule out (MovePlan.Best), about one
// per qubit.
func (inc *Incremental) Preview1(q int, f float64) float64 {
	old, oldIdx := inc.freqs[q], inc.idx[q]
	if f == old {
		return inc.Score()
	}
	inc.freqs[q], inc.idx[q] = f, int8(memoIndex(f))
	inc.stamp++
	for _, e := range inc.kern.Deps(q) {
		inc.mark[e] = inc.stamp
		inc.scratch[e] = inc.scoreBundle(int(e))
	}
	inc.freqs[q], inc.idx[q] = old, oldIdx
	total := 0.0
	for e, v := range inc.edgeE {
		if inc.mark[e] == inc.stamp {
			v = inc.scratch[e]
		}
		total += v
	}
	// Invalidate the marks so they cannot be mistaken for committed
	// state by later updates.
	inc.stamp++
	return total
}

// Clone returns an independent copy sharing the (immutable) adjacency and
// compiled kernel, and the memo.
func (inc *Incremental) Clone() *Incremental {
	c := *inc
	c.freqs = append([]float64(nil), inc.freqs...)
	c.idx = append([]int8(nil), inc.idx...)
	c.edgeE = append([]float64(nil), inc.edgeE...)
	c.mark = make([]int, len(inc.edgeE))
	c.scratch = make([]float64, len(inc.edgeE))
	c.stamp = 0
	return &c
}

// Rescored reports how many bundle scorings the instance has performed
// (including the initial compile), for tests and diagnostics.
func (inc *Incremental) Rescored() uint64 { return inc.rescored }
