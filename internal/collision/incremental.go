package collision

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
// Within a bundle, the individual term values (the pair marginal and each
// spectator marginal) are cached. A move of a qubit that is not an
// endpoint of the bundle's edge cannot flip the orientation or perturb the
// pair term — it can only change that qubit's own spectator term (or no
// term at all, when the qubit neighbours only the target). Such moves
// recompute the one affected marginal and re-add the cached terms in the
// original summation order, which yields the same float64 as a full
// re-scoring — erf-free for every untouched term. The closed-form
// marginals dominate the surrogate's cost, so this term-level reuse is
// where the coordinate-descent inner loop wins its time back.
//
// The marginals themselves are read through a Marginals memo: each
// qubit's memo index (memoIndex) is kept beside its frequency, so a
// lookup needs no rounding. The memo covers the grid and the 5-frequency
// seed scheme; only a frequency outside that set falls back to the
// formula.
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
	// terms caches the current marginal values of every bundle:
	// terms[termOff[e]] is edge e's pair term and the following slots its
	// spectator terms, in the order of the spectators Kernel.Orient
	// returns for the current control. Slots are sized for the worse of
	// the two orientations.
	termOff []int32
	terms   []float64
	// mark/stamp deduplicate bundle re-scores within one update; scratch
	// holds previewed bundle scores without committing them to edgeE.
	mark     []int
	stamp    int
	scratch  []float64
	rescored uint64
	// partials counts the re-scores served by the term-level fast path.
	partials uint64
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
		termOff: make([]int32, m+1),
		mark:    make([]int, m),
		scratch: make([]float64, m),
	}
	for e := 0; e < m; e++ {
		// One pair slot plus the spectator slots of the larger of the two
		// orientations' spectator lists.
		ed := k.edges[e]
		spec := max(ed.offB-ed.offA, ed.end-ed.offB)
		inc.termOff[e+1] = inc.termOff[e] + 1 + spec
	}
	inc.terms = make([]float64, inc.termOff[m])
	for q, f := range freqs {
		inc.idx[q] = int8(memoIndex(f))
	}
	for e := range inc.edgeE {
		inc.edgeE[e] = inc.scoreBundle(e, true)
	}
	return inc
}

// scoreBundle computes every marginal of edge e from the current
// frequencies — pair conditions in the current orientation plus every
// spectator triple around the control — and returns their sum. commit
// writes the term values back to the cache; previews leave it alone.
func (inc *Incremental) scoreBundle(e int, commit bool) float64 {
	ctl, tgt, specs := inc.kern.Orient(e, inc.freqs)
	fj, fk := inc.freqs[ctl], inc.freqs[tgt]
	j, k := int(inc.idx[ctl]), int(inc.idx[tgt])
	terms := inc.terms[inc.termOff[e]:]
	s := inc.memo.Pair(fj, fk, j, k)
	if commit {
		terms[0] = s
	}
	for n, i := range specs {
		v := inc.memo.Spectator(fj, inc.freqs[i], fk, j, int(inc.idx[i]), k)
		if commit {
			terms[1+n] = v
		}
		s += v
	}
	inc.rescored++
	return s
}

// resumBundle re-adds edge e's cached terms in the committed order —
// the same float additions scoreBundle performed — optionally with the
// spectator term of qubit swapQ replaced by swapV (swapQ < 0 disables
// the swap). specs is the current control's spectator list; the caller
// guarantees the cached terms are current.
func (inc *Incremental) resumBundle(e int, specs []int32, swapQ int, swapV float64) float64 {
	terms := inc.terms[inc.termOff[e]:]
	s := terms[0]
	for j, i := range specs {
		v := terms[1+j]
		if int(i) == swapQ {
			v = swapV
		}
		s += v
	}
	return s
}

// rescoreFor re-scores bundle e after qubit q's frequency changed,
// using the term-level fast path when q is not an endpoint: the
// orientation and every other marginal are unchanged, so only q's own
// spectator term (if the current control even sees q) needs a fresh
// closed form. commit controls whether the new term and bundle score are
// written back.
func (inc *Incremental) rescoreFor(e, q int, commit bool) float64 {
	if ed := &inc.kern.edges[e]; q == int(ed.a) || q == int(ed.b) {
		return inc.scoreBundle(e, commit)
	}
	inc.rescored++
	inc.partials++
	ctl, tgt, specs := inc.kern.Orient(e, inc.freqs)
	for j, i := range specs {
		if int(i) != q {
			continue
		}
		v := inc.memo.Spectator(inc.freqs[ctl], inc.freqs[q], inc.freqs[tgt],
			int(inc.idx[ctl]), int(inc.idx[q]), int(inc.idx[tgt]))
		if commit {
			inc.terms[int(inc.termOff[e])+1+j] = v
			return inc.resumBundle(e, specs, -1, 0)
		}
		return inc.resumBundle(e, specs, q, v)
	}
	// q neighbours only the target: no term involves it and the score is
	// unchanged (a full re-score would recompute identical marginals).
	return inc.edgeE[e]
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
// qubits) and re-scores every dependent bundle exactly once. Bundles
// where every moved qubit is a non-endpoint take the term-level fast
// path; the rest re-derive their orientation and every marginal.
func (inc *Incremental) Set(qubits []int, vals []float64) {
	for i, q := range qubits {
		inc.freqs[q] = vals[i]
		inc.idx[q] = int8(memoIndex(vals[i]))
	}
	inc.stamp++
	if len(qubits) == 1 {
		q := qubits[0]
		for _, e := range inc.kern.Deps(q) {
			inc.mark[e] = inc.stamp
			inc.edgeE[e] = inc.rescoreFor(int(e), q, true)
		}
		return
	}
	for _, q := range qubits {
		for _, e := range inc.kern.Deps(q) {
			if inc.mark[e] != inc.stamp {
				inc.mark[e] = inc.stamp
				inc.edgeE[e] = inc.scoreBundle(int(e), true)
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
// once into a scratch slot — through the term-level fast path where q is
// a non-endpoint — and sums all bundles in edge order with the scratch
// values substituted: the same values in the same order a
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
		inc.scratch[e] = inc.rescoreFor(int(e), q, false)
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
	c.terms = append([]float64(nil), inc.terms...)
	c.mark = make([]int, len(inc.edgeE))
	c.scratch = make([]float64, len(inc.edgeE))
	c.stamp = 0
	return &c
}

// Rescored reports how many bundle scorings the instance has performed
// (including the initial compile), for tests and diagnostics.
func (inc *Incremental) Rescored() uint64 { return inc.rescored }

// Partials reports how many of the bundle scorings took the term-level
// fast path (one marginal recomputed instead of the whole bundle).
func (inc *Incremental) Partials() uint64 { return inc.partials }
