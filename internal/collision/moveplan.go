package collision

import (
	"math"
	"sync/atomic"
)

// relSlack is MovePlan.Best's pruning slack, relative to the literal
// score of the candidate whose moving terms sum to the least.
const relSlack = 1e-9

// MovePlan lists the analytic terms that read one qubit q's frequency —
// the terms a frequency move of q changes — and sums them for every
// candidate of the grid. They are the terms of Marginals.Expected (and of
// the compiled Kernel's bundles) that name q, under the same orientation
// rule (orient) and spectator sets (the control's neighbours other than
// the target):
//
//   - the pair term of each coupling (q, n), in the direction the
//     candidate frequency gives it against n's;
//   - the spectator terms of each such coupling: q's other neighbours when
//     q controls, n's other neighbours with q as target when n controls;
//   - the spectator term q contributes to every coupling (c, t) of a
//     neighbour c that controls it, t ≠ q. Neither endpoint moves, so its
//     direction is fixed.
//
// Every other term, the constant part C of the score, is the same value
// at every candidate, so a candidate f scores C + M(f), where M(f) is the
// plan's sum. Best scores the incumbent literally, as the loop it stands
// for does first, and of the 35 grid candidates only those that can
// still win:
//
//   - Those whose M is within a slack of the least M, m*. Every term is a
//     probability, so ≥ 0, and a float sum of N non-negative terms is
//     within a relative γ ≈ N·2⁻⁵³ of its exact value in any order:
//     about 1e-13 for a few hundred terms, below 1e-10 for a million. Let
//     r be the first candidate with M = m*. When a candidate f has
//     M(f) > m* + 1e-9·E(r), where E(r) is r's literal score, its exact
//     score exceeds r's by more than 1e-9·E(r) − 3γ·E(r), and its literal
//     score is then strictly above r's literal score, so f cannot be the
//     pick. When E(r) is 0, every term of r is 0, the slack is 0, and any
//     f with M(f) > 0 has a literal score ≥ its largest term > 0.
//   - Among candidates whose moving terms are all exactly 0 (M = 0, as a
//     sum of non-negative terms is 0 only then), only the first, and none
//     when the incumbent is on the grid with M = 0. Their literal scores
//     add the same non-moving terms in the same order with zeros between
//     them, so they are bit-identical; a later one cannot strictly beat
//     the first.
//
// The pick is therefore the literal loop's pick, bit for bit, and the
// literal score it returns is the literal sum's. The literal scores
// remain only as this verifier: about one or two per pick.
//
// Grid indices are kept beside every frequency, so lookups read the
// Marginals memo without rounding; a term with an off-grid frequency
// (such as most of the 5-frequency seed scheme) is priced by the
// formula, through Marginals.Pair and Spectator. A plan reads the
// coupling graph and the assignment it was made from in place, so it
// costs no allocation beyond its 35 sums; it is not safe for concurrent
// use.
type MovePlan struct {
	memo  *Marginals
	adj   [][]int
	freqs []float64
	// idx[x] is GridIndex(freqs[x]); Plan fills it, an Incremental lends
	// its own.
	idx []int8
	q   int
	// moving[c] is M at grid frequency c (fill).
	moving [GridSize]float64
}

// Plan makes pl the plan of qubit q of the coupling graph adj
// (symmetric, no repeated neighbours) under the assignment freqs, whose
// entry for q is ignored, priced through memo. Both slices are read in
// place until the plan's last use. pl's grid-index buffer is reused.
func (pl *MovePlan) Plan(memo *Marginals, adj [][]int, freqs []float64, q int) {
	idx := pl.idx[:0]
	for _, f := range freqs {
		idx = append(idx, int8(GridIndex(f)))
	}
	*pl = MovePlan{memo: memo, adj: adj, freqs: freqs, idx: idx, q: q}
}

// fill sets moving[c] to M with q at grid frequency c, one term at a
// time across the candidates: a term's memo slots sit a fixed stride
// apart, so filled slots are read in place.
func (pl *MovePlan) fill() {
	const g, g2 = GridSize, GridSize * GridSize
	m, mv, q, adj, freqs := pl.memo, &pl.moving, pl.q, pl.adj, pl.freqs
	*mv = [GridSize]float64{}
	var pairs, specs []atomic.Uint64
	if m.pairs != nil {
		pairs, specs = m.pairs[:], m.specs[:]
	}
	for _, nq := range adj[q] {
		fn, n := freqs[nq], int(pl.idx[nq])
		split := 0 // below split, n controls (orient)
		for split < g && (grid[split] < fn || grid[split] == fn && nq < q) {
			split++
		}
		// n controls: the pair, and n's other neighbours as spectators.
		addRow(mv, 0, split, pairs, onGrid(n*g, n), 1,
			func(c int) float64 { return m.Pair(fn, grid[c], n, c) })
		for _, x := range adj[nq] {
			if fi, i := freqs[x], int(pl.idx[x]); x != q {
				addRow(mv, 0, split, specs, onGrid((n*g+i)*g, min(n, i)), 1,
					func(c int) float64 { return m.Spectator(fn, fi, grid[c], n, i, c) })
			}
		}
		// q controls: the pair, and q's other neighbours as spectators.
		addRow(mv, split, g, pairs, onGrid(n, n), g,
			func(c int) float64 { return m.Pair(grid[c], fn, c, n) })
		for _, x := range adj[q] {
			if fi, i := freqs[x], int(pl.idx[x]); x != nq {
				addRow(mv, split, g, specs, onGrid(i*g+n, min(n, i)), g2,
					func(c int) float64 { return m.Spectator(grid[c], fi, fn, c, i, n) })
			}
		}
		// q as a spectator of every other coupling n controls.
		for _, t := range adj[nq] {
			if ctl, _ := orient(nq, t, freqs); t != q && ctl == nq {
				ft, it := freqs[t], int(pl.idx[t])
				addRow(mv, 0, g, specs, onGrid(n*g2+it, min(n, it)), g,
					func(c int) float64 { return m.Spectator(fn, grid[c], ft, n, c, it) })
			}
		}
	}
}

// onGrid returns the memo offset off when the least of a term's fixed
// grid indices, least, is on the grid, and −1 otherwise.
func onGrid(off, least int) int {
	if least < 0 {
		return -1
	}
	return off
}

// addRow adds one term to mv[c] for the candidates c in [lo, hi): the
// filled memo slot tab[base + c·stride], or term(c), which fills it, for
// an empty slot, a memo without tables or an off-grid term (base < 0).
func addRow(mv *[GridSize]float64, lo, hi int, tab []atomic.Uint64, base, stride int, term func(c int) float64) {
	if base < 0 || tab == nil {
		for c := lo; c < hi; c++ {
			mv[c] += term(c)
		}
		return
	}
	for c := lo; c < hi; c++ {
		if b := tab[base+c*stride].Load(); b != 0 {
			mv[c] += math.Float64frombits(b &^ filled)
		} else {
			mv[c] += term(c)
		}
	}
}

// Best returns what the literal loop
//
//	best, bestE := incumbent, literal(incumbent) // or NaN, +Inf for a NaN incumbent
//	for _, f := range Grid() {
//		if e := literal(f); e < bestE {
//			best, bestE = f, e
//		}
//	}
//
// returns, where literal(f) is the planned graph's score with q at f,
// calling literal only on the incumbent and the candidates that can
// still win (see MovePlan): the incumbent wins ties, then the lowest
// candidate.
func (pl *MovePlan) Best(incumbent float64, literal func(f float64) float64) (best, bestE float64) {
	pl.fill()
	mv := &pl.moving
	best, bestE = math.NaN(), math.Inf(1)
	skip := -1    // the incumbent's grid slot: its literal score is bestE
	zero := false // a candidate with M = 0 has been scored
	if !math.IsNaN(incumbent) {
		best, bestE = incumbent, literal(incumbent)
		if skip = GridIndex(incumbent); skip >= 0 {
			zero = mv[skip] == 0
		}
	}
	ref := 0
	for c, m := range mv {
		if m < mv[ref] {
			ref = c
		}
	}
	eRef := bestE // ref's literal score, unless ref is neither skip nor another zero
	if ref != skip && !(zero && mv[ref] == 0) {
		eRef = literal(grid[ref])
	}
	limit := mv[ref] + relSlack*eRef
	for c, m := range mv {
		if c == skip || m > limit || (m == 0 && zero) {
			continue
		}
		zero = zero || m == 0
		e := eRef
		if c != ref {
			e = literal(grid[c])
		}
		if e < bestE {
			best, bestE = grid[c], e
		}
	}
	return best, bestE
}
