package collision

import (
	"math"
	"math/bits"
	"sort"
)

// Kernel is the compiled form of the collision conditions for one
// coupling graph, shared by every estimator: the incremental Monte-Carlo
// state (yield.TrialState), the one-shot batch estimate (CountSurvivors)
// and the analytic scorer (Incremental). It compiles only the topology —
// per undirected edge, the two endpoints and the spectator candidate list
// of either orientation — and resolves the orientation per call from
// whatever design frequencies the caller holds. A design-frequency move
// can flip an edge's orientation (and with it the spectator set conditions
// 5-7 range over), so the bundle, not the single condition, is the unit of
// incremental re-evaluation: re-checking every bundle within reach of a
// moved qubit re-derives its orientation naturally.
//
// A trial's verdict is the OR over edges of the bundle verdicts, which
// equals Params.Collides(adj, design, post) exactly: both evaluate the
// same pair and spectator conditions with the same float arithmetic, and
// a boolean OR is order-independent. TestCompiledCollidesMatchesReference
// enforces the equivalence.
type Kernel struct {
	params    Params
	halfDelta float64
	// edges are the undirected coupling edges; specs holds their
	// flattened spectator candidate lists.
	edges []kernelEdge
	specs []int32
	// deps[q] lists the edges whose verdict depends on qubit q's
	// frequency: q is an endpoint or a spectator candidate of the edge.
	deps [][]int32
}

// kernelEdge is one undirected coupling edge a < b. When a controls, its
// spectators (neighbours of a other than b) are specs[offA:offB]; when b
// controls, they are specs[offB:end].
type kernelEdge struct{ a, b, offA, offB, end int32 }

// NewKernel compiles the edge bundles of the coupling graph adj.
func NewKernel(adj [][]int, p Params) *Kernel {
	k := &Kernel{params: p, halfDelta: p.Delta / 2, deps: make([][]int32, len(adj))}
	// mark is the per-edge dedup scratch for dependent recording, reset
	// between edges; a flat bool slice avoids a map allocation per edge.
	mark := make([]bool, len(adj))
	for a, nbrs := range adj {
		for _, b := range nbrs {
			if b <= a {
				continue
			}
			e := int32(len(k.edges))
			ed := kernelEdge{a: int32(a), b: int32(b), offA: int32(len(k.specs))}
			for _, i := range adj[a] {
				if i != b {
					k.specs = append(k.specs, int32(i))
				}
			}
			ed.offB = int32(len(k.specs))
			for _, i := range adj[b] {
				if i != a {
					k.specs = append(k.specs, int32(i))
				}
			}
			ed.end = int32(len(k.specs))
			k.edges = append(k.edges, ed)
			// Dependents: endpoints plus every spectator candidate of
			// either orientation, each edge recorded once per qubit.
			mark[a], mark[b] = true, true
			k.deps[a] = append(k.deps[a], e)
			k.deps[b] = append(k.deps[b], e)
			for _, i := range k.specs[ed.offA:] {
				if !mark[i] {
					mark[i] = true
					k.deps[i] = append(k.deps[i], e)
				}
			}
			mark[a], mark[b] = false, false
			for _, i := range k.specs[ed.offA:] {
				mark[i] = false
			}
		}
	}
	return k
}

// NumEdges returns the number of edge bundles compiled.
func (k *Kernel) NumEdges() int { return len(k.edges) }

// Deps returns the edges whose verdict depends on qubit q's frequency.
// Callers must not mutate the returned slice.
func (k *Kernel) Deps(q int) []int32 { return k.deps[q] }

// Orient resolves edge e's gate direction under the design frequencies
// (see orient). It returns the control, the target and the control's
// spectator candidates: its neighbours other than the target, in
// adjacency order.
func (k *Kernel) Orient(e int, design []float64) (ctl, tgt int32, specs []int32) {
	ed := &k.edges[e]
	if c, _ := orient(int(ed.a), int(ed.b), design); c == int(ed.b) {
		return ed.b, ed.a, k.specs[ed.offB:ed.end]
	}
	return ed.a, ed.b, k.specs[ed.offA:ed.offB]
}

func abs(x float64) float64 {
	// math.Abs is a compiler intrinsic (branchless sign-bit clear); a
	// branchy spelling mispredicts half the time on zero-mean inputs,
	// which the hot condition loops feel directly.
	return math.Abs(x)
}

// EdgeFailsBits evaluates edge e's bundle across trials [lo, hi),
// packing the verdicts into out: bit (t−lo) of out[(t−lo)/64] is set iff
// the bundle fails in trial t (trailing bits of the last word are
// cleared). cols is the noise matrix transposed to column-major
// (cols[q][t] = trial t's noise on qubit q), so every inner-loop read is
// a contiguous walk; the design frequencies of the bundle's qubits are
// hoisted out of the trial loop. Each post-fabrication frequency is
// formed as design[q] + cols[q][t] — the same single addition the
// row-major Monte-Carlo loop performs — and the condition arithmetic
// matches Params.Pair and Params.Spectator operation for operation, so
// verdicts are bit-identical to the reference loop.
func (k *Kernel) EdgeFailsBits(e int, design []float64, cols [][]float64, lo, hi int, out []uint64) {
	ctl, tgt, specs := k.Orient(e, design)
	p := &k.params
	dj, dk := design[ctl], design[tgt]
	cj, ck := cols[ctl][lo:hi], cols[tgt][lo:hi]
	// Hoist the spectators' design frequencies and noise columns; the
	// two tiny slices amortise over the whole trial range. No state on
	// the kernel itself — chunked updates share one kernel concurrently.
	specD := make([]float64, len(specs))
	specC := make([][]float64, len(specs))
	for si, s := range specs {
		specD[si] = design[s]
		specC[si] = cols[s][lo:hi]
	}
	var word uint64
	var nbit uint
	wi := 0
	for i := 0; i < hi-lo; i++ {
		fj, fk := dj+cj[i], dk+ck[i]
		fails := abs(fj-fk) < p.T1 ||
			abs(fj-(fk-k.halfDelta)) < p.T2 ||
			abs(fj-(fk-p.Delta)) < p.T3 ||
			fj > fk-p.Delta
		if !fails {
			for si := range specC {
				fi := specD[si] + specC[si][i]
				if abs(fi-fk) < p.T5 ||
					abs(fi-(fk-p.Delta)) < p.T6 ||
					abs(2*fj+p.Delta-(fk+fi)) < p.T7 {
					fails = true
					break
				}
			}
		}
		if fails {
			word |= 1 << nbit
		}
		if nbit++; nbit == 64 {
			out[wi] = word
			wi++
			word, nbit = 0, 0
		}
	}
	if nbit > 0 {
		out[wi] = word
	}
}

// CountSurvivors counts the trials in [lo, hi) that survive every edge
// bundle of the kernel under the design frequencies — the batch one-shot
// form of the Monte-Carlo verdict loop. cols is the noise matrix in
// column-major (structure-of-arrays) form, cols[q][t] = trial t's noise
// on qubit q, the same layout EdgeFailsBits reads; each trial's
// post-fabrication frequency is formed as design[q] + cols[q][t], the
// single addition the row-major reference loop performs.
//
// The sweep is edge-major over a bit-packed survivor mask (bit t−lo set
// = trial t has not yet failed any bundle), with four invariants:
//
//   - Trailing-word masking: bits at and beyond hi−lo are never set, so
//     word-at-a-time operations cannot count phantom trials past the end
//     of a partial final word.
//   - Lethal-first ordering: bundles are swept most-lethal-first, ranked
//     by how close the design frequencies sit to a condition boundary
//     (lethalOrder), so doomed trials die on their first or second
//     bundle and the masks thin out as early as possible.
//   - Dead-word skip: a mask word whose survivors are all gone costs one
//     compare per remaining bundle — the bundle's verdicts for those 64
//     trials are provably irrelevant (a failed trial cannot un-fail).
//   - Chunk early-out: once no survivor remains anywhere in [lo, hi),
//     the remaining bundles are skipped entirely.
//
// Skipping only ever avoids evaluating trials already known to fail, and
// a trial's verdict is an order-independent OR over bundles, so the
// returned count — and therefore the yield — is bit-identical to
// evaluating every bundle on every trial in any order, which in turn
// equals the scalar Params.Collides verdict per trial
// (TestCountSurvivorsMatchesReference enforces the equivalence). The
// condition arithmetic matches Params.Pair and Params.Spectator
// operation for operation.
//
// CountSurvivors keeps no state on the kernel, so concurrent chunks may
// share one compiled kernel.
func (k *Kernel) CountSurvivors(design []float64, cols [][]float64, lo, hi int) int {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	words := (n + 63) / 64
	surv := make([]uint64, words)
	for i := range surv {
		surv[i] = ^uint64(0)
	}
	if tail := uint(n % 64); tail != 0 {
		surv[words-1] = 1<<tail - 1
	}
	alive := n
	t1, t2, t3 := k.params.T1, k.params.T2, k.params.T3
	t5, t6, t7 := k.params.T5, k.params.T6, k.params.T7
	delta, halfDelta := k.params.Delta, k.halfDelta
	var specD []float64
	var specC [][]float64
	for _, e := range k.lethalOrder(design) {
		if alive == 0 {
			break
		}
		ctl, tgt, specs := k.Orient(int(e), design)
		dj, dk := design[ctl], design[tgt]
		cj, ck := cols[ctl][lo:hi], cols[tgt][lo:hi]
		// Hoist the spectators' design frequencies and noise columns once
		// per bundle; the buffers are reused across bundles.
		if cap(specD) < len(specs) {
			specD = make([]float64, len(specs))
			specC = make([][]float64, len(specs))
		}
		specD = specD[:len(specs)]
		specC = specC[:len(specs)]
		for si, s := range specs {
			specD[si] = design[s]
			specC[si] = cols[s][lo:hi]
		}
		for wi, w := range surv {
			if w == 0 {
				continue
			}
			base := wi * 64
			if bits.OnesCount64(w) >= denseWordThreshold {
				// Dense word: nearly every trial is still alive, so a
				// straight scan over the contiguous column slices beats
				// extracting bits one by one — failed trials are also
				// evaluated, but masking the fail word with w below keeps
				// them dead, so skipping semantics are unchanged.
				end := base + 64
				if end > n {
					end = n
				}
				// Re-slicing ck to cj's length lets the compiler drop the
				// bounds check on the paired load.
				cjw := cj[base:end]
				ckw := ck[base:end][:len(cjw)]
				var failw uint64
				for o, cv := range cjw {
					fj, fk := dj+cv, dk+ckw[o]
					fkd := fk - delta
					fails := abs(fj-fk) < t1 ||
						abs(fj-(fk-halfDelta)) < t2 ||
						abs(fj-fkd) < t3 ||
						fj > fkd
					if !fails {
						i := base + o
						for si := range specC {
							fi := specD[si] + specC[si][i]
							if abs(fi-fk) < t5 ||
								abs(fi-fkd) < t6 ||
								abs(2*fj+delta-(fk+fi)) < t7 {
								fails = true
								break
							}
						}
					}
					if fails {
						failw |= 1 << uint(o)
					}
				}
				if failw &= w; failw != 0 {
					surv[wi] = w &^ failw
					alive -= bits.OnesCount64(failw)
				}
				continue
			}
			for m := w; m != 0; {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				i := base + b
				fj, fk := dj+cj[i], dk+ck[i]
				fkd := fk - delta
				fails := abs(fj-fk) < t1 ||
					abs(fj-(fk-halfDelta)) < t2 ||
					abs(fj-fkd) < t3 ||
					fj > fkd
				if !fails {
					for si := range specC {
						fi := specD[si] + specC[si][i]
						if abs(fi-fk) < t5 ||
							abs(fi-fkd) < t6 ||
							abs(2*fj+delta-(fk+fi)) < t7 {
							fails = true
							break
						}
					}
				}
				if fails {
					w &^= 1 << uint(b)
					alive--
				}
			}
			surv[wi] = w
		}
	}
	return alive
}

// denseWordThreshold is the survivor population at or above which a mask
// word is swept by straight scan instead of bit extraction: with nearly
// all 64 trials alive, sequential reads of the contiguous columns are
// cheaper than a TrailingZeros walk, even counting the few wasted
// evaluations of dead trials.
const denseWordThreshold = 48

// lethalOrder returns the bundle sweep order for CountSurvivors:
// ascending by design margin — the signed distance from the design
// frequencies to the nearest condition boundary (negative means the
// design point itself violates a condition, so every trial near it
// fails). Fabrication noise is zero-mean, so a bundle whose margin is
// small kills the most trials; sweeping those first empties the
// survivor masks in as few bundle visits as possible. The order affects
// running time only: a trial's verdict is an order-independent OR over
// bundles.
func (k *Kernel) lethalOrder(design []float64) []int32 {
	m := len(k.edges)
	order := make([]int32, m)
	margin := make([]float64, m)
	for e := 0; e < m; e++ {
		order[e] = int32(e)
		margin[e] = k.designMargin(e, design)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if margin[a] != margin[b] {
			return margin[a] < margin[b]
		}
		return a < b
	})
	return order
}

// designMargin is the smallest signed distance from edge e's design-point
// frequencies to any of its condition boundaries — the lethality proxy
// behind lethalOrder. It mirrors the condition arithmetic with the
// thresholds subtracted, so a margin below zero means the noiseless
// design already collides on this bundle.
func (k *Kernel) designMargin(e int, design []float64) float64 {
	ctl, tgt, specs := k.Orient(e, design)
	dj, dk := design[ctl], design[tgt]
	dkd := dk - k.params.Delta
	m := abs(dj-dk) - k.params.T1
	if v := abs(dj-(dk-k.halfDelta)) - k.params.T2; v < m {
		m = v
	}
	if v := abs(dj-dkd) - k.params.T3; v < m {
		m = v
	}
	if v := dkd - dj; v < m {
		m = v
	}
	for _, s := range specs {
		di := design[s]
		if v := abs(di-dk) - k.params.T5; v < m {
			m = v
		}
		if v := abs(di-dkd) - k.params.T6; v < m {
			m = v
		}
		if v := abs(2*dj+k.params.Delta-(dk+di)) - k.params.T7; v < m {
			m = v
		}
	}
	return m
}
