// Package freq implements the third hardware-design subroutine
// (Section 4.3, Algorithm 3): assigning a pre-fabrication frequency to
// every qubit of a designed topology so as to maximise the simulated
// fabrication yield.
//
// Frequencies are confined to IBM's allowed interval [5.00 GHz, 5.34 GHz]
// (which bounds the reach of collision condition 4). The allocator fixes
// the geometrically central qubit to the middle of the interval, then
// walks the coupling graph breadth-first, choosing for each newly reached
// qubit the candidate frequency that maximises the yield of the qubit's
// local region — the subgraph of already-assigned qubits that could share
// a collision condition with it.
//
// Two scoring modes are provided. ScoreMC simulates the local-region
// yield by Monte-Carlo with common random numbers, the paper's literal
// procedure. ScoreAnalytic (the default) minimises the closed-form
// expected collision count of the local region, which ranks candidates by
// the same objective without sampling noise: at realistic trial budgets
// the Monte-Carlo argmax is noise-limited (yield differences of interest
// are ~1%, below the estimator's standard error), and the analytic score
// recovers those differences exactly. An optional refinement sweep
// (Sweeps > 0) revisits every qubit in the same BFS order after the
// initial pass, re-optimising it against its now fully assigned
// neighbourhood — a light coordinate-descent step toward the global
// optimisation the paper leaves as future work.
package freq

import (
	"math"
	"slices"
	"sort"

	"qproc/internal/arch"
	"qproc/internal/collision"
	"qproc/internal/yield"
)

// Allowed frequency interval (Section 4.3); the candidates are the grid
// 5.00, 5.01, ..., 5.34 GHz that package collision defines.
const (
	// Lo is the lower end of the allowed frequency interval, GHz.
	Lo = collision.GridLo
	// Hi is the upper end of the allowed frequency interval, GHz.
	Hi = collision.GridHi
)

// Mode selects the candidate scoring strategy.
type Mode int

const (
	// ScoreAnalytic ranks candidates by closed-form expected collision
	// count of the local region (lower is better).
	ScoreAnalytic Mode = iota
	// ScoreMC ranks candidates by Monte-Carlo local-region yield with
	// common random numbers (higher is better), the paper's literal
	// Algorithm 3.
	ScoreMC
)

// Allocator runs Algorithm 3.
type Allocator struct {
	// Sigma is the fabrication noise parameter used in the local scoring,
	// GHz.
	Sigma float64
	// Mode selects analytic or Monte-Carlo scoring.
	Mode Mode
	// LocalTrials is the Monte-Carlo trial count per candidate
	// evaluation in ScoreMC mode.
	LocalTrials int
	// Sweeps is the number of refinement passes after the initial
	// centre-out assignment.
	Sweeps int
	// Seed drives the ScoreMC simulations deterministically.
	Seed int64
	// Params are the collision-model constants.
	Params collision.Params
	// Region optionally overrides the frequency-interaction region a
	// candidate is scored against: it must return qubit q plus every
	// qubit whose frequency can interact with q's, sorted ascending.
	// Topology families with non-standard interaction reach (e.g.
	// tunable couplers) install their policy here; nil keeps the paper's
	// distance-2 region.
	Region func(adj [][]int, q int) []int
}

// NewAllocator returns an Allocator with the paper's physical constants,
// analytic scoring, one refinement sweep, and a 2000-trial budget for
// ScoreMC mode.
func NewAllocator(seed int64) *Allocator {
	return &Allocator{
		Sigma:       yield.DefaultSigma,
		Mode:        ScoreAnalytic,
		LocalTrials: 2000,
		Sweeps:      1,
		Seed:        seed,
		Params:      collision.DefaultParams(),
	}
}

// Candidates returns the candidate frequency grid.
func Candidates() []float64 { return collision.Grid() }

// Mid returns the middle of the allowed interval, the frequency pinned to
// the central qubit.
func Mid() float64 { return math.Round((Lo+Hi)/2*100) / 100 }

// shared memoises the analytic marginals at the pair every design series
// and every search seed allocation scores at, collision.DefaultParams()
// and yield.DefaultSigma, for every Allocate call in the process. It is
// one table of ~451 KiB whose slots fill atomically, so concurrent calls
// share it; no other pair gets a process-wide table.
var shared = collision.NewMarginals(collision.DefaultParams(), yield.DefaultSigma)

// Allocate computes a frequency for every qubit of the architecture and
// returns the assignment (GHz, indexed by qubit). The architecture is not
// modified; install the result with SetFrequencies. At the default
// (Params, Sigma) the call reads the analytic marginals through the
// process-wide table; at any other pair it reads a memo of its own,
// dropped when it returns. Either way the assignment is the same bits: a
// memo slot holds exactly the formula's value.
func (al *Allocator) Allocate(a *arch.Architecture) []float64 {
	var memo *collision.Marginals
	switch {
	case al.Mode != ScoreAnalytic: // ScoreMC reads no marginals
	case shared.For(al.Params, al.Sigma):
		memo = shared
	default:
		memo = collision.NewMarginals(al.Params, al.Sigma)
	}
	n := a.NumQubits()
	freqs := make([]float64, n)
	if n == 0 {
		return freqs
	}
	assigned := make([]bool, n)
	adj := a.AdjList()
	ws := &workspace{memo: memo, pos: make([]int, n)}

	// Line 1: centre qubit pinned to the middle of the range.
	center := centerQubit(a)
	freqs[center] = Mid()
	assigned[center] = true

	order := bfsOrder(adj, center)
	for _, qi := range order {
		if assigned[qi] {
			continue
		}
		freqs[qi] = al.bestCandidate(ws, adj, freqs, assigned, qi, math.NaN())
		assigned[qi] = true
	}
	// Refinement sweeps: every qubit (centre included) revisited against
	// its complete neighbourhood. The incumbent frequency only moves on
	// strict improvement, so the sweep is monotone and terminates.
	for s := 0; s < al.Sweeps; s++ {
		changed := false
		for _, qi := range order {
			f := al.bestCandidate(ws, adj, freqs, assigned, qi, freqs[qi])
			if f != freqs[qi] {
				freqs[qi] = f
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return freqs
}

// workspace is what the bestCandidate calls of one Allocate call reuse: the
// analytic memo (nil under ScoreMC), the move plan, and the local region
// with its induced subgraph and frequencies.
type workspace struct {
	memo *collision.Marginals
	plan collision.MovePlan
	// pos[q] is 1 + q's index in the region, 0 outside it; it is all
	// zero between calls.
	pos      []int
	region   []int
	sub      [][]int
	subFreqs []float64
}

// bestCandidate scores every candidate frequency for qubit qi against its
// local region and returns the winner. When incumbent is a real frequency
// it wins all ties (refinement sweeps only move on strict improvement);
// when incumbent is NaN (initial assignment) ties break to the lowest
// candidate. ScoreAnalytic ranks the candidates by the terms that read
// qi and sums the region's expected collision count only for those that
// can still win (collision.MovePlan), so the pick is the one the full
// sum over every candidate makes.
func (al *Allocator) bestCandidate(ws *workspace, adj [][]int, freqs []float64, assigned []bool, qi int, incumbent float64) float64 {
	region := al.regionOf(ws, adj, qi, assigned)
	sub := ws.subgraph(adj, region)
	subFreqs := ws.subFreqs[:0]
	qiIdx := -1
	for i, q := range region {
		if q == qi {
			qiIdx = i
		}
		subFreqs = append(subFreqs, freqs[q])
	}
	ws.subFreqs = subFreqs
	if al.Mode == ScoreMC {
		sim := &yield.Simulator{
			Sigma:  al.Sigma,
			Trials: al.LocalTrials,
			Seed:   al.Seed,
			Params: al.Params,
		}
		// Common random numbers: one noise draw shared by all candidates.
		noise := sim.GenNoise(len(region))
		best, bestYield := math.NaN(), math.Inf(-1)
		if !math.IsNaN(incumbent) {
			subFreqs[qiIdx] = incumbent
			best, bestYield = incumbent, sim.EstimateWithNoise(sub, subFreqs, noise)
		}
		for _, f := range Candidates() {
			subFreqs[qiIdx] = f
			if y := sim.EstimateWithNoise(sub, subFreqs, noise); y > bestYield {
				best, bestYield = f, y
			}
		}
		return best
	}
	ws.plan.Plan(ws.memo, sub, subFreqs, qiIdx)
	best, _ := ws.plan.Best(incumbent, func(f float64) float64 {
		subFreqs[qiIdx] = f
		return ws.memo.Expected(sub, subFreqs)
	})
	return best
}

// regionOf resolves the local region of qi under the allocator's region
// policy, restricted to qi plus the already-assigned qubits, into
// ws.region.
func (al *Allocator) regionOf(ws *workspace, adj [][]int, qi int, assigned []bool) []int {
	if al.Region == nil {
		ws.region = appendRegion(ws.region[:0], ws.pos, adj, qi, assigned)
		return ws.region
	}
	out := ws.region[:0]
	for _, q := range al.Region(adj, qi) {
		if q == qi || assigned[q] {
			out = append(out, q)
		}
	}
	ws.region = out
	return out
}

// subgraph returns the subgraph of adj induced by region (ascending),
// re-indexed to region positions, each list in adj's order, in rows
// reused across calls.
func (ws *workspace) subgraph(adj [][]int, region []int) [][]int {
	for i, q := range region {
		ws.pos[q] = i + 1
	}
	for len(ws.sub) < len(region) {
		ws.sub = append(ws.sub, nil)
	}
	sub := ws.sub[:len(region)]
	for i, q := range region {
		row := sub[i][:0]
		for _, nb := range adj[q] {
			if j := ws.pos[nb]; j > 0 {
				row = append(row, j-1)
			}
		}
		sub[i] = row
	}
	for _, q := range region {
		ws.pos[q] = 0
	}
	return sub
}

// centerQubit returns the qubit whose lattice node is closest to the
// geometric centre of the placed qubits (Algorithm 3 line 1): central
// qubits have the most connections and are the most collision-prone, so
// they get first pick.
func centerQubit(a *arch.Architecture) int {
	c, ok := a.Occupied().Center()
	if !ok {
		return 0
	}
	q, ok := a.QubitAt(c)
	if !ok {
		return 0 // unreachable: Center returns a member node
	}
	return q
}

// bfsOrder returns every qubit in breadth-first order over the coupling
// graph from start, ties by ascending qubit id; disconnected components
// follow in ascending order of their smallest member. All qubits appear
// exactly once.
func bfsOrder(adj [][]int, start int) []int {
	n := len(adj)
	visited := make([]bool, n)
	var order []int
	enqueueComponent := func(s int) {
		queue := []int{s}
		visited[s] = true
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			order = append(order, q)
			nbrs := append([]int(nil), adj[q]...)
			sort.Ints(nbrs)
			for _, nb := range nbrs {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	enqueueComponent(start)
	for q := 0; q < n; q++ {
		if !visited[q] {
			enqueueComponent(q)
		}
	}
	return order
}

// localRegion returns qi plus every already-assigned qubit within
// coupling distance 2 of qi. A nil assigned slice means "all assigned".
func localRegion(adj [][]int, qi int, assigned []bool) []int {
	return appendRegion(nil, make([]int, len(adj)), adj, qi, assigned)
}

// appendRegion appends localRegion(adj, qi, assigned), ascending, to dst.
// mark must be all zero, and is again on return.
func appendRegion(dst []int, mark []int, adj [][]int, qi int, assigned []bool) []int {
	start := len(dst)
	add := func(q int) {
		if mark[q] == 0 {
			mark[q] = 1
			dst = append(dst, q)
		}
	}
	add(qi)
	for _, n1 := range adj[qi] {
		if assigned == nil || assigned[n1] {
			add(n1)
		}
		for _, n2 := range adj[n1] {
			if n2 != qi && (assigned == nil || assigned[n2]) {
				add(n2)
			}
		}
	}
	out := dst[start:]
	for _, q := range out {
		mark[q] = 0
	}
	slices.Sort(out)
	return dst
}

// Region returns qi plus every qubit within coupling distance 2 of qi —
// exactly the qubits that can participate in a collision condition with
// qi (conditions 1-4 need distance 1, conditions 5-7 a common neighbour,
// i.e. distance ≤ 2). Sorted ascending with qi included. The guided
// design-space search uses it to bound which frequencies a local move may
// perturb.
func Region(adj [][]int, qi int) []int {
	return localRegion(adj, qi, nil)
}
