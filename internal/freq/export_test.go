package freq

import (
	"math"
	"sort"

	"qproc/internal/collision"
	"qproc/internal/yield"
)

// ResetShared empties the process-wide table, so that the next Allocate
// calls fill it afresh. Call it only while no Allocate runs.
func ResetShared() {
	shared = collision.NewMarginals(collision.DefaultParams(), yield.DefaultSigma)
}

// Picks returns the analytic pick of bestCandidate for qi, and the pick
// of the literal loop it stands for: the region within the allocator's
// reach and its subgraph built with maps, and the region's expected collision count summed for the
// incumbent (unless NaN) and every candidate, strict improvement only.
func (al *Allocator) Picks(adj [][]int, freqs []float64, assigned []bool, qi int, incumbent float64) (pruned, literal float64) {
	memo := collision.NewMarginals(al.Params, al.Sigma)
	pruned = al.bestCandidate(&workspace{memo: memo, pos: make([]int, len(adj))}, adj, freqs, assigned, qi, incumbent)

	in := map[int]bool{qi: true}
	for _, n1 := range adj[qi] {
		if assigned[n1] {
			in[n1] = true
		}
		if al.Reach < 2 {
			continue
		}
		for _, n2 := range adj[n1] {
			if n2 != qi && assigned[n2] {
				in[n2] = true
			}
		}
	}
	var region []int
	for q := range in {
		region = append(region, q)
	}
	sort.Ints(region)
	index := map[int]int{}
	for i, q := range region {
		index[q] = i
	}
	sub := make([][]int, len(region))
	subFreqs := make([]float64, len(region))
	for i, q := range region {
		subFreqs[i] = freqs[q]
		for _, nb := range adj[q] {
			if j, ok := index[nb]; ok {
				sub[i] = append(sub[i], j)
			}
		}
	}
	at := func(f float64) float64 {
		subFreqs[index[qi]] = f
		return memo.Expected(sub, subFreqs)
	}
	literal, bestE := math.NaN(), math.Inf(1)
	if !math.IsNaN(incumbent) {
		literal, bestE = incumbent, at(incumbent)
	}
	for _, f := range Candidates() {
		if e := at(f); e < bestE {
			literal, bestE = f, e
		}
	}
	return pruned, literal
}
