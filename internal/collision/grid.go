package collision

import (
	"math"
	"sync/atomic"
)

// The candidate frequency grid of Algorithm 3 (§4.3): 5.00, 5.01, ...,
// 5.34 GHz, IBM's allowed interval in 10 MHz steps. Every frequency the
// allocator and the guided search choose lies on it, so the analytic
// marginals of a job — σ and Params fixed — take at most GridSize² pair
// values and GridSize³ spectator values there.
const (
	// GridLo is the lowest grid frequency, GHz.
	GridLo = 5.00
	// GridHi is the highest grid frequency, GHz.
	GridHi = 5.34
	// GridStep is the grid spacing, GHz.
	GridStep = 0.01
	// GridSize is the number of grid frequencies.
	GridSize = int((GridHi-GridLo)/GridStep) + 1
)

// grid holds the grid frequencies, each the float64 nearest its
// two-decimal value.
var grid = func() (g [GridSize]float64) {
	for i := range g {
		g[i] = math.Round((GridLo+float64(i)*GridStep)*100) / 100
	}
	return g
}()

// Grid returns the grid frequencies in ascending order.
func Grid() []float64 { return append([]float64(nil), grid[:]...) }

// GridIndex returns i when f is grid frequency i bit for bit, and −1
// otherwise: an off-grid value (such as most of the 5-frequency seed
// scheme) is priced by the formula, never by a neighbouring slot.
func GridIndex(f float64) int {
	x := (f - GridLo) / GridStep
	if !(x > -0.5 && x < float64(GridSize)-0.5) {
		return -1
	}
	if i := int(x + 0.5); grid[i] == f {
		return i
	}
	return -1
}

// filled marks a memo slot as holding a value. The marginals are never
// negative, so the sign bit is free and a zero slot means "empty"; a
// value whose sign bit is set is not cached.
const filled = 1 << 63

// Marginals memoises PairProb and SpectatorProb on the grid for one
// (Params, σ): a slot holds the float64 the formula returned, so every
// sum built from lookups is bit-identical to the formula's. Slots fill
// lazily on first use — an eager fill of the GridSize³ spectator values
// costs more than a short search spends in them — and atomically, so the
// scorers of concurrent proposals can share one memo. A lookup with an
// off-grid frequency (index −1) computes the formula.
//
// The tables hold ~350 KiB. A memo belongs to one job or one Allocate
// call and is dropped with it; nothing caches memos across jobs.
type Marginals struct {
	params Params
	sigma  float64
	// pairs[j·GridSize+k] and specs[(j·GridSize+i)·GridSize+k] are the
	// slots; nil tables make every lookup compute the formula.
	pairs *[GridSize * GridSize]atomic.Uint64
	specs *[GridSize * GridSize * GridSize]atomic.Uint64
}

// NewMarginals returns an empty memo for p at σ = sigma.
func NewMarginals(p Params, sigma float64) *Marginals {
	return &Marginals{
		params: p,
		sigma:  sigma,
		pairs:  new([GridSize * GridSize]atomic.Uint64),
		specs:  new([GridSize * GridSize * GridSize]atomic.Uint64),
	}
}

// Pair returns p.PairProb(fj, fk, σ); j and k are the grid indices of
// fj and fk (GridIndex).
func (m *Marginals) Pair(fj, fk float64, j, k int) float64 {
	if m.pairs != nil && uint(j) < uint(GridSize) && uint(k) < uint(GridSize) {
		if b := m.pairs[j*GridSize+k].Load(); b != 0 {
			return math.Float64frombits(b &^ filled)
		}
	}
	return m.pairMiss(fj, fk, j, k)
}

// pairMiss computes Pair's formula, filling the slot when on the grid.
func (m *Marginals) pairMiss(fj, fk float64, j, k int) float64 {
	v := m.params.PairProb(fj, fk, m.sigma)
	if m.pairs != nil && uint(j) < uint(GridSize) && uint(k) < uint(GridSize) {
		fill(&m.pairs[j*GridSize+k], v)
	}
	return v
}

// Spectator returns p.SpectatorProb(fj, fi, fk, σ); j, i and k are the
// grid indices of fj, fi and fk.
func (m *Marginals) Spectator(fj, fi, fk float64, j, i, k int) float64 {
	if m.specs != nil && uint(j) < uint(GridSize) && uint(i) < uint(GridSize) && uint(k) < uint(GridSize) {
		if b := m.specs[(j*GridSize+i)*GridSize+k].Load(); b != 0 {
			return math.Float64frombits(b &^ filled)
		}
	}
	return m.spectatorMiss(fj, fi, fk, j, i, k)
}

// spectatorMiss computes Spectator's formula, filling the slot when on
// the grid.
func (m *Marginals) spectatorMiss(fj, fi, fk float64, j, i, k int) float64 {
	v := m.params.SpectatorProb(fj, fi, fk, m.sigma)
	if m.specs != nil && uint(j) < uint(GridSize) && uint(i) < uint(GridSize) && uint(k) < uint(GridSize) {
		fill(&m.specs[(j*GridSize+i)*GridSize+k], v)
	}
	return v
}

// fill caches v in slot unless its sign bit is set. Racing fills of one
// slot store the same bits.
func fill(slot *atomic.Uint64, v float64) {
	if b := math.Float64bits(v); b&filled == 0 {
		slot.Store(b | filled)
	}
}

// Expected returns the expected number of triggered condition instances
// of the frequency assignment freqs over the coupling graph adj, reading
// every marginal through the memo: ExpectedCollisions's sum, term for
// term and in its order.
func (m *Marginals) Expected(adj [][]int, freqs []float64) float64 {
	var buf [32]int
	idx := buf[:0]
	for _, f := range freqs {
		idx = append(idx, GridIndex(f))
	}
	e := 0.0
	for a, nbrs := range adj {
		for _, b := range nbrs {
			if b <= a {
				continue
			}
			ctl, tgt := orient(a, b, freqs)
			e += m.Pair(freqs[ctl], freqs[tgt], idx[ctl], idx[tgt])
		}
	}
	for a, nbrs := range adj {
		for _, b := range nbrs {
			if b <= a {
				continue
			}
			ctl, tgt := orient(a, b, freqs)
			for _, i := range adj[ctl] {
				if i != tgt {
					e += m.Spectator(freqs[ctl], freqs[i], freqs[tgt], idx[ctl], idx[i], idx[tgt])
				}
			}
		}
	}
	return e
}
