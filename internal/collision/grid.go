package collision

import (
	"math"
	"sync/atomic"

	"qproc/internal/arch"
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
// otherwise, never a neighbouring slot by rounding. Candidates keep
// their grid indices; a memo lookup reads memoIndex, which also has
// slots for the 5-frequency scheme values off the grid.
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

// MemoSize is the number of frequencies the Marginals memo has slots
// for: the grid, then the three values of IBM's 5-frequency scheme
// (arch.FiveFreqValue) that lie off it — 5.0675, 5.135 and 5.2025 GHz;
// its first and last values, 5.00 and 5.27, are grid frequencies. The
// scheme seeds every search, so the memo covers every frequency the
// engine assigns.
const MemoSize = GridSize + 3

// memoFreqs holds the memo frequencies by slot.
var memoFreqs = func() (m [MemoSize]float64) {
	n := copy(m[:], grid[:])
	for v := 0; v < 5; v++ {
		if f := arch.FiveFreqValue(v); GridIndex(f) < 0 {
			m[n] = f // out of range if the scheme had more off-grid values
			n++
		}
	}
	if n != MemoSize {
		panic("collision: the 5-frequency scheme has fewer off-grid values than memo slots")
	}
	return m
}()

// memoIndex returns f's memo slot: its grid index, else the slot of
// the scheme value it equals bit for bit, else −1, for which every
// lookup computes the formula.
func memoIndex(f float64) int {
	if i := GridIndex(f); i >= 0 {
		return i
	}
	for i := GridSize; i < MemoSize; i++ {
		if memoFreqs[i] == f {
			return i
		}
	}
	return -1
}

// inMemo reports whether both indices have memo slots.
func inMemo(i, k int) bool { return uint(i) < uint(MemoSize) && uint(k) < uint(MemoSize) }

// filled marks a memo slot as holding a value. The marginals are never
// negative, so the sign bit is free and a zero slot means "empty"; a
// value whose sign bit is set is not cached.
const filled = 1 << 63

// Marginals memoises PairProb and SpectatorProb on the memo
// frequencies (MemoSize: the grid and the 5-frequency scheme) for one
// (Params, σ): a slot holds the float64 the formula returned, so every
// sum built from lookups is bit-identical to the formula's. Slots fill
// lazily on first use — an eager fill of the MemoSize³ spectator values
// costs more than a short search spends in them — and atomically, so the
// scorers of concurrent proposals can share one memo. A spectator fill
// computes only condition 7: the conditions 5-6 term depends on (fi, fk)
// alone and has a table of its own. A lookup with a frequency outside
// the set (index −1) computes the formula.
//
// The tables hold ~451 KiB. Package freq keeps one process-wide memo at
// the design flow's (DefaultParams, yield.DefaultSigma), which every
// Algorithm 3 call at that pair reads across jobs; an Allocate call at
// any other pair builds its own, and a search run keeps one at its job's
// σ. The last two are dropped with their call or run.
type Marginals struct {
	params Params
	sigma  float64
	// pairs[j·MemoSize+k], specs[(j·MemoSize+i)·MemoSize+k] and
	// specs56[i·MemoSize+k] are the slots of PairProb, SpectatorProb and
	// its conditions 5-6 term (cond56Prob); nil tables make every
	// lookup compute the formula.
	pairs   *[MemoSize * MemoSize]atomic.Uint64
	specs   *[MemoSize * MemoSize * MemoSize]atomic.Uint64
	specs56 *[MemoSize * MemoSize]atomic.Uint64
}

// NewMarginals returns an empty memo for p at σ = sigma.
func NewMarginals(p Params, sigma float64) *Marginals {
	return &Marginals{
		params:  p,
		sigma:   sigma,
		pairs:   new([MemoSize * MemoSize]atomic.Uint64),
		specs:   new([MemoSize * MemoSize * MemoSize]atomic.Uint64),
		specs56: new([MemoSize * MemoSize]atomic.Uint64),
	}
}

// For reports whether m memoises the marginals of p at σ = sigma.
func (m *Marginals) For(p Params, sigma float64) bool {
	return m.params == p && m.sigma == sigma
}

// Pair returns p.PairProb(fj, fk, σ); j and k are the memo indices of
// fj and fk (memoIndex).
func (m *Marginals) Pair(fj, fk float64, j, k int) float64 {
	if m.pairs != nil && inMemo(j, k) {
		if b := m.pairs[j*MemoSize+k].Load(); b != 0 {
			return math.Float64frombits(b &^ filled)
		}
	}
	return m.pairMiss(fj, fk, j, k)
}

// pairMiss computes Pair's formula, filling the slot when in the memo.
func (m *Marginals) pairMiss(fj, fk float64, j, k int) float64 {
	v := m.params.PairProb(fj, fk, m.sigma)
	if m.pairs != nil && inMemo(j, k) {
		fill(&m.pairs[j*MemoSize+k], v)
	}
	return v
}

// Spectator returns p.SpectatorProb(fj, fi, fk, σ); j, i and k are the
// memo indices of fj, fi and fk.
func (m *Marginals) Spectator(fj, fi, fk float64, j, i, k int) float64 {
	if m.specs != nil && inMemo(j, i) && uint(k) < uint(MemoSize) {
		if b := m.specs[(j*MemoSize+i)*MemoSize+k].Load(); b != 0 {
			return math.Float64frombits(b &^ filled)
		}
	}
	return m.spectatorMiss(fj, fi, fk, j, i, k)
}

// spectatorMiss computes Spectator's value — the memoised conditions
// 5-6 term plus condition 7 by the formula, SpectatorProb's sum in its
// order — filling the slot when in the memo.
func (m *Marginals) spectatorMiss(fj, fi, fk float64, j, i, k int) float64 {
	if m.specs == nil {
		return m.params.SpectatorProb(fj, fi, fk, m.sigma)
	}
	v := m.cond56(fi, fk, i, k) + m.params.cond7Prob(fj, fi, fk, m.sigma)
	if inMemo(j, i) && uint(k) < uint(MemoSize) {
		fill(&m.specs[(j*MemoSize+i)*MemoSize+k], v)
	}
	return v
}

// cond56 returns p.cond56Prob(fi, fk, σ) through its table; i and k are
// the memo indices of fi and fk.
func (m *Marginals) cond56(fi, fk float64, i, k int) float64 {
	if !inMemo(i, k) {
		return m.params.cond56Prob(fi, fk, m.sigma)
	}
	slot := &m.specs56[i*MemoSize+k]
	if b := slot.Load(); b != 0 {
		return math.Float64frombits(b &^ filled)
	}
	v := m.params.cond56Prob(fi, fk, m.sigma)
	fill(slot, v)
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
		idx = append(idx, memoIndex(f))
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
