package collision

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"qproc/internal/arch"
)

// TestGridIndex checks that exactly the grid values map to their index:
// neighbouring floats, the off-grid 5-frequency scheme values and
// non-finite inputs are not candidates. The memo index agrees on the
// grid, gives every scheme value a slot, and leaves only the rest to
// the formula.
func TestGridIndex(t *testing.T) {
	g := Grid()
	if len(g) != GridSize || g[0] != GridLo || g[GridSize-1] != GridHi {
		t.Fatalf("grid %v", g)
	}
	for i, f := range g {
		if got, slot := GridIndex(f), memoIndex(f); got != i || slot != i {
			t.Errorf("GridIndex(%v) = %d, memoIndex %d, want %d", f, got, slot, i)
		}
		// f + GridStep/2 is scheme value 5.135 for f = 5.13: memoIndex
		// may give it that slot, never a grid one.
		for _, off := range []float64{math.Nextafter(f, 0), math.Nextafter(f, 10), f + GridStep/2} {
			if got, slot := GridIndex(off), memoIndex(off); got != -1 || slot != -1 && memoFreqs[slot] != off {
				t.Errorf("GridIndex(%v) = %d, memoIndex %d, want -1", off, got, slot)
			}
		}
	}
	offGrid := 0
	for v := 0; v < 5; v++ {
		f := arch.FiveFreqValue(v)
		slot := memoIndex(f)
		if slot < 0 || memoFreqs[slot] != f {
			t.Errorf("memoIndex(scheme value %v) = %d, want its slot", f, slot)
		}
		if GridIndex(f) < 0 {
			offGrid++
			if slot < GridSize {
				t.Errorf("memoIndex(off-grid scheme value %v) = %d, want a slot after the grid", f, slot)
			}
		}
		for _, off := range []float64{math.Nextafter(f, 0), math.Nextafter(f, 10)} {
			if got := memoIndex(off); got != -1 {
				t.Errorf("memoIndex(%v) = %d, want -1", off, got)
			}
		}
	}
	if offGrid != MemoSize-GridSize {
		t.Errorf("%d scheme values off the grid, memo has %d slots for them", offGrid, MemoSize-GridSize)
	}
	for _, f := range []float64{4.99, 5.35, 5.0675, 5.135, 5.2025, 0, -5.17,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := GridIndex(f); got != -1 {
			t.Errorf("GridIndex(%v) = %d, want -1", f, got)
		}
	}
	for _, f := range []float64{4.99, 5.35, 5.0676, 0, -5.17, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := memoIndex(f); got != -1 {
			t.Errorf("memoIndex(%v) = %d, want -1", f, got)
		}
	}
}

// memoSigmas are the σ values the memo differential tests sweep: the
// noise-free step functions and realistic fabrication spreads.
var memoSigmas = []float64{0, 0.02, 0.03, 0.045}

// TestMarginalsMatchFormula reads every pair and triple of memo
// frequencies — the grid and the 5-frequency scheme — through a fresh
// memo twice, cold, filling the slot, then warm, from it, and requires
// the formula's exact bits both times. After the cold pass every slot of
// the three tables must hold its formula value, so each warm read,
// scheme slots included, is served by the memo.
func TestMarginalsMatchFormula(t *testing.T) {
	p := DefaultParams()
	slot := func(v float64) uint64 { return math.Float64bits(v) | filled }
	for _, sigma := range memoSigmas {
		m := NewMarginals(p, sigma)
		for pass := 0; pass < 2; pass++ {
			for j, fj := range memoFreqs {
				for k, fk := range memoFreqs {
					got, want := m.Pair(fj, fk, j, k), p.PairProb(fj, fk, sigma)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("σ=%g pass %d: Pair(%v, %v) = %v, formula %v", sigma, pass, fj, fk, got, want)
					}
					for i, fi := range memoFreqs {
						got, want := m.Spectator(fj, fi, fk, j, i, k), p.SpectatorProb(fj, fi, fk, sigma)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("σ=%g pass %d: Spectator(%v, %v, %v) = %v, formula %v",
								sigma, pass, fj, fi, fk, got, want)
						}
					}
				}
			}
			if pass > 0 {
				continue
			}
			for j, fj := range memoFreqs {
				for k, fk := range memoFreqs {
					if got, want := m.pairs[j*MemoSize+k].Load(), slot(p.PairProb(fj, fk, sigma)); got != want {
						t.Fatalf("σ=%g: pair slot (%d, %d) holds %#x, want %#x", sigma, j, k, got, want)
					}
					if got, want := m.specs56[j*MemoSize+k].Load(), slot(p.cond56Prob(fj, fk, sigma)); got != want {
						t.Fatalf("σ=%g: conditions 5-6 slot (%d, %d) holds %#x, want %#x", sigma, j, k, got, want)
					}
					for i, fi := range memoFreqs {
						got, want := m.specs[(j*MemoSize+i)*MemoSize+k].Load(), slot(p.SpectatorProb(fj, fi, fk, sigma))
						if got != want {
							t.Fatalf("σ=%g: spectator slot (%d, %d, %d) holds %#x, want %#x", sigma, j, i, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMarginalsExpectedMatchesReference checks the allocator's path —
// Marginals.Expected over one memo reused across calls — against the
// formula-only ExpectedCollisions bit for bit, on assignments entirely
// on the grid, entirely off it, and mixed with 5-frequency scheme values.
func TestMarginalsExpectedMatchesReference(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(11))
	five := []float64{5.00, 5.0675, 5.135, 5.2025, 5.27}
	draws := []struct {
		name string
		draw func() float64
	}{
		{"on-grid", func() float64 { return grid[rng.Intn(GridSize)] }},
		{"off-grid", func() float64 { return 5.00 + 0.34*rng.Float64() }},
		{"mixed", func() float64 {
			switch rng.Intn(3) {
			case 0:
				return five[rng.Intn(len(five))]
			case 1:
				return 5.00 + 0.34*rng.Float64()
			}
			return grid[rng.Intn(GridSize)]
		}},
	}
	for _, sigma := range memoSigmas {
		m := NewMarginals(p, sigma)
		for _, d := range draws {
			name, draw := d.name, d.draw
			for trial := 0; trial < 60; trial++ {
				n := 3 + rng.Intn(40) // past the 32-qubit stack buffer too
				adj := randomAdj(rng, n, 0.3)
				freqs := make([]float64, n)
				for q := range freqs {
					freqs[q] = draw()
				}
				got, want := m.Expected(adj, freqs), ExpectedCollisions(adj, freqs, sigma, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s σ=%g trial %d: memo %v, reference %v", name, sigma, trial, got, want)
				}
			}
		}
	}
}

// randomAdj draws a symmetric coupling graph on n qubits with edge
// probability prob.
func randomAdj(rng *rand.Rand, n int, prob float64) [][]int {
	adj := make([][]int, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < prob {
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	return adj
}

// TestMarginalsConcurrentFill has 8 goroutines fill one memo at once,
// each walking the memo frequencies from a different starting point so
// that fills and reads of the same slot race, in all three tables; every
// read must carry the formula's bits. CI runs it under -race -count=10.
func TestMarginalsConcurrentFill(t *testing.T) {
	p := DefaultParams()
	const sigma = 0.03
	m := NewMarginals(p, sigma)
	const workers = 8
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < MemoSize; n++ {
				j := (n + 5*w) % MemoSize
				fj := memoFreqs[j]
				for k, fk := range memoFreqs {
					if math.Float64bits(m.Pair(fj, fk, j, k)) != math.Float64bits(p.PairProb(fj, fk, sigma)) {
						bad.Add(1)
					}
					for i, fi := range memoFreqs {
						got := m.Spectator(fj, fi, fk, j, i, k)
						if math.Float64bits(got) != math.Float64bits(p.SpectatorProb(fj, fi, fk, sigma)) {
							bad.Add(1)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d concurrent reads differ from the formula", n)
	}
}

// TestMemoSkipsSignedValues checks the empty-slot encoding: a value with
// its sign bit set is never cached, since a lookup strips the sign bit
// that marks a slot filled and would read it back wrong.
func TestMemoSkipsSignedValues(t *testing.T) {
	var slot atomic.Uint64
	if fill(&slot, math.Copysign(0, -1)); slot.Load() != 0 {
		t.Fatalf("-0 cached: slot %#x", slot.Load())
	}
	if fill(&slot, 0); slot.Load() != filled {
		t.Fatalf("+0 not cached as the filled marker: slot %#x", slot.Load())
	}
}
