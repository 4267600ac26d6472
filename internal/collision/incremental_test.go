package collision

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomFreqs draws an assignment inside the allowed interval.
// (randomGraph lives in property_test.go.)
func randomFreqs(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for q := range f {
		f[q] = 5.00 + 0.34*rng.Float64()
	}
	return f
}

// TestIncrementalMatchesExpectedCollisions drives a scorer through random
// single- and multi-qubit updates and checks its Score against a fresh
// ExpectedCollisions recomputation after every step. Exact equality is not
// required (summation order differs), but agreement must be far below any
// physically meaningful difference.
func TestIncrementalMatchesExpectedCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := DefaultParams()
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(12)
		adj := randomGraph(rng, n)
		freqs := randomFreqs(rng, n)
		sigma := 0.01 + 0.05*rng.Float64()
		inc := NewIncremental(adj, freqs, sigma, p)
		check := func(step string) {
			want := ExpectedCollisions(adj, inc.Freqs(), sigma, p)
			got := inc.Score()
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d %s: incremental %.15g, full %.15g", trial, step, got, want)
			}
		}
		check("initial")
		for step := 0; step < 30; step++ {
			if rng.Intn(3) == 0 {
				// Multi-qubit region update.
				k := 1 + rng.Intn(3)
				qs := make([]int, 0, k)
				vs := make([]float64, 0, k)
				seen := map[int]bool{}
				for len(qs) < k {
					q := rng.Intn(n)
					if seen[q] {
						continue
					}
					seen[q] = true
					qs = append(qs, q)
					vs = append(vs, 5.00+0.34*rng.Float64())
				}
				inc.Set(qs, vs)
			} else {
				inc.Set1(rng.Intn(n), 5.00+0.34*rng.Float64())
			}
			check("after update")
		}
	}
}

// TestIncrementalPreviewIsNonDestructive checks Preview1 leaves the scorer
// bit-identical to an untouched twin.
func TestIncrementalPreviewIsNonDestructive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj := randomGraph(rng, 10)
	freqs := randomFreqs(rng, 10)
	inc := NewIncremental(adj, freqs, 0.03, DefaultParams())
	before := inc.Score()
	for q := 0; q < 10; q++ {
		inc.Preview1(q, 5.17)
	}
	if got := inc.Score(); got != before {
		t.Fatalf("score drifted after previews: %.17g vs %.17g", got, before)
	}
	for q := range freqs {
		if inc.Freq(q) != freqs[q] {
			t.Fatalf("qubit %d frequency drifted: %g vs %g", q, inc.Freq(q), freqs[q])
		}
	}
}

// TestIncrementalRescoresOnlyDependents checks the point of the structure:
// a single-qubit update re-scores only the bundles within reach of that
// qubit, not the whole graph.
func TestIncrementalRescoresOnlyDependents(t *testing.T) {
	// Path graph 0-1-2-...-19: an update at one end must not touch the
	// bundles at the other.
	n := 20
	adj := make([][]int, n)
	for q := 0; q < n-1; q++ {
		adj[q] = append(adj[q], q+1)
		adj[q+1] = append(adj[q+1], q)
	}
	freqs := make([]float64, n)
	for q := range freqs {
		freqs[q] = 5.0 + 0.01*float64(q)
	}
	inc := NewIncremental(adj, freqs, 0.03, DefaultParams())
	base := inc.Rescored()
	inc.Set1(0, 5.3)
	// Qubit 0 can affect edges (0,1) and (1,2) only: it is an endpoint of
	// the first and a spectator candidate of the second.
	if got := inc.Rescored() - base; got > 2 {
		t.Fatalf("end-of-path update re-scored %d bundles, want <= 2", got)
	}
	full := NewIncremental(adj, inc.Freqs(), 0.03, DefaultParams())
	if math.Abs(inc.Score()-full.Score()) > 1e-12 {
		t.Fatalf("partial re-score diverged: %g vs %g", inc.Score(), full.Score())
	}
}

// TestIncrementalClone checks clones evolve independently.
func TestIncrementalClone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adj := randomGraph(rng, 8)
	inc := NewIncremental(adj, randomFreqs(rng, 8), 0.03, DefaultParams())
	clone := inc.Clone()
	if clone.Score() != inc.Score() {
		t.Fatalf("clone score %g != original %g", clone.Score(), inc.Score())
	}
	clone.Set1(0, 5.34)
	if clone.Freq(0) == inc.Freq(0) {
		t.Fatal("clone update leaked into the original")
	}
	want := ExpectedCollisions(adj, clone.Freqs(), 0.03, DefaultParams())
	if math.Abs(clone.Score()-want) > 1e-9 {
		t.Fatalf("clone score %g, full recompute %g", clone.Score(), want)
	}
}

// TestIncrementalSharedMemoMatchesFormula has several goroutines walk
// scorers over one shared, lazily filled memo — Set1, multi-qubit Set,
// Preview1 and Clone — while each mirrors its walk on a scorer whose
// memo has no tables, so that every term is priced by the formula.
// Frequencies come from the grid, the off-grid 5-frequency values and
// values off the memo, so one bundle mixes slotted and unslotted
// spectators, and its row reads race the other walks' fills. Every score
// must equal the formula walk's bit for bit. CI runs it under
// -race -count=10.
func TestIncrementalSharedMemoMatchesFormula(t *testing.T) {
	p := DefaultParams()
	const sigma = 0.03
	shared := NewMarginals(p, sigma)
	formula := &Marginals{params: p, sigma: sigma}
	pool := append(Grid(), memoFreqs[GridSize:]...)
	pool = append(pool, 5.0049, 5.1337, 5.21, 5.2999, 5.3333)
	const workers = 6
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = walkSharedMemo(rand.New(rand.NewSource(int64(40+w))), shared, formula, pool)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// walkSharedMemo runs one worker of TestIncrementalSharedMemoMatchesFormula:
// random graphs and moves drawn from pool, scored through memo and
// through formula in lockstep.
func walkSharedMemo(rng *rand.Rand, memo, formula *Marginals, pool []float64) error {
	draw := func() float64 { return pool[rng.Intn(len(pool))] }
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(10)
		adj := randomGraph(rng, n)
		freqs := make([]float64, n)
		for q := range freqs {
			freqs[q] = draw()
		}
		got := NewIncrementalWith(adj, freqs, memo)
		want := NewIncrementalWith(adj, freqs, formula)
		for step := 0; step < 60; step++ {
			var g, w float64
			var op string
			switch q := rng.Intn(n); rng.Intn(4) {
			case 0:
				f := draw()
				op = fmt.Sprintf("preview1 q%d=%v", q, f)
				g, w = got.Preview1(q, f), want.Preview1(q, f)
			case 1:
				f := draw()
				op = fmt.Sprintf("set1 q%d=%v", q, f)
				got.Set1(q, f)
				want.Set1(q, f)
			case 2:
				qs := []int{q, (q + 1 + rng.Intn(n-1)) % n}
				vs := []float64{draw(), draw()}
				op = fmt.Sprintf("set %v=%v", qs, vs)
				got.Set(qs, vs)
				want.Set(qs, vs)
			case 3:
				op = "clone"
				got, want = got.Clone(), want.Clone()
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("trial %d step %d %s: memo %.17g, formula %.17g", trial, step, op, g, w)
			}
			if g, w := got.Score(), want.Score(); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("trial %d step %d %s: score %.17g, formula %.17g", trial, step, op, g, w)
			}
		}
	}
	return nil
}
