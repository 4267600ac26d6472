package freq_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/freq"
	"qproc/internal/gen"
	"qproc/internal/topology"
)

// baseLayouts returns the bus-free layout of every built-in benchmark,
// the layout the k=0 design of each series and each search seed
// allocation start from.
func baseLayouts(t *testing.T) map[string]*arch.Architecture {
	t.Helper()
	out := map[string]*arch.Architecture{}
	for _, b := range gen.Suite() {
		base, _, err := core.NewFlow(1).BaseLayout(b.Build(), 0)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		out[b.Name] = base
	}
	return out
}

// sameBits reports whether two assignments are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAllocateSharedTableConcurrent has 8 goroutines allocate every
// benchmark's bus-free layout at once through the process-wide table,
// each starting at a different layout so that fills and reads of the
// same slots race. Every assignment must equal, bit for bit, a serial
// run's over a table of its own. CI runs it under -race -count=5.
func TestAllocateSharedTableConcurrent(t *testing.T) {
	layouts := baseLayouts(t)
	names := make([]string, 0, len(layouts))
	for _, b := range gen.Suite() {
		names = append(names, b.Name)
	}
	freq.ResetShared()
	want := map[string][]float64{}
	for _, name := range names {
		want[name] = freq.NewAllocator(1).Allocate(layouts[name])
	}

	freq.ResetShared()
	const workers = 8
	got := make([][][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([][]float64, len(names))
			for i := range names {
				k := (w + i) % len(names)
				got[w][k] = freq.NewAllocator(1).Allocate(layouts[names[k]])
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for k, name := range names {
			if !sameBits(got[w][k], want[name]) {
				t.Fatalf("goroutine %d, %s: %v, serial %v", w, name, got[w][k], want[name])
			}
		}
	}
}

// TestAllocateOtherPairSkipsSharedTable: an allocator at another σ or
// other Params must not read the table of the default pair. At σ = 0.05
// every benchmark's bus-free layout gets another assignment than at the
// default σ, and so does one with a wider condition-1 threshold; an
// allocator that read the default table would reproduce the default
// assignment.
func TestAllocateOtherPairSkipsSharedTable(t *testing.T) {
	wide := collision.DefaultParams()
	wide.T1 *= 2
	for name, base := range baseLayouts(t) {
		def := freq.NewAllocator(1).Allocate(base)
		sigma := freq.NewAllocator(1)
		sigma.Sigma = 0.05
		if got := sigma.Allocate(base); sameBits(got, def) {
			t.Errorf("%s: σ = 0.05 allocates the default σ's assignment %v", name, got)
		}
		params := freq.NewAllocator(1)
		params.Params = wide
		if got := params.Allocate(base); sameBits(got, def) {
			t.Errorf("%s: a doubled condition-1 threshold allocates the default assignment %v", name, got)
		}
	}
}

// TestBestCandidateMatchesLiteral pins Algorithm 3's pruned analytic
// pick to the literal loop over every candidate (Allocator.Picks), bit
// for bit, under the square, coupler and chimera reaches, at
// σ ∈ {0, 0.01, 0.03}, with and without an incumbent, over partly and
// fully assigned layouts whose frequencies are drawn on the grid, from
// the 5-frequency scheme (mostly off the grid) and uniformly, with some
// qubits tied to a neighbour's frequency.
func TestBestCandidateMatchesLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grid := freq.Candidates()
	draw := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return arch.FiveFreqValue(rng.Intn(5))
		case 1:
			return 5.00 + 0.34*rng.Float64()
		default:
			return grid[rng.Intn(len(grid))]
		}
	}
	c, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []string{"", "coupler", "chimera(2,2,4)"} {
		fam, err := topology.Parse(topo)
		if err != nil {
			t.Fatal(err)
		}
		flow := core.NewFlow(1)
		flow.Family = fam
		var layouts []*arch.Architecture
		if topology.IsSquare(fam) {
			designs, err := flow.Series(c.Build(), 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range designs {
				layouts = append(layouts, d.Arch)
			}
		} else {
			base, _, err := flow.BaseLayout(c.Build(), 0)
			if err != nil {
				t.Fatal(err)
			}
			layouts = append(layouts, base)
		}
		for li, a := range layouts {
			adj := a.AdjList()
			n := a.NumQubits()
			for _, sigma := range []float64{0, 0.01, 0.03} {
				al := flow.Allocator()
				al.Sigma = sigma
				for round := 0; round < 4; round++ {
					freqs := make([]float64, n)
					assigned := make([]bool, n)
					for q := range freqs {
						freqs[q] = draw()
						assigned[q] = round == 0 || rng.Intn(3) > 0
					}
					for q := range freqs {
						if rng.Intn(6) == 0 && len(adj[q]) > 0 {
							freqs[q] = freqs[adj[q][rng.Intn(len(adj[q]))]]
						}
					}
					for qi := 0; qi < n; qi++ {
						for _, incumbent := range []float64{math.NaN(), freqs[qi]} {
							pruned, literal := al.Picks(adj, freqs, assigned, qi, incumbent)
							if math.Float64bits(pruned) != math.Float64bits(literal) {
								t.Fatalf("%q layout %d σ=%g round %d q%d incumbent %v: pick %v, literal loop %v",
									topo, li, sigma, round, qi, incumbent, pruned, literal)
							}
						}
					}
				}
			}
		}
	}
}
