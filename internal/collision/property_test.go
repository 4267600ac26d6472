package collision

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestExpectedNonNegativeAndBounded: the expected collision count is a
// sum of probabilities, so 0 ≤ E ≤ 4·pairs + 3·triples.
func TestExpectedNonNegativeAndBounded(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		adj := randomGraph(rng, n)
		freqs := make([]float64, n)
		for i := range freqs {
			freqs[i] = 5.0 + 0.34*rng.Float64()
		}
		e := ExpectedCollisions(adj, freqs, 0.02+0.1*rng.Float64(), p)
		k := NewKernel(adj, p)
		bound := 0.0
		for i := 0; i < k.NumEdges(); i++ {
			_, _, specs := k.Orient(i, freqs)
			bound += float64(4 + 3*len(specs))
		}
		return e >= 0 && e <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestExpectedMonotoneUnderEdges: adding a coupling can never decrease
// the expected collision count — the paper's connections-vs-yield
// trade-off in analytic form.
func TestExpectedMonotoneUnderEdges(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(7)
		adj := randomGraph(rng, n)
		freqs := make([]float64, n)
		for i := range freqs {
			freqs[i] = 5.0 + 0.34*rng.Float64()
		}
		sigma := 0.03
		base := ExpectedCollisions(adj, freqs, sigma, p)
		// Add one absent edge, if any.
		var a, b int
		found := false
		for attempt := 0; attempt < 40 && !found; attempt++ {
			a, b = rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			present := false
			for _, nb := range adj[a] {
				if nb == b {
					present = true
				}
			}
			if !present {
				found = true
			}
		}
		if !found {
			continue
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
		grown := ExpectedCollisions(adj, freqs, sigma, p)
		if grown < base-1e-12 {
			t.Fatalf("adding edge (%d,%d) reduced expected collisions: %.6f -> %.6f", a, b, base, grown)
		}
	}
}

// TestCollidesConsistentWithExpectedZero: an assignment with zero
// expected collisions at σ=0 must be collision-free, and vice versa.
func TestCollidesConsistentWithExpectedZero(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		adj := randomGraph(rng, n)
		freqs := make([]float64, n)
		for i := range freqs {
			freqs[i] = 5.0 + 0.34*rng.Float64()
		}
		e := ExpectedCollisions(adj, freqs, 0, p)
		collides := p.Collides(adj, freqs, freqs)
		if (e > 0) != collides {
			t.Fatalf("E(σ=0)=%.3f but Collides=%v for %v", e, collides, freqs)
		}
	}
}

// randomGraph draws a random simple undirected graph as adjacency lists.
func randomGraph(rng *rand.Rand, n int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}
