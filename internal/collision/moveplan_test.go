package collision_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qproc/internal/collision"
)

// literalBest is the loop MovePlan.Best stands in for: every candidate's
// literal score, the incumbent first and winning ties, then the grid in
// ascending order on strict improvement only.
func literalBest(incumbent float64, literal func(float64) float64) (best, bestE float64) {
	best, bestE = math.NaN(), math.Inf(1)
	if !math.IsNaN(incumbent) {
		best, bestE = incumbent, literal(incumbent)
	}
	for _, f := range collision.Grid() {
		if e := literal(f); e < bestE {
			best, bestE = f, e
		}
	}
	return best, bestE
}

// busCliques returns a w×h square lattice in which some unit squares are
// 4-qubit buses: both diagonals added, so the four qubits form a clique.
func busCliques(rng *rand.Rand, w, h int) [][]int {
	adj := make([][]int, w*h)
	link := func(a, b int) {
		for _, x := range adj[a] {
			if x == b {
				return
			}
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			q := y*w + x
			if x+1 < w {
				link(q, q+1)
			}
			if y+1 < h {
				link(q, q+w)
			}
			if x+1 < w && y+1 < h && rng.Intn(3) == 0 {
				link(q, q+w+1)
				link(q+1, q+w)
			}
		}
	}
	return adj
}

// planCases are the property test's graphs: the analytic golden's sparse,
// dense (degree ≥ 6) and tied cases on and off the grid, plus lattices
// with 4-qubit bus cliques.
func planCases() []goldenCase {
	cases := goldenCases(7, onGrid)
	for _, c := range goldenCases(8, offGrid) {
		c.name = "offgrid-" + c.name
		cases = append(cases, c)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4; i++ {
		adj := busCliques(rng, 3+rng.Intn(2), 3+rng.Intn(2))
		f := make([]float64, len(adj))
		for q := range f {
			f[q] = onGrid(rng)
		}
		cases = append(cases, goldenCase{fmt.Sprintf("bus-%d", i), adj, f})
	}
	return cases
}

// TestMovePlanBestMatchesLiteral pins MovePlan.Best to the literal loop
// bit for bit, pick and score, for both literal scores it stands in for:
// Marginals.Expected over the whole graph (Algorithm 3's) and
// Incremental.Preview1 (the search's repair), with and without an
// incumbent, at σ ∈ {0, 0.01, 0.03}. At σ = 0 and 0.01 many candidates'
// moving terms are all exactly 0, incumbents' too. It also checks that
// the plan's moving sum accounts for every difference between two
// candidates' literal scores, and that the pruning calls the literal
// score for fewer than a third of the candidates.
func TestMovePlanBestMatchesLiteral(t *testing.T) {
	p := collision.DefaultParams()
	grid := collision.Grid()
	var picks, calls, zeroIncumbents int
	for _, c := range planCases() {
		for _, sigma := range []float64{0, 0.01, 0.03} {
			memo := collision.NewMarginals(p, sigma)
			inc := collision.NewIncrementalWith(c.adj, c.freqs, memo)
			var pl collision.MovePlan
			freqs := append([]float64(nil), c.freqs...)
			for q := range c.adj {
				at := func(f float64) float64 {
					freqs[q] = f
					e := memo.Expected(c.adj, freqs)
					freqs[q] = c.freqs[q]
					return e
				}
				preview := func(f float64) float64 { return inc.Preview1(q, f) }
				counted := func(lit func(float64) float64) func(float64) float64 {
					return func(f float64) float64 { calls++; return lit(f) }
				}
				name := fmt.Sprintf("%s σ=%g q%d", c.name, sigma, q)

				pl.Plan(memo, c.adj, c.freqs, q)
				mv := pl.Moving()
				base := at(grid[0])
				for i, f := range grid {
					d, dm := at(f)-base, mv[i]-mv[0]
					if math.Abs(d-dm) > 1e-12*(1+base) {
						t.Fatalf("%s f=%v: literal moves by %v, plan by %v", name, f, d, dm)
					}
				}
				if i := collision.GridIndex(c.freqs[q]); i >= 0 && mv[i] == 0 {
					zeroIncumbents++
				}
				for _, incumbent := range []float64{math.NaN(), c.freqs[q]} {
					wantF, wantE := literalBest(incumbent, at)
					pl.Plan(memo, c.adj, c.freqs, q)
					gotF, gotE := pl.Best(incumbent, counted(at))
					picks++
					if !sameFloat(gotF, wantF) || !sameFloat(gotE, wantE) {
						t.Fatalf("%s incumbent %v: Expected pick (%v, %v), literal loop (%v, %v)",
							name, incumbent, gotF, gotE, wantF, wantE)
					}
					wantF, wantE = literalBest(incumbent, preview)
					ipl := inc.Plan(q)
					gotF, gotE = ipl.Best(incumbent, counted(preview))
					picks++
					if !sameFloat(gotF, wantF) || !sameFloat(gotE, wantE) {
						t.Fatalf("%s incumbent %v: Preview1 pick (%v, %v), literal loop (%v, %v)",
							name, incumbent, gotF, gotE, wantF, wantE)
					}
				}
			}
		}
	}
	if zeroIncumbents == 0 {
		t.Fatal("no incumbent had all its moving terms 0")
	}
	if 3*calls > picks*len(grid) {
		t.Fatalf("%d literal scores for %d picks of %d candidates", calls, picks, len(grid))
	}
	t.Logf("%d literal scores for %d picks (%.2f each); %d incumbents with moving terms 0",
		calls, picks, float64(calls)/float64(picks), zeroIncumbents)
}

// sameFloat reports whether a and b have the same bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
