package collision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPairConditions(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		name   string
		fj, fk float64
		want   []int
	}{
		{"cond1 exact", 5.10, 5.10, []int{1}},
		{"cond1 edge inside", 5.116, 5.10, []int{1}},
		{"cond1 edge outside", 5.118, 5.10, nil},
		{"cond2", 5.27, 5.10, []int{2}},
		{"cond2 outside", 5.275, 5.10, nil},
		{"cond3+4", 5.44, 5.10, []int{3, 4}},
		{"cond4 only", 5.50, 5.10, []int{4}},
		{"clean", 5.20, 5.10, nil},
		{"reverse clean", 5.10, 5.20, nil},
	}
	for _, c := range cases {
		got := p.PairConditions(c.fj, c.fk)
		if !equalInts(got, c.want) {
			t.Errorf("%s: PairConditions(%.3f,%.3f) = %v, want %v", c.name, c.fj, c.fk, got, c.want)
		}
		if p.Pair(c.fj, c.fk) != (len(c.want) > 0) {
			t.Errorf("%s: Pair inconsistent with PairConditions", c.name)
		}
	}
}

func TestSpectatorConditions(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		name       string
		fj, fi, fk float64
		want       []int
	}{
		{"cond5", 5.20, 5.10, 5.10, []int{5, 7}}, // fi=fk also makes 2fj+δ=10.06 vs 10.20: no... see below
		{"cond6", 5.20, 5.44, 5.10, []int{6}},
		{"cond7", 5.27, 5.10, 5.10, []int{5, 7}},
		{"clean", 5.20, 5.05, 5.12, nil},
	}
	// Recompute case 0 expectation: 2*5.20 - 0.34 = 10.06; fi+fk = 10.20;
	// |10.06-10.20| = 0.14 > 0.017 so cond7 does NOT fire there.
	cases[0].want = []int{5}
	for _, c := range cases {
		got := p.SpectatorConditions(c.fj, c.fi, c.fk)
		if !equalInts(got, c.want) {
			t.Errorf("%s: SpectatorConditions(%.3f,%.3f,%.3f) = %v, want %v",
				c.name, c.fj, c.fi, c.fk, got, c.want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// conditionCount counts the condition instances post triggers with the
// gates oriented by design, through PairConditions and
// SpectatorConditions: the per-fabrication quantity whose mean
// ExpectedCollisions prices in closed form.
func conditionCount(adj [][]int, design, post []float64, p Params) int {
	n := 0
	for a, nbrs := range adj {
		for _, b := range nbrs {
			if b <= a {
				continue
			}
			ctl, tgt := orient(a, b, design)
			n += len(p.PairConditions(post[ctl], post[tgt]))
			for _, i := range adj[ctl] {
				if i != tgt {
					n += len(p.SpectatorConditions(post[ctl], post[i], post[tgt]))
				}
			}
		}
	}
	return n
}

// TestCollidesOrientation verifies the control is the higher design
// frequency: condition 2 (fj ≅ fk − δ/2) must be evaluated with j above.
// Equal design frequencies hand the gate to the lower index.
func TestCollidesOrientation(t *testing.T) {
	p := DefaultParams()
	adj := [][]int{{1}, {0}}
	// Separation exactly 0.17: collides only in the high-controls-low
	// orientation (cond2), which the design convention picks.
	design := []float64{5.10, 5.27}
	k := NewKernel(adj, p)
	if ctl, tgt, specs := k.Orient(0, design); k.NumEdges() != 1 || ctl != 1 || tgt != 0 || len(specs) != 0 {
		t.Fatalf("edges=%d orient=(%d,%d) spectators=%v", k.NumEdges(), ctl, tgt, specs)
	}
	if !p.Collides(adj, design, design) {
		t.Fatal("0.17 separation must trigger condition 2 with the high-frequency control")
	}
	// Separation 0.10 is clean in the designated orientation.
	clean := []float64{5.10, 5.20}
	if p.Collides(adj, clean, clean) {
		t.Fatal("0.10 separation should be collision-free")
	}
	tied := []float64{5.10, 5.10}
	if ctl, tgt := orient(1, 0, tied); ctl != 0 || tgt != 1 {
		t.Fatalf("tied orient(1, 0) = (%d, %d), want (0, 1)", ctl, tgt)
	}
}

func TestCollidesSpectators(t *testing.T) {
	p := DefaultParams()
	// Star: hub 0 with leaves 1, 2. Hub frequency above both => hub
	// controls both gates; each gate sees the other leaf as spectator.
	adj := [][]int{{1, 2}, {0}, {0}}
	design := []float64{5.30, 5.20, 5.21}
	k := NewKernel(adj, p)
	for e := 0; e < k.NumEdges(); e++ {
		if ctl, _, specs := k.Orient(e, design); ctl != 0 || len(specs) != 1 {
			t.Fatalf("edge %d: control %d with spectators %v, want hub 0 with one", e, ctl, specs)
		}
	}
	// Leaves 0.01 apart: spectator condition 5.
	if !p.Collides(adj, design, design) {
		t.Fatal("near-degenerate spectators must collide")
	}
	spread := []float64{5.30, 5.12, 5.22}
	if p.Collides(adj, spread, spread) {
		t.Fatal("spread spectators should be clean")
	}
}

func TestCountMatchesCollides(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(5))
	adj := [][]int{{1, 2}, {0, 2}, {0, 1, 3}, {2}}
	for trial := 0; trial < 200; trial++ {
		f := make([]float64, 4)
		for i := range f {
			f[i] = 5.0 + 0.4*rng.Float64()
		}
		if (conditionCount(adj, f, f, p) > 0) != p.Collides(adj, f, f) {
			t.Fatalf("condition count and Collides disagree on %v", f)
		}
	}
}

// TestExpectedMatchesMonteCarlo cross-validates the closed-form expected
// collision count against a direct Monte-Carlo estimate of the same sum.
func TestExpectedMatchesMonteCarlo(t *testing.T) {
	p := DefaultParams()
	adj := [][]int{{1, 2}, {0, 2}, {0, 1}}
	design := []float64{5.05, 5.17, 5.29}
	sigma := 0.030
	want := ExpectedCollisions(adj, design, sigma, p)

	rng := rand.New(rand.NewSource(11))
	const trials = 200000
	sum := 0.0
	post := make([]float64, len(design))
	for i := 0; i < trials; i++ {
		for q := range post {
			post[q] = design[q] + rng.NormFloat64()*sigma
		}
		sum += float64(conditionCount(adj, design, post, p))
	}
	got := sum / trials
	if math.Abs(got-want) > 0.02*math.Max(1, want)+0.01 {
		t.Fatalf("MC expected count %.4f vs analytic %.4f", got, want)
	}
}

// TestExpectedMonotoneInSigma: more fabrication noise can only increase
// the expected collision count for a well-separated plan.
func TestExpectedMonotoneInSigma(t *testing.T) {
	p := DefaultParams()
	adj := [][]int{{1}, {0, 2}, {1}}
	design := []float64{5.06, 5.16, 5.26}
	prev := -1.0
	for _, sigma := range []float64{0.005, 0.015, 0.030, 0.060, 0.130} {
		e := ExpectedCollisions(adj, design, sigma, p)
		if e < prev {
			t.Fatalf("expected count decreased at sigma=%.3f: %.4f < %.4f", sigma, e, prev)
		}
		prev = e
	}
}

// TestWindowProbProperties property-checks the Gaussian window helper:
// probabilities lie in [0,1] and peak when the window is centred.
func TestWindowProbProperties(t *testing.T) {
	f := func(x, c int8) bool {
		xf, cf := float64(x)/100, float64(c)/100
		pr := windowProb(xf, cf, 0.017, 0.042)
		centered := windowProb(cf, cf, 0.017, 0.042)
		return pr >= 0 && pr <= 1 && pr <= centered+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestZeroSigmaDegeneratesToIndicator: with no noise the analytic model
// reduces to the deterministic conditions.
func TestZeroSigmaDegeneratesToIndicator(t *testing.T) {
	p := DefaultParams()
	adj := [][]int{{1}, {0}}
	collide := []float64{5.10, 5.10}
	clean := []float64{5.10, 5.20}
	if e := ExpectedCollisions(adj, collide, 0, p); e < 1 {
		t.Fatalf("degenerate pair expected count = %.2f, want >= 1", e)
	}
	if e := ExpectedCollisions(adj, clean, 0, p); e != 0 {
		t.Fatalf("clean pair expected count = %.2f, want 0", e)
	}
}

func TestOneShotHelpers(t *testing.T) {
	p := DefaultParams()
	adj := [][]int{{1}, {0}}
	bad := []float64{5.10, 5.10}
	if !p.Collides(adj, bad, bad) {
		t.Fatal("Collides missed a degenerate pair")
	}
	if ExpectedCollisions(adj, bad, 0.03, p) <= 0 {
		t.Fatal("ExpectedCollisions returned nonpositive for colliding plan")
	}
}
