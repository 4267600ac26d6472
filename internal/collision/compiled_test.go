package collision

import (
	"math"
	"math/rand"
	"testing"
)

// edgeFails is edge e's kernel verdict for one fabrication: EdgeFailsBits
// over a one-trial noise column, so qubit q's post-fabrication frequency
// is design[q] + noise[q], formed exactly as the Monte-Carlo paths form it.
func edgeFails(k *Kernel, e int, design, noise []float64) bool {
	cols := make([][]float64, len(noise))
	for q := range cols {
		cols[q] = noise[q : q+1]
	}
	var bit [1]uint64
	k.EdgeFailsBits(e, design, cols, 0, 1, bit[:])
	return bit[0] != 0
}

// TestCompiledCollidesMatchesReference drives the compiled kernel's
// OR-over-edges verdict against the literal per-condition loop,
// Params.Collides, on randomized graphs, design assignments and noisy
// post-fabrication frequencies. Each kernel is compiled once while design
// frequencies move underneath it, so edge orientations flip and the
// kernel must re-derive its spectator sets; every fifth fabrication puts
// one gate exactly onto the condition-1 boundary, where a single
// mis-rounded or non-strict comparison would flip the verdict.
func TestCompiledCollidesMatchesReference(t *testing.T) {
	p := DefaultParams()
	// A dyadic T1 (15.6 MHz, near Fig. 3's 17) keeps post[tgt] + T1 exact
	// at 5 GHz, so a boundary fabrication has |fj − fk| = T1 exactly; with
	// 0.017 the sum rounds and the boundary is never hit.
	p.T1 = 1.0 / 64
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(10)
		adj := randomGraph(rng, n)
		design := randomFreqs(rng, n)
		k := NewKernel(adj, p)
		noise := make([]float64, n)
		post := make([]float64, n)
		for rep := 0; rep < 20; rep++ {
			if rep%2 == 1 {
				design[rng.Intn(n)] = 5.00 + 0.34*rng.Float64()
			}
			for q := range noise {
				noise[q] = rng.NormFloat64() * 0.03
			}
			boundary := rep%5 == 4 && k.NumEdges() > 0
			var ctl, tgt int32
			if boundary {
				// post[ctl] = post[tgt] + T1. Both frequencies sit near
				// 5 GHz, so the subtraction is exact (Sterbenz) and
				// design[ctl] + noise[ctl] lands on the sum bit for bit.
				ctl, tgt, _ = k.Orient(0, design)
				noise[ctl] = design[tgt] + noise[tgt] + p.T1 - design[ctl]
			}
			for q := range post {
				post[q] = design[q] + noise[q]
			}
			if boundary && post[ctl]-post[tgt] != p.T1 {
				t.Fatalf("trial %d rep %d: boundary construction missed: %v - %v != T1", trial, rep, post[ctl], post[tgt])
			}
			kernel := false
			for e := 0; e < k.NumEdges(); e++ {
				kernel = kernel || edgeFails(k, e, design, noise)
			}
			if want := p.Collides(adj, design, post); kernel != want {
				t.Fatalf("trial %d rep %d: kernel=%v reference=%v\nadj=%v design=%v post=%v",
					trial, rep, kernel, want, adj, design, post)
			}
		}
	}
}

// TestKernelMatchesChecker checks the edge-bundle kernel's OR-over-edges
// verdict equals the reference collision check, Params.Collides, while a
// design-frequency move before every fabrication flips edge orientations
// under a kernel compiled once: the kernel must re-derive each gate's
// control and spectator set per call, exactly as the reference loop
// re-orients from the current design. The flips must actually happen,
// otherwise the test proves nothing about re-orientation.
func TestKernelMatchesChecker(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(99))
	flips := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		adj := randomGraph(rng, n)
		design := randomFreqs(rng, n)
		k := NewKernel(adj, p)
		ctls := make([]int32, k.NumEdges())
		for e := range ctls {
			ctls[e], _, _ = k.Orient(e, design)
		}
		noise := make([]float64, n)
		post := make([]float64, n)
		for rep := 0; rep < 10; rep++ {
			design[rng.Intn(n)] = 5.00 + 0.34*rng.Float64()
			for e := range ctls {
				if ctl, _, _ := k.Orient(e, design); ctl != ctls[e] {
					ctls[e] = ctl
					flips++
				}
			}
			for q := range noise {
				noise[q] = rng.NormFloat64() * 0.03
				post[q] = design[q] + noise[q]
			}
			kernel := false
			for e := 0; e < k.NumEdges(); e++ {
				kernel = kernel || edgeFails(k, e, design, noise)
			}
			if want := p.Collides(adj, design, post); kernel != want {
				t.Fatalf("trial %d rep %d: kernel=%v checker=%v\nadj=%v design=%v post=%v",
					trial, rep, kernel, want, adj, design, post)
			}
		}
	}
	if flips == 0 {
		t.Fatal("no design move ever flipped an edge orientation")
	}
}

// TestKernelDepsCoverVerdictChanges property-checks the dependency lists:
// moving one qubit's design frequency must leave every edge outside
// Deps(q) with an unchanged verdict (the contract incremental
// re-estimation relies on).
func TestKernelDepsCoverVerdictChanges(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		adj := randomGraph(rng, n)
		design := randomFreqs(rng, n)
		noise := make([]float64, n)
		for q := range noise {
			noise[q] = rng.NormFloat64() * 0.03
		}
		k := NewKernel(adj, p)
		before := make([]bool, k.NumEdges())
		for e := range before {
			before[e] = edgeFails(k, e, design, noise)
		}
		q := rng.Intn(n)
		design[q] = 5.00 + 0.34*rng.Float64()
		noise[q] = rng.NormFloat64() * 0.03
		dep := map[int32]bool{}
		for _, e := range k.Deps(q) {
			dep[e] = true
		}
		for e := 0; e < k.NumEdges(); e++ {
			if dep[int32(e)] {
				continue
			}
			if got := edgeFails(k, e, design, noise); got != before[e] {
				t.Fatalf("trial %d: edge %d outside Deps(%d) changed verdict %v -> %v",
					trial, e, q, before[e], got)
			}
		}
	}
}

// TestAnalyticGuardsBitIdentical checks the erf-saturation fast paths in
// windowProb and PairProb return bit-identical values to the unguarded
// formulas, across random inputs and the guard boundary itself. The
// guard's premise — math.Erf is exactly ±1 beyond |x| ≥ phiSat/√2 — is
// asserted directly.
func TestAnalyticGuardsBitIdentical(t *testing.T) {
	if math.Erf(phiSat/math.Sqrt2) != 1 || math.Erf(-phiSat/math.Sqrt2) != -1 {
		t.Fatalf("math.Erf no longer saturates at ±%g/√2; the windowProb guard is unsound", phiSat)
	}
	for _, x := range []float64{phiSat, phiSat * 2, 50, 1e6, 1e300} {
		if phi(x) != 1 || phi(-x) != 0 {
			t.Fatalf("phi(±%g) = %g/%g, want 1/0", x, phi(x), phi(-x))
		}
	}
	unguardedWindow := func(x, center, threshold, sd float64) float64 {
		if sd <= 0 {
			if diff := math.Abs(x - center); diff < threshold {
				return 1
			}
			return 0
		}
		return phi((center+threshold-x)/sd) - phi((center-threshold-x)/sd)
	}
	p := DefaultParams()
	unguardedPair := func(fj, fk, sigma float64) float64 {
		sd := sigma * math.Sqrt2
		d := fj - fk
		pr := unguardedWindow(d, 0, p.T1, sd) +
			unguardedWindow(d, -p.Delta/2, p.T2, sd) +
			unguardedWindow(d, -p.Delta, p.T3, sd)
		if sd > 0 {
			pr += 1 - phi((-p.Delta-d)/sd)
		} else if d > -p.Delta {
			pr += 1
		}
		return pr
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20000; trial++ {
		x := rng.Float64()*2 - 1 // spans far beyond any window at small sd
		center := []float64{0, -p.Delta / 2, -p.Delta}[rng.Intn(3)]
		threshold := []float64{p.T1, p.T2, p.T3, p.T5}[rng.Intn(4)]
		sd := math.Pow(10, -4+3*rng.Float64()) // 1e-4 .. 1e-1
		if got, want := windowProb(x, center, threshold, sd), unguardedWindow(x, center, threshold, sd); got != want {
			t.Fatalf("windowProb(%g,%g,%g,%g) = %g, unguarded %g", x, center, threshold, sd, got, want)
		}
		fj, fk := 5+0.34*rng.Float64(), 5+0.34*rng.Float64()
		sigma := []float64{0, 0.001, 0.01, 0.03, 0.1}[rng.Intn(5)]
		if got, want := p.PairProb(fj, fk, sigma), unguardedPair(fj, fk, sigma); got != want {
			t.Fatalf("PairProb(%g,%g,%g) = %g, unguarded %g", fj, fk, sigma, got, want)
		}
	}
	// Exact guard boundary: both CDF arguments pinned at ±phiSat.
	for _, sd := range []float64{1e-3, 0.042} {
		for _, sign := range []float64{1, -1} {
			x := sign * (phiSat*sd + p.T1)
			if got, want := windowProb(x, 0, p.T1, sd), unguardedWindow(x, 0, p.T1, sd); got != want {
				t.Fatalf("boundary windowProb(%g) = %g, unguarded %g", x, got, want)
			}
		}
	}
}

// fullRescore is the term-cache oracle: a fresh scorer compiled from the
// same assignment, whose every bundle was scored from scratch.
func fullRescore(inc *Incremental, adj [][]int, sigma float64, p Params) *Incremental {
	return NewIncremental(adj, inc.Freqs(), sigma, p)
}

// TestTermCacheBitIdentical drives a long-lived scorer — whose bundles
// increasingly come from the term-level fast path (spectator-only moves
// re-add cached marginals) — against fresh full recompiles after every
// update. Scores must agree to the last bit, and the fast path must have
// actually fired (otherwise the test proves nothing).
func TestTermCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := DefaultParams()
	partials := uint64(0)
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		adj := randomGraph(rng, n)
		freqs := randomFreqs(rng, n)
		inc := NewIncremental(adj, freqs, 0.03, p)
		for step := 0; step < 50; step++ {
			q := rng.Intn(n)
			f := 5.00 + 0.34*rng.Float64()
			// Preview must match a committed move on a fresh compile.
			got := inc.Preview1(q, f)
			probe := fullRescore(inc, adj, 0.03, p)
			probe.Set1(q, f)
			if want := probe.Score(); got != want {
				t.Fatalf("trial %d step %d: preview %.17g != fresh %.17g", trial, step, got, want)
			}
			inc.Set1(q, f)
			if got, want := inc.Score(), fullRescore(inc, adj, 0.03, p).Score(); got != want {
				t.Fatalf("trial %d step %d: committed %.17g != fresh %.17g", trial, step, got, want)
			}
			if step%7 == 0 { // clones must carry the term cache correctly
				inc = inc.Clone()
			}
		}
		partials += inc.Partials()
	}
	if partials == 0 {
		t.Fatal("term-level fast path never fired")
	}
}

// TestPreviewMatchesSetRoundTrip checks the direct-preview fast path is
// bit-identical to the Set1+Score+Set1 spelling it replaced, on random
// graphs, and that interleaved Set calls never see stale scratch state.
func TestPreviewMatchesSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	p := DefaultParams()
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(10)
		adj := randomGraph(rng, n)
		freqs := randomFreqs(rng, n)
		inc := NewIncremental(adj, freqs, 0.03, p)
		for step := 0; step < 40; step++ {
			q := rng.Intn(n)
			f := 5.00 + 0.34*rng.Float64()
			got := inc.Preview1(q, f)
			// Round-trip on a twin so the preview target stays untouched.
			twin := inc.Clone()
			twin.Set1(q, f)
			want := twin.Score()
			if got != want {
				t.Fatalf("trial %d step %d: Preview1(%d,%g) = %.17g, Set round-trip %.17g",
					trial, step, q, f, got, want)
			}
			if rng.Intn(3) == 0 { // interleave committed moves
				inc.Set1(rng.Intn(n), 5.00+0.34*rng.Float64())
			}
		}
	}
}

// TestCountSurvivorsMatchesReference is the batch one-shot differential:
// CountSurvivors over column-major noise must agree exactly with a
// scalar per-trial Params.Collides loop — across random graphs and
// design assignments, trial counts straddling every word boundary (the
// trailing-word masking invariant), arbitrary word-aligned chunk splits
// (the invariant the parallel estimate relies on), and every third trial
// on the condition-1 boundary of one gate, as in
// TestCompiledCollidesMatchesReference.
func TestCountSurvivorsMatchesReference(t *testing.T) {
	p := DefaultParams()
	p.T1 = 1.0 / 64
	rng := rand.New(rand.NewSource(41))
	trialCounts := []int{1, 63, 64, 65, 127, 128, 200}
	for round := 0; round < 40; round++ {
		n := 2 + rng.Intn(10)
		adj := randomGraph(rng, n)
		design := randomFreqs(rng, n)
		k := NewKernel(adj, p)
		trials := trialCounts[round%len(trialCounts)]
		if round >= len(trialCounts)*2 {
			trials = 1 + rng.Intn(300)
		}
		cols := make([][]float64, n)
		for q := range cols {
			cols[q] = make([]float64, trials)
			for ti := range cols[q] {
				cols[q][ti] = rng.NormFloat64() * 0.03
			}
		}
		if k.NumEdges() > 0 {
			ctl, tgt, _ := k.Orient(0, design)
			for ti := 0; ti < trials; ti += 3 {
				cols[ctl][ti] = design[tgt] + cols[tgt][ti] + p.T1 - design[ctl]
			}
		}
		want := 0
		post := make([]float64, n)
		for ti := 0; ti < trials; ti++ {
			for q := range post {
				post[q] = design[q] + cols[q][ti]
			}
			if !p.Collides(adj, design, post) {
				want++
			}
		}
		if got := k.CountSurvivors(design, cols, 0, trials); got != want {
			t.Fatalf("round %d: CountSurvivors=%d, reference loop=%d\nadj=%v design=%v trials=%d",
				round, got, want, adj, design, trials)
		}
		// Word-aligned chunk splits must sum to the whole-range count.
		for _, cut := range []int{64, 128} {
			if cut >= trials {
				continue
			}
			got := k.CountSurvivors(design, cols, 0, cut) +
				k.CountSurvivors(design, cols, cut, trials)
			if got != want {
				t.Fatalf("round %d: chunked at %d sum=%d, want %d", round, cut, got, want)
			}
		}
		// Empty and inverted ranges count zero survivors.
		if got := k.CountSurvivors(design, cols, 0, 0); got != 0 {
			t.Fatalf("round %d: empty range counted %d", round, got)
		}
	}
}
