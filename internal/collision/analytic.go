package collision

import "math"

// Analytic collision probabilities under the fabrication model: each
// qubit's post-fabrication frequency is its design frequency plus
// independent N(0, σ) noise. Every condition of Figure 3 is a window (or
// half-line) test on a Gaussian combination of one, two or three noise
// terms, so its marginal probability has a closed form in Φ. The expected
// number of triggered condition instances, ExpectedCollisions, is the sum
// of these marginals. E is an exact, noise-free ranking signal for
// frequency allocation and search proposals (unlike a Monte-Carlo yield
// estimate, whose argmax wobbles at realistic trial budgets), not a
// yield: exp(−E) would be the yield only for independent, rare condition
// instances, but on realistic chips E is 5–27 and instances share
// qubits' noise, so exp(−E) sits far below the Monte-Carlo yield (4–77×
// low on the IBM baselines at σ = 30 MHz).

// phiSat is the |x| beyond which phi saturates exactly: Go's math.Erf
// returns exactly ±1 for |arg| ≥ ~5.93 (the implementation's |x| ≥ 6
// branch computes 1−tiny, which rounds to 1), so phi(x) is exactly 1 for
// x/√2 ≥ 6 — i.e. x ≥ 8.49 — and exactly 0 for x ≤ −8.49. 8.5 keeps a
// safety margin; TestAnalyticGuardsBitIdentical enforces the invariant.
const phiSat = 8.5

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// windowProb returns P(|X + d − center| < threshold) for d ~ N(0, sd).
// The saturation guard skips the two erf evaluations when both CDF
// arguments sit in the exactly-saturated tail, where the difference is
// exactly 0; the guarded value is bit-identical to the unguarded one.
// The guard carries the hot path: at the model's σ ≈ 30 MHz most
// condition windows sit many sd away from the operating point.
func windowProb(x, center, threshold, sd float64) float64 {
	if sd <= 0 {
		if diff := math.Abs(x - center); diff < threshold {
			return 1
		}
		return 0
	}
	hi := (center + threshold - x) / sd
	if hi <= -phiSat {
		return 0 // phi(hi) and phi(lo) are both exactly 0
	}
	lo := (center - threshold - x) / sd
	if lo >= phiSat {
		return 0 // phi(hi) and phi(lo) are both exactly 1
	}
	return phi(hi) - phi(lo)
}

// PairProb returns the probability that the directed pair (fj, fk) of
// connected qubits triggers any of conditions 1-4, as the sum of the four
// window probabilities (an upper bound that is tight when the windows are
// disjoint, as they are for the Figure 3 constants). delta is fj − fk
// noise-free; the noise on the difference has sd σ√2.
func (p Params) PairProb(fj, fk, sigma float64) float64 {
	sd := sigma * math.Sqrt2
	d := fj - fk
	pr := windowProb(d, 0, p.T1, sd) +
		windowProb(d, -p.Delta/2, p.T2, sd) +
		windowProb(d, -p.Delta, p.T3, sd)
	// Condition 4: fj − fk > −δ. The same saturation guard applies: the
	// tail probability is exactly 0 or 1 once the argument passes ±phiSat.
	if sd > 0 {
		switch v := (-p.Delta - d) / sd; {
		case v >= phiSat: // phi(v) exactly 1: tail prob exactly 0
		case v <= -phiSat:
			pr += 1 // phi(v) exactly 0
		default:
			pr += 1 - phi(v)
		}
	} else if d > -p.Delta {
		pr += 1
	}
	return pr
}

// SpectatorProb returns the probability that spectator pair (fi, fk)
// around hub fj triggers any of conditions 5-7: the conditions 5-6 term
// plus the condition 7 term, in that order.
func (p Params) SpectatorProb(fj, fi, fk, sigma float64) float64 {
	return p.cond56Prob(fi, fk, sigma) + p.cond7Prob(fj, fi, fk, sigma)
}

// cond56Prob is SpectatorProb's conditions 5-6 term. It depends on
// fi − fk alone (sd σ√2), not on the hub, so the memo keeps it per
// (fi, fk).
func (p Params) cond56Prob(fi, fk, sigma float64) float64 {
	sd2 := sigma * math.Sqrt2
	d := fi - fk
	return windowProb(d, 0, p.T5, sd2) +
		windowProb(d, -p.Delta, p.T6, sd2)
}

// cond7Prob is SpectatorProb's condition 7 term, on 2fj − fi − fk
// (sd σ√6).
func (p Params) cond7Prob(fj, fi, fk, sigma float64) float64 {
	sd6 := sigma * math.Sqrt(6)
	v := 2*fj + p.Delta - fi - fk
	return windowProb(v, 0, p.T7, sd6)
}

// ExpectedCollisions returns the expected number of triggered condition
// instances of the frequency assignment freqs over the coupling graph adj
// under N(0, σ) noise: the design frequencies orient every gate and are
// also the noise-free centres. It sums every pair marginal in edge order,
// then every spectator marginal in edge order. freq.Allocate ranks
// candidates by this sum and its tie-breaks reach the pinned arch hashes,
// so the order is part of the contract. It is the formula-only
// reference: the loop of Marginals.Expected over a memo with no tables.
func ExpectedCollisions(adj [][]int, freqs []float64, sigma float64, p Params) float64 {
	m := Marginals{params: p, sigma: sigma}
	return m.Expected(adj, freqs)
}
