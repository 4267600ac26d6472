// Package collision implements IBM's frequency-collision model for
// fixed-frequency transmon processors with cross-resonance gates: the seven
// collision conditions and thresholds of Figure 3 (Brink et al., IEDM'18;
// Rosenblatt et al., APS'19).
//
// All frequencies are in GHz. Conditions 1-4 apply to a connected qubit
// pair (j, k), evaluated once per coupling-graph edge in the gate direction
// the design fixes (see orient). Conditions 5-7 apply to two qubits i and k
// that both connect to a common qubit j (spectator collisions), evaluated
// for every other neighbour i of each gate's control j.
//
// Params.Pair and Params.Spectator are the reference spelling of the
// conditions and Params.Collides the paper's loop over them; Kernel is
// their one compiled form, and the analytic marginals (PairProb,
// SpectatorProb) price the same conditions under Gaussian noise.
package collision

// Params holds the device constants of the collision model.
type Params struct {
	// Delta is the transmon anharmonicity δ = f12 − f01 in GHz; −0.340
	// for the paper's typical qubit design.
	Delta float64
	// T1, T2, T3 are the thresholds (GHz) for pair conditions 1-3;
	// condition 4 is a strict inequality with no threshold.
	T1, T2, T3 float64
	// T5, T6, T7 are the thresholds (GHz) for spectator conditions 5-7.
	T5, T6, T7 float64
}

// DefaultParams returns the constants of Figure 3: δ = −340 MHz,
// thresholds ±17, ±4, ±25, —, ±17, ±25, ±17 MHz.
func DefaultParams() Params {
	return Params{
		Delta: -0.340,
		T1:    0.017, T2: 0.004, T3: 0.025,
		T5: 0.017, T6: 0.025, T7: 0.017,
	}
}

// orient fixes the gate direction of the coupled pair (a, b) from the
// design (pre-fabrication) frequencies: the higher design frequency drives
// (is the control of) the cross-resonance gate, IBM's convention, and
// equal frequencies resolve to the lower index. The direction is a design
// choice and does not move with fabrication noise. Checking both
// directions instead would forbid every |Δf| ≤ −δ band, so no frequency
// plan could be collision-free.
func orient(a, b int, design []float64) (ctl, tgt int) {
	if design[b] > design[a] || (design[b] == design[a] && b < a) {
		return b, a
	}
	return a, b
}

func within(x, center, threshold float64) bool {
	d := x - center
	if d < 0 {
		d = -d
	}
	return d < threshold
}

// Pair reports whether the directed pair (fj, fk) of connected qubits
// triggers any of conditions 1-4:
//
//	1: fj ≅ fk        (±T1)
//	2: fj ≅ fk − δ/2  (±T2)
//	3: fj ≅ fk − δ    (±T3)
//	4: fj > fk − δ
func (p Params) Pair(fj, fk float64) bool {
	return within(fj, fk, p.T1) ||
		within(fj, fk-p.Delta/2, p.T2) ||
		within(fj, fk-p.Delta, p.T3) ||
		fj > fk-p.Delta
}

// PairConditions returns which of conditions 1-4 the directed pair
// triggers, for diagnostics.
func (p Params) PairConditions(fj, fk float64) []int {
	var out []int
	if within(fj, fk, p.T1) {
		out = append(out, 1)
	}
	if within(fj, fk-p.Delta/2, p.T2) {
		out = append(out, 2)
	}
	if within(fj, fk-p.Delta, p.T3) {
		out = append(out, 3)
	}
	if fj > fk-p.Delta {
		out = append(out, 4)
	}
	return out
}

// Spectator reports whether qubits i and k, both connected to j, trigger
// any of conditions 5-7:
//
//	5: fi ≅ fk            (±T5)
//	6: fi ≅ fk − δ        (±T6)
//	7: 2fj + δ ≅ fk + fi  (±T7)
func (p Params) Spectator(fj, fi, fk float64) bool {
	return within(fi, fk, p.T5) ||
		within(fi, fk-p.Delta, p.T6) ||
		within(2*fj+p.Delta, fk+fi, p.T7)
}

// SpectatorConditions returns which of conditions 5-7 the triple triggers.
func (p Params) SpectatorConditions(fj, fi, fk float64) []int {
	var out []int
	if within(fi, fk, p.T5) {
		out = append(out, 5)
	}
	if within(fi, fk-p.Delta, p.T6) {
		out = append(out, 6)
	}
	if within(2*fj+p.Delta, fk+fi, p.T7) {
		out = append(out, 7)
	}
	return out
}

// Collides reports whether the post-fabrication frequencies post trigger
// any collision condition on the coupling graph adj, with every gate
// oriented by the design frequencies. It is §4.3.1's check written out
// literally — for each edge, conditions 1-4 on (control, target), then
// conditions 5-7 for every other neighbour of the control — and is the
// oracle the compiled Kernel and every Monte-Carlo fast path are tested
// against.
func (p Params) Collides(adj [][]int, design, post []float64) bool {
	for a, nbrs := range adj {
		for _, b := range nbrs {
			if b <= a {
				continue
			}
			ctl, tgt := orient(a, b, design)
			if p.Pair(post[ctl], post[tgt]) {
				return true
			}
			for _, i := range adj[ctl] {
				if i != tgt && p.Spectator(post[ctl], post[i], post[tgt]) {
					return true
				}
			}
		}
	}
	return false
}
