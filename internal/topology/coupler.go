package topology

import (
	"fmt"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/profile"
)

// Coupler is the tunable-coupler family of Li & Jin: qubits on the
// Algorithm 1 grid placement, every occupied lattice edge carrying a
// tunable pairwise coupler, and no multi-qubit buses at all — resonator
// bus squares are a fixed-coupling construct. Tunable couplers are
// switched off around idle spectators, so a qubit's frequency-
// interaction reach is only its direct neighbourhood (distance 1)
// instead of the paper's distance 2.
type Coupler struct{}

// Name returns "coupler".
func (Coupler) Name() string { return "coupler" }

// BaseLayout places the program as the square family does (Algorithm 1,
// aux qubits supported) and puts a tunable coupler on each of its
// 2-qubit buses, in their canonical order. The architecture carries the
// "coupler" family tag, so no multi-qubit bus sites exist on it.
func (Coupler) BaseLayout(c *circuit.Circuit, aux int) (*arch.Architecture, *profile.Profile, error) {
	sq, p, err := Square{}.BaseLayout(c, aux)
	if err != nil {
		return nil, nil, err
	}
	var edges [][2]int
	for _, b := range sq.Buses {
		edges = append(edges, [2]int{b.Qubits[0], b.Qubits[1]})
	}
	base, err := arch.NewGraph("", "coupler", sq.Coords, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("topology: coupler: %w", err)
	}
	return base, p, nil
}

// Reach is 1: tunable couplers detune idle spectator couplings, so only
// directly coupled qubits interact.
func (Coupler) Reach() int { return 1 }
