package topology

import (
	"fmt"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/layout"
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

// BaseLayout places the program with Algorithm 1 (aux qubits supported,
// as in the square family) and couples occupied edges pairwise. The
// architecture carries the "coupler" family tag, so no multi-qubit bus
// sites exist on it.
func (Coupler) BaseLayout(c *circuit.Circuit, aux int) (*arch.Architecture, *profile.Profile, error) {
	if aux < 0 {
		return nil, nil, fmt.Errorf("topology: negative aux qubit count %d", aux)
	}
	p, err := profile.New(c)
	if err != nil {
		return nil, nil, err
	}
	coords := layout.Place(p)
	if aux > 0 {
		auxCoords := layout.AddAux(coords, aux)
		coords = append(coords, auxCoords...)
		p = p.WithAux(len(auxCoords))
	}
	coords = layout.Normalize(coords)
	// Edges on occupied lattice neighbours, in the same canonical order
	// arch.New generates them.
	sq, err := arch.New("", coords)
	if err != nil {
		return nil, nil, fmt.Errorf("topology: layout: %w", err)
	}
	var edges [][2]int
	for _, b := range sq.Buses {
		edges = append(edges, [2]int{b.Qubits[0], b.Qubits[1]})
	}
	base, err := arch.NewGraph("", "coupler", coords, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("topology: coupler: %w", err)
	}
	return base, p, nil
}

// Reach is 1: tunable couplers detune idle spectator couplings, so only
// directly coupled qubits interact.
func (Coupler) Reach() int { return 1 }
