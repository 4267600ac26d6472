package topology

import (
	"fmt"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/layout"
	"qproc/internal/profile"
)

// Square is the paper's topology family: qubits on a 2D square lattice
// placed by Algorithm 1, 2-qubit buses on occupied edges, 4-qubit bus
// sites on unit squares with at least three occupied corners, and the
// edge-sharing prohibited condition. It is the default family everywhere
// a family is not named, and its output is bit-identical to the
// pre-family design flow.
type Square struct{}

// Name returns "square".
func (Square) Name() string { return "square" }

// BaseLayout runs Algorithm 1 (plus the Section 6 auxiliary-qubit
// extension) and joins occupied lattice edges with 2-qubit buses.
func (Square) BaseLayout(c *circuit.Circuit, aux int) (*arch.Architecture, *profile.Profile, error) {
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
	base, err := arch.New("", layout.Normalize(coords))
	if err != nil {
		return nil, nil, fmt.Errorf("topology: layout: %w", err)
	}
	return base, p, nil
}

// Reach is 2, the paper's: conditions 1-4 act between coupled qubits,
// conditions 5-7 through a common neighbour.
func (Square) Reach() int { return 2 }
