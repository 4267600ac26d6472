package topology

import (
	"fmt"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/lattice"
	"qproc/internal/profile"
)

// Chimera is the D-Wave-style annealer lattice of Bunyk et al.: an m×n
// grid of K_{k,k} unit cells. Each cell holds k "vertical" and k
// "horizontal" qubits, fully bipartitely coupled inside the cell;
// vertical qubits chain to the vertically neighbouring cell, horizontal
// qubits to the horizontally neighbouring one. The chip is fixed: the
// program is mapped onto it, auxiliary qubits are not supported, and
// there are no multi-qubit bus squares — every coupler is a 2-qubit bus.
//
// Closed-form counts: 2kmn qubits; k²mn intra-cell + k(m−1)n vertical +
// km(n−1) horizontal couplers.
type Chimera struct {
	M, N, K int
}

// maxChimeraQubits bounds the chips NewChimera accepts: chimera(16,16,4).
// Every job that names a chip builds its full coordinate and edge lists,
// so the bound caps what one spelling in a job spec can cost.
const maxChimeraQubits = 2048

// NewChimera validates the grid parameters: each positive, and at most
// maxChimeraQubits qubits in all.
func NewChimera(m, n, k int) (Chimera, error) {
	if m <= 0 || n <= 0 || k <= 0 {
		return Chimera{}, fmt.Errorf("topology: chimera(%d,%d,%d): parameters must be positive", m, n, k)
	}
	// 2kmn, one factor at a time, each checked before it is multiplied
	// in, so no product overflows before the bound rejects it.
	qubits := 2
	for _, f := range []int{k, m, n} {
		if f > maxChimeraQubits/qubits {
			return Chimera{}, fmt.Errorf("topology: chimera(%d,%d,%d): more than %d qubits", m, n, k, maxChimeraQubits)
		}
		qubits *= f
	}
	return Chimera{M: m, N: n, K: k}, nil
}

// Name returns the parameterised canonical name, e.g. "chimera(2,2,4)".
func (f Chimera) Name() string { return fmt.Sprintf("chimera(%d,%d,%d)", f.M, f.N, f.K) }

// NumQubits returns 2kmn, the Bunyk node count.
func (f Chimera) NumQubits() int { return 2 * f.K * f.M * f.N }

// NumEdges returns k²mn + k(m−1)n + km(n−1), the Bunyk coupler count.
func (f Chimera) NumEdges() int {
	return f.K*f.K*f.M*f.N + f.K*(f.M-1)*f.N + f.K*f.M*(f.N-1)
}

// Layout returns the embedding coordinates and the edge list, in
// canonical order. Qubit ids: cells row-major (cy·n+cx), vertical qubits
// first (t = 0..k-1), then horizontal. The drawing embedding gives each
// cell a (k+1)×(k+1) block: vertical qubit t at (cx·(k+1), cy·(k+1)+t),
// horizontal qubit t at (cx·(k+1)+1+t, cy·(k+1)). Coupling is defined by
// the explicit edge list alone: intra-cell K_{k,k} edges first per cell,
// then vertical chains, then horizontal chains.
func (f Chimera) Layout() ([]lattice.Coord, [][2]int) {
	k := f.K
	coords := make([]lattice.Coord, 0, f.NumQubits())
	id := func(cx, cy, t int, horizontal bool) int {
		base := 2 * k * (cy*f.N + cx)
		if horizontal {
			return base + k + t
		}
		return base + t
	}
	for cy := 0; cy < f.M; cy++ {
		for cx := 0; cx < f.N; cx++ {
			for t := 0; t < k; t++ { // vertical partition
				coords = append(coords, lattice.Coord{X: cx * (k + 1), Y: cy*(k+1) + t})
			}
			for t := 0; t < k; t++ { // horizontal partition
				coords = append(coords, lattice.Coord{X: cx*(k+1) + 1 + t, Y: cy * (k + 1)})
			}
		}
	}
	var edges [][2]int
	for cy := 0; cy < f.M; cy++ {
		for cx := 0; cx < f.N; cx++ {
			for v := 0; v < k; v++ { // K_{k,k} inside the cell
				for h := 0; h < k; h++ {
					edges = append(edges, [2]int{id(cx, cy, v, false), id(cx, cy, h, true)})
				}
			}
		}
	}
	for cy := 0; cy+1 < f.M; cy++ { // vertical chains
		for cx := 0; cx < f.N; cx++ {
			for t := 0; t < k; t++ {
				edges = append(edges, [2]int{id(cx, cy, t, false), id(cx, cy+1, t, false)})
			}
		}
	}
	for cy := 0; cy < f.M; cy++ { // horizontal chains
		for cx := 0; cx+1 < f.N; cx++ {
			for t := 0; t < k; t++ {
				edges = append(edges, [2]int{id(cx, cy, t, true), id(cx+1, cy, t, true)})
			}
		}
	}
	return coords, edges
}

// BaseLayout returns the fixed chimera chip. The program must fit on the
// chip's 2kmn qubits; extra chip qubits act as routing spares. Auxiliary
// qubits are a square-family knob and are rejected here.
func (f Chimera) BaseLayout(c *circuit.Circuit, aux int) (*arch.Architecture, *profile.Profile, error) {
	if aux != 0 {
		return nil, nil, fmt.Errorf("topology: %s is a fixed chip; auxiliary qubits are not supported", f.Name())
	}
	if c.Qubits > f.NumQubits() {
		return nil, nil, fmt.Errorf("topology: %s needs %d qubits for %s, chip has %d",
			f.Name(), c.Qubits, c.Name, f.NumQubits())
	}
	p, err := profile.New(c)
	if err != nil {
		return nil, nil, err
	}
	coords, edges := f.Layout()
	base, err := arch.NewGraph("", f.Name(), coords, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("topology: %s: %w", f.Name(), err)
	}
	return base, p, nil
}

// Reach is 2: chimera couplers are fixed resonators like the paper's, so
// the collision conditions reach over the same two hops.
func (Chimera) Reach() int { return 2 }
