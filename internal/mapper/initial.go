package mapper

import (
	"qproc/internal/arch"
	"qproc/internal/profile"
)

// Mapping is a bijection between logical qubits and a subset of physical
// qubits.
type Mapping struct {
	// L2P[l] is the physical qubit holding logical qubit l.
	L2P []int
	// P2L[p] is the logical qubit on physical qubit p, or -1 when free.
	P2L []int
}

// NewMapping returns a mapping with nl logical and np physical qubits, all
// logical qubits unplaced.
func NewMapping(nl, np int) *Mapping {
	m := &Mapping{L2P: make([]int, nl), P2L: make([]int, np)}
	for i := range m.L2P {
		m.L2P[i] = -1
	}
	for i := range m.P2L {
		m.P2L[i] = -1
	}
	return m
}

// Place assigns logical qubit l to physical qubit p.
func (m *Mapping) Place(l, p int) {
	m.L2P[l] = p
	m.P2L[p] = l
}

// Swap exchanges the logical occupants of physical qubits p1 and p2
// (either may be free).
func (m *Mapping) Swap(p1, p2 int) {
	l1, l2 := m.P2L[p1], m.P2L[p2]
	m.P2L[p1], m.P2L[p2] = l2, l1
	if l1 >= 0 {
		m.L2P[l1] = p2
	}
	if l2 >= 0 {
		m.L2P[l2] = p1
	}
}

// Clone deep-copies the mapping.
func (m *Mapping) Clone() *Mapping {
	return &Mapping{
		L2P: append([]int(nil), m.L2P...),
		P2L: append([]int(nil), m.P2L...),
	}
}

// InitialMapping greedily places logical qubits on physical qubits so that
// strongly coupled logical pairs land on nearby physical qubits. It is the
// same coupling-driven construction as the layout subroutine, but over a
// fixed physical graph instead of an empty lattice:
//
//  1. The highest-coupling-degree logical qubit goes to the physical qubit
//     with the highest physical degree (ties: lowest id).
//  2. Repeatedly take the unplaced logical qubit with the largest coupling
//     degree among those adjacent (in the logical coupling graph) to a
//     placed qubit, and put it on the free physical qubit minimising
//     Σ strength(l, l')·dist(p, phys(l')) over placed logical neighbours
//     l' (ties: lowest physical id).
//
// The SABRE forward-backward refinement (Route with Iterations > 0) then
// polishes this seed.
func InitialMapping(p *profile.Profile, a *arch.Architecture, dm *Distances) *Mapping {
	nl, np := p.Qubits, a.NumQubits()
	m := NewMapping(nl, np)
	if nl == 0 {
		return m
	}
	adj := a.AdjList()

	// Seed: busiest logical qubit on the best-connected physical qubit.
	bestP := 0
	for q := 1; q < np; q++ {
		if len(adj[q]) > len(adj[bestP]) {
			bestP = q
		}
	}
	m.Place(p.Degrees[0].Qubit, bestP)

	for placedCount := 1; placedCount < nl; placedCount++ {
		l := nextLogical(p, m)
		bestCost, best := -1, -1
		for phys := 0; phys < np; phys++ {
			if m.P2L[phys] >= 0 {
				continue
			}
			cost := 0
			reachable := true
			for _, nb := range p.Neighbors(l) {
				if pp := m.L2P[nb]; pp >= 0 {
					d := dm.Between(phys, pp)
					if d < 0 {
						reachable = false
						break
					}
					cost += p.Strength[l][nb] * d
				}
			}
			if !reachable {
				continue
			}
			if bestCost < 0 || cost < bestCost {
				bestCost, best = cost, phys
			}
		}
		if best < 0 {
			// Disconnected physical graph with no reachable free node:
			// fall back to the first free physical qubit.
			for phys := 0; phys < np; phys++ {
				if m.P2L[phys] < 0 {
					best = phys
					break
				}
			}
		}
		m.Place(l, best)
	}
	return m
}

// nextLogical picks the unplaced logical qubit with the largest coupling
// degree among those with a placed logical neighbour, falling back to the
// highest-degree unplaced qubit for disconnected programs.
func nextLogical(p *profile.Profile, m *Mapping) int {
	fallback := -1
	for _, d := range p.Degrees {
		l := d.Qubit
		if m.L2P[l] >= 0 {
			continue
		}
		if fallback < 0 {
			fallback = l
		}
		for _, nb := range p.Neighbors(l) {
			if m.L2P[nb] >= 0 {
				return l
			}
		}
	}
	return fallback
}

// SnakeMapping is an alternative initial-mapping candidate: it lays a
// greedy heaviest-edge walk through the logical coupling graph along a
// boustrophedon (snake) path over the physical lattice. For programs
// whose coupling graph is a chain — the paper's ising_model special case
// (§5.3.1) — this is a *perfect* initial mapping on any grid-derived
// architecture: every two-qubit gate lands on coupled physical qubits and
// the router inserts zero SWAPs.
func SnakeMapping(p *profile.Profile, a *arch.Architecture) *Mapping {
	m := NewMapping(p.Qubits, a.NumQubits())
	path := snakePath(a)
	order := logicalWalk(p)
	for i, l := range order {
		if i >= len(path) {
			break // more logical than physical qubits: Map rejects this earlier
		}
		m.Place(l, path[i])
	}
	return m
}

// snakePath orders the physical qubits row by row, alternating direction,
// so consecutive path entries are lattice-adjacent on full rectangles.
func snakePath(a *arch.Architecture) []int {
	coords := a.Occupied().Sorted() // (Y, X) ascending
	var path []int
	row := 0
	for i := 0; i < len(coords); {
		j := i
		for j < len(coords) && coords[j].Y == coords[i].Y {
			j++
		}
		if row%2 == 0 {
			for k := i; k < j; k++ {
				q, _ := a.QubitAt(coords[k])
				path = append(path, q)
			}
		} else {
			for k := j - 1; k >= i; k-- {
				q, _ := a.QubitAt(coords[k])
				path = append(path, q)
			}
		}
		i = j
		row++
	}
	return path
}

// logicalWalk orders the logical qubits by a greedy heaviest-edge walk:
// start from the lowest-degree qubit with any coupling (a chain
// endpoint, when there is one) and repeatedly step to the unvisited
// neighbour with the strongest edge; when stuck, restart from the
// unvisited qubit most strongly coupled to the visited set. Idle qubits
// come last.
func logicalWalk(p *profile.Profile) []int {
	n := p.Qubits
	visited := make([]bool, n)
	var order []int

	start := -1
	for i := len(p.Degrees) - 1; i >= 0; i-- { // ascending degree
		if p.Degrees[i].Degree > 0 {
			start = p.Degrees[i].Qubit
			break
		}
	}
	if start < 0 { // no two-qubit gates at all
		for q := 0; q < n; q++ {
			order = append(order, q)
		}
		return order
	}
	cur := start
	visited[cur] = true
	order = append(order, cur)
	for len(order) < n {
		next, best := -1, 0
		for _, nb := range p.Neighbors(cur) {
			if !visited[nb] && p.Strength[cur][nb] > best {
				next, best = nb, p.Strength[cur][nb]
			}
		}
		if next < 0 {
			// Stuck: restart from the unvisited qubit with the strongest
			// total coupling to the visited set; idle qubits last.
			bestW := -1
			for q := 0; q < n; q++ {
				if visited[q] {
					continue
				}
				w := 0
				for _, nb := range p.Neighbors(q) {
					if visited[nb] {
						w += p.Strength[q][nb]
					}
				}
				if w > bestW {
					next, bestW = q, w
				}
			}
		}
		visited[next] = true
		order = append(order, next)
		cur = next
	}
	return order
}
