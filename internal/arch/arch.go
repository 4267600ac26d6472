// Package arch models a superconducting quantum processor architecture:
// physical qubits placed on the nodes of a coupling graph, resonator buses
// connecting them, and per-qubit design frequencies.
//
// Per Section 2.2 of the paper, two bus types are modelled. A 2-qubit bus
// connects two coupled qubits. A multi-qubit bus sits on a unit square of
// the lattice and couples the qubits on its occupied corners pairwise (K4
// coupling graph); when only three corners hold qubits it degenerates to
// a 3-qubit bus (K3, Figure 7b). Two squares that share an edge may not
// both carry one (the prohibited condition, Figure 7a). Only the paper's
// square family has bus squares: graph families (Chimera,
// tunable-coupler grids) carry explicit edge lists, and any pair of their
// qubits may share a 2-qubit bus.
package arch

import (
	"fmt"
	"slices"
	"sort"

	"qproc/internal/lattice"
)

// BusKind distinguishes the two physical bus types.
type BusKind uint8

const (
	// TwoQubitBus couples one qubit pair.
	TwoQubitBus BusKind = iota
	// MultiQubitBus is a square resonator coupling the 3 or 4 qubits on
	// its occupied corners pairwise.
	MultiQubitBus
)

// String names the bus kind. A MultiQubitBus may couple 3 or 4 qubits
// depending on square occupancy, so the kind alone cannot name the count —
// use Bus.Label for the per-bus "3-qubit"/"4-qubit" spelling.
func (k BusKind) String() string {
	if k == TwoQubitBus {
		return "2-qubit"
	}
	return "multi-qubit"
}

// Bus is one resonator.
type Bus struct {
	Kind BusKind
	// Qubits are the physical qubit ids the bus couples: exactly 2 for
	// TwoQubitBus, 3 or 4 for MultiQubitBus, ascending.
	Qubits []int
	// Square is the lattice square a MultiQubitBus occupies; unused for
	// TwoQubitBus.
	Square lattice.Square
}

// Label names the bus by its actual coupled-qubit count — "2-qubit",
// "3-qubit" or "4-qubit". A MultiQubitBus on a three-occupied-corner
// square is a 3-qubit bus (Figure 7b), which BusKind.String alone cannot
// report.
func (b Bus) Label() string { return fmt.Sprintf("%d-qubit", len(b.Qubits)) }

// Architecture is a complete processor design. The zero value is unusable;
// construct with New or NewGraph.
type Architecture struct {
	Name string
	// Family names the topology family the design belongs to; empty means
	// the paper's square lattice.
	Family string
	// Coords[q] is the lattice node of physical qubit q. Graph families
	// use the coordinates as a deterministic drawing embedding only; their
	// coupling comes from the explicit bus list.
	Coords []lattice.Coord
	// Freqs[q] is the pre-fabrication design frequency of qubit q in GHz.
	// Nil until frequency allocation has run.
	Freqs []float64
	// Buses are the resonators, in creation order.
	Buses []Bus

	byCoord map[lattice.Coord]int
}

// New builds a square-family architecture with one qubit per coordinate
// (qubit q at coords[q]) and a 2-qubit bus on every lattice edge between
// occupied nodes, the paper's starting point after layout design
// (Section 4.2: "2-qubit buses can be directly generated on the edges
// that connect two occupied nodes"). Duplicate coordinates are an error.
func New(name string, coords []lattice.Coord) (*Architecture, error) {
	a := &Architecture{
		Name:    name,
		Coords:  append([]lattice.Coord(nil), coords...),
		byCoord: make(map[lattice.Coord]int, len(coords)),
	}
	for q, c := range a.Coords {
		if prev, dup := a.byCoord[c]; dup {
			return nil, fmt.Errorf("arch %q: qubits %d and %d share node %v", name, prev, q, c)
		}
		a.byCoord[c] = q
	}
	for q, c := range a.Coords {
		for _, n := range c.Neighbors() {
			p, ok := a.byCoord[n]
			if ok && q < p {
				a.Buses = append(a.Buses, Bus{Kind: TwoQubitBus, Qubits: []int{q, p}})
			}
		}
	}
	return a, nil
}

// MustNew is New panicking on error; for baselines and tests with
// statically known-good coordinates.
func MustNew(name string, coords []lattice.Coord) *Architecture {
	a, err := New(name, coords)
	if err != nil {
		panic(err)
	}
	return a
}

// NewGraph builds an explicit-edge architecture of a non-square topology
// family: one qubit per coordinate and a 2-qubit bus per listed edge, in
// list order. The coordinates serve as a deterministic embedding (for
// rendering and tie-breaks); the edge list alone defines the coupling,
// and there are no multi-qubit bus squares.
func NewGraph(name, family string, coords []lattice.Coord, edges [][2]int) (*Architecture, error) {
	if family == "" {
		return nil, fmt.Errorf("arch %q: NewGraph needs a family name (use New for the square family)", name)
	}
	a := &Architecture{
		Name:    name,
		Family:  family,
		Coords:  append([]lattice.Coord(nil), coords...),
		byCoord: make(map[lattice.Coord]int, len(coords)),
	}
	for q, c := range a.Coords {
		if prev, dup := a.byCoord[c]; dup {
			return nil, fmt.Errorf("arch %q: qubits %d and %d share node %v", name, prev, q, c)
		}
		a.byCoord[c] = q
	}
	seen := make(map[Edge]bool, len(edges))
	for i, e := range edges {
		p, q := e[0], e[1]
		if p > q {
			p, q = q, p
		}
		if p < 0 || q >= len(coords) || p == q {
			return nil, fmt.Errorf("arch %q: edge %d (%d,%d) invalid for %d qubits", name, i, e[0], e[1], len(coords))
		}
		if seen[Edge{p, q}] {
			return nil, fmt.Errorf("arch %q: duplicate edge (%d,%d)", name, p, q)
		}
		seen[Edge{p, q}] = true
		a.Buses = append(a.Buses, Bus{Kind: TwoQubitBus, Qubits: []int{p, q}})
	}
	return a, nil
}

// square reports whether the architecture belongs to the paper's square
// lattice family, the only family with multi-qubit bus squares.
func (a *Architecture) square() bool { return a.Family == "" || a.Family == "square" }

// NumQubits returns the number of physical qubits.
func (a *Architecture) NumQubits() int { return len(a.Coords) }

// QubitAt returns the qubit id at coordinate c.
func (a *Architecture) QubitAt(c lattice.Coord) (int, bool) {
	q, ok := a.byCoord[c]
	return q, ok
}

// Occupied returns the set of occupied lattice nodes.
func (a *Architecture) Occupied() lattice.Set {
	s := make(lattice.Set, len(a.Coords))
	for _, c := range a.Coords {
		s[c] = true
	}
	return s
}

// MultiBusAt reports whether a multi-qubit bus occupies square sq.
func (a *Architecture) MultiBusAt(sq lattice.Square) bool {
	for _, b := range a.Buses {
		if b.Kind == MultiQubitBus && b.Square == sq {
			return true
		}
	}
	return false
}

// MultiBusSquares returns the squares carrying multi-qubit buses, in
// creation order.
func (a *Architecture) MultiBusSquares() []lattice.Square {
	var out []lattice.Square
	for _, b := range a.Buses {
		if b.Kind == MultiQubitBus {
			out = append(out, b.Square)
		}
	}
	return out
}

// CandidateSquares enumerates every unit square with at least three
// occupied corners, carrying a bus or not, in canonical (Y, X) order: the
// universe bus-placement moves draw from. Graph families have no bus
// squares and return nil.
func (a *Architecture) CandidateSquares() []lattice.Square {
	if !a.square() {
		return nil
	}
	return a.Occupied().Squares(3)
}

// SquareQubits returns the qubit ids on the occupied corners of square sq,
// in corner order: the qubits a bus on sq couples. Nil for graph families.
func (a *Architecture) SquareQubits(sq lattice.Square) []int {
	if !a.square() {
		return nil
	}
	out := make([]int, 0, 4)
	for _, c := range sq.Corners() {
		if q, ok := a.QubitAt(c); ok {
			out = append(out, q)
		}
	}
	return out
}

// CanApplyMultiBus reports whether square sq is eligible for a
// multi-qubit bus: at least three corners occupied, no multi-qubit bus
// already on sq, and none on an edge-sharing square (the prohibited
// condition).
func (a *Architecture) CanApplyMultiBus(sq lattice.Square) bool {
	if len(a.SquareQubits(sq)) < 3 || a.MultiBusAt(sq) {
		return false
	}
	for _, n := range sq.Neighbors() {
		if a.MultiBusAt(n) {
			return false
		}
	}
	return true
}

// ApplyMultiBus converts square sq to a multi-qubit bus: the 2-qubit
// buses between its corner qubits are absorbed into (replaced by) the
// square resonator, so every coupled pair remains coupled exactly once.
// It returns an error when sq is ineligible.
func (a *Architecture) ApplyMultiBus(sq lattice.Square) error {
	if !a.CanApplyMultiBus(sq) {
		return fmt.Errorf("arch %q: %v ineligible for a multi-qubit bus", a.Name, sq)
	}
	qubits := a.SquareQubits(sq)
	sort.Ints(qubits)
	// Remove the corner-pair 2-qubit buses now covered by the square.
	kept := a.Buses[:0]
	for _, b := range a.Buses {
		if b.Kind == TwoQubitBus && slices.Contains(qubits, b.Qubits[0]) && slices.Contains(qubits, b.Qubits[1]) {
			continue
		}
		kept = append(kept, b)
	}
	a.Buses = append(kept, Bus{Kind: MultiQubitBus, Qubits: qubits, Square: sq})
	return nil
}

// MaxMultiBuses applies multi-qubit buses greedily in canonical square
// order until no square is eligible, reproducing IBM's "as many 4-qubit
// buses as possible" baseline variants (Figure 9 (2) and (4): four buses
// on the 2×8 chip, six on the 4×5 chip). It returns the number applied.
func (a *Architecture) MaxMultiBuses() int {
	n := 0
	for _, sq := range a.CandidateSquares() {
		if a.CanApplyMultiBus(sq) {
			if err := a.ApplyMultiBus(sq); err != nil {
				panic(err) // unreachable: eligibility just checked
			}
			n++
		}
	}
	return n
}

// Edge is an undirected physical coupling between two qubits, A < B.
type Edge struct {
	A, B int
}

// Edges returns the coupling graph of the architecture as a deduplicated,
// sorted edge list. 2-qubit buses contribute their pair; multi-qubit buses
// contribute all member pairs (K3/K4).
func (a *Architecture) Edges() []Edge {
	seen := map[Edge]bool{}
	var out []Edge
	add := func(x, y int) {
		if x > y {
			x, y = y, x
		}
		e := Edge{x, y}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for _, b := range a.Buses {
		switch b.Kind {
		case TwoQubitBus:
			add(b.Qubits[0], b.Qubits[1])
		case MultiQubitBus:
			for i := 0; i < len(b.Qubits); i++ {
				for j := i + 1; j < len(b.Qubits); j++ {
					add(b.Qubits[i], b.Qubits[j])
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// AdjList returns the coupling graph as adjacency lists (ascending
// neighbour ids).
func (a *Architecture) AdjList() [][]int {
	adj := make([][]int, a.NumQubits())
	for _, e := range a.Edges() {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	for _, l := range adj {
		sort.Ints(l)
	}
	return adj
}

// NumConnections returns the number of distinct coupled qubit pairs, the
// paper's "qubit connections" hardware-resource count.
func (a *Architecture) NumConnections() int { return len(a.Edges()) }

// SetFrequencies installs the per-qubit design frequencies (GHz). The
// slice length must equal the qubit count.
func (a *Architecture) SetFrequencies(f []float64) error {
	if len(f) != a.NumQubits() {
		return fmt.Errorf("arch %q: %d frequencies for %d qubits", a.Name, len(f), a.NumQubits())
	}
	a.Freqs = append([]float64(nil), f...)
	return nil
}

// Clone returns a deep copy.
func (a *Architecture) Clone() *Architecture {
	c := &Architecture{
		Name:    a.Name,
		Family:  a.Family,
		Coords:  append([]lattice.Coord(nil), a.Coords...),
		byCoord: make(map[lattice.Coord]int, len(a.Coords)),
	}
	if a.Freqs != nil {
		c.Freqs = append([]float64(nil), a.Freqs...)
	}
	for _, b := range a.Buses {
		nb := b
		nb.Qubits = append([]int(nil), b.Qubits...)
		c.Buses = append(c.Buses, nb)
	}
	for q, co := range c.Coords {
		c.byCoord[co] = q
	}
	return c
}

// Validate checks the structural invariants of the design: unique
// coordinates, in-range bus members, no duplicate couplings, and, on the
// square family, 2-qubit buses between lattice neighbours, multi-qubit
// buses on the corners of their square, and no two edge-sharing bus
// squares (the prohibited condition).
func (a *Architecture) Validate() error {
	seenCoord := map[lattice.Coord]int{}
	for q, c := range a.Coords {
		if p, dup := seenCoord[c]; dup {
			return fmt.Errorf("arch %q: qubits %d and %d share node %v", a.Name, p, q, c)
		}
		seenCoord[c] = q
	}
	seenEdge := map[Edge]bool{}
	addEdge := func(x, y int) error {
		if x > y {
			x, y = y, x
		}
		e := Edge{x, y}
		if seenEdge[e] {
			return fmt.Errorf("arch %q: pair (%d,%d) coupled by more than one bus", a.Name, x, y)
		}
		seenEdge[e] = true
		return nil
	}
	squares := map[lattice.Square]bool{}
	for i, b := range a.Buses {
		for _, q := range b.Qubits {
			if q < 0 || q >= a.NumQubits() {
				return fmt.Errorf("arch %q: bus %d references qubit %d outside [0,%d)", a.Name, i, q, a.NumQubits())
			}
		}
		switch b.Kind {
		case TwoQubitBus:
			if len(b.Qubits) != 2 {
				return fmt.Errorf("arch %q: 2-qubit bus %d has %d qubits", a.Name, i, len(b.Qubits))
			}
			if a.square() && !lattice.Adjacent(a.Coords[b.Qubits[0]], a.Coords[b.Qubits[1]]) {
				return fmt.Errorf("arch %q: 2-qubit bus %d joins non-adjacent nodes", a.Name, i)
			}
			if err := addEdge(b.Qubits[0], b.Qubits[1]); err != nil {
				return err
			}
		case MultiQubitBus:
			if len(b.Qubits) < 3 || len(b.Qubits) > 4 {
				return fmt.Errorf("arch %q: multi-qubit bus %d has %d qubits", a.Name, i, len(b.Qubits))
			}
			if a.square() {
				corners := a.SquareQubits(b.Square)
				for _, q := range b.Qubits {
					if !slices.Contains(corners, q) {
						return fmt.Errorf("arch %q: bus %d qubit %d not on %v", a.Name, i, q, b.Square)
					}
				}
			}
			if squares[b.Square] {
				return fmt.Errorf("arch %q: %v carries two buses", a.Name, b.Square)
			}
			squares[b.Square] = true
			for x := 0; x < len(b.Qubits); x++ {
				for y := x + 1; y < len(b.Qubits); y++ {
					if err := addEdge(b.Qubits[x], b.Qubits[y]); err != nil {
						return err
					}
				}
			}
		default:
			return fmt.Errorf("arch %q: bus %d has unknown kind %d", a.Name, i, b.Kind)
		}
	}
	if a.square() {
		for sq := range squares {
			for _, n := range sq.Neighbors() {
				if squares[n] {
					return fmt.Errorf("arch %q: edge-sharing squares %v and %v both carry multi-qubit buses", a.Name, sq, n)
				}
			}
		}
	}
	if a.Freqs != nil {
		if len(a.Freqs) != a.NumQubits() {
			return fmt.Errorf("arch %q: %d frequencies for %d qubits", a.Name, len(a.Freqs), a.NumQubits())
		}
		for q, f := range a.Freqs {
			if f <= 0 {
				return fmt.Errorf("arch %q: qubit %d has nonpositive frequency %g", a.Name, q, f)
			}
		}
	}
	return nil
}

// String summarises the design.
func (a *Architecture) String() string {
	multi := len(a.MultiBusSquares())
	return fmt.Sprintf("%s: %d qubits, %d connections, %d multi-qubit buses",
		a.Name, a.NumQubits(), a.NumConnections(), multi)
}
