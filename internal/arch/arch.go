// Package arch models a superconducting quantum processor architecture:
// physical qubits placed on the nodes of a coupling graph, resonator buses
// connecting them, and per-qubit design frequencies.
//
// Per Section 2.2 of the paper, two bus types are modelled. A 2-qubit bus
// connects two coupled qubits. A multi-qubit bus occupies a *site* — for
// the paper's square lattice, a unit square — and couples all qubits on
// its member nodes pairwise (K4 coupling graph); when only three members
// hold qubits it degenerates to a 3-qubit bus (K3, Figure 7b). Which sites
// exist, which qubits they couple and which sites exclude each other is
// family geometry, a bus policy chosen by the architecture's Family: the
// square policy implements the paper's unit squares and the prohibited
// condition of two edge-sharing squares (Figure 7a), while graph families
// (Chimera, tunable-coupler grids) carry explicit edge lists and no bus
// sites.
package arch

import (
	"fmt"
	"sort"

	"qproc/internal/lattice"
)

// BusKind distinguishes the two physical bus types.
type BusKind uint8

const (
	// TwoQubitBus couples one qubit pair.
	TwoQubitBus BusKind = iota
	// MultiQubitBus is a site resonator coupling the 3 or 4 qubits on its
	// member nodes pairwise.
	MultiQubitBus
)

// String names the bus kind. A MultiQubitBus may couple 3 or 4 qubits
// depending on site occupancy, so the kind alone cannot name the count —
// use Bus.Label for the per-bus "3-qubit"/"4-qubit" spelling.
func (k BusKind) String() string {
	if k == TwoQubitBus {
		return "2-qubit"
	}
	return "multi-qubit"
}

// Site identifies a candidate multi-qubit-bus location by an opaque 2D
// id, assigned by the architecture's bus policy. For the square family it
// is the south-west corner of the unit square.
type Site struct {
	X, Y int
}

// String renders the site id.
func (s Site) String() string { return fmt.Sprintf("site(%d,%d)", s.X, s.Y) }

// Less orders sites canonically by (Y, X), matching lattice.Coord.Less.
func (s Site) Less(t Site) bool {
	if s.Y != t.Y {
		return s.Y < t.Y
	}
	return s.X < t.X
}

// SiteOf converts a lattice square to its site id (square family).
func SiteOf(sq lattice.Square) Site { return Site{X: sq.Origin.X, Y: sq.Origin.Y} }

// Square converts a site id back to the lattice square it names under the
// square family.
func (s Site) Square() lattice.Square {
	return lattice.Square{Origin: lattice.Coord{X: s.X, Y: s.Y}}
}

// Bus is one resonator.
type Bus struct {
	Kind BusKind
	// Qubits are the physical qubit ids the bus couples: exactly 2 for
	// TwoQubitBus, 3 or 4 for MultiQubitBus, ascending.
	Qubits []int
	// Site is the bus site a MultiQubitBus occupies; unused for
	// TwoQubitBus.
	Site Site
}

// Label names the bus by its actual coupled-qubit count — "2-qubit",
// "3-qubit" or "4-qubit". A MultiQubitBus on a three-occupied-corner
// square is a 3-qubit bus (Figure 7b), which BusKind.String alone cannot
// report.
func (b Bus) Label() string { return fmt.Sprintf("%d-qubit", len(b.Qubits)) }

// busPolicy supplies the family-specific multi-qubit-bus geometry: which
// sites exist, which qubits each site couples, which sites exclude each
// other, and which qubit pairs may carry a 2-qubit bus.
type busPolicy interface {
	// CandidateSites enumerates every site of the architecture's node set
	// with enough members to carry a multi-qubit bus, in canonical order.
	CandidateSites(a *Architecture) []Site
	// SiteMembers returns the qubit ids on the occupied member nodes of
	// site s, in the site's canonical member order. Nil when the policy
	// does not model multi-qubit bus sites.
	SiteMembers(a *Architecture, s Site) []int
	// Conflicts lists the sites that may not carry a bus alongside s (the
	// family's prohibited condition). Nil when sites never conflict.
	Conflicts(s Site) []Site
	// PairCoupled reports whether qubits p and q may share a 2-qubit bus.
	PairCoupled(a *Architecture, p, q int) bool
}

// squarePolicy is the paper's geometry: sites are unit squares with at
// least three occupied corners, members are the corner qubits, and
// edge-sharing squares conflict (the prohibited condition).
type squarePolicy struct{}

func (squarePolicy) CandidateSites(a *Architecture) []Site {
	sqs := a.Occupied().Squares(3)
	out := make([]Site, len(sqs))
	for i, sq := range sqs {
		out[i] = SiteOf(sq)
	}
	return out
}

func (squarePolicy) SiteMembers(a *Architecture, s Site) []int {
	out := make([]int, 0, 4)
	for _, c := range s.Square().Corners() {
		if q, ok := a.QubitAt(c); ok {
			out = append(out, q)
		}
	}
	return out
}

func (squarePolicy) Conflicts(s Site) []Site {
	nbrs := s.Square().Neighbors()
	out := make([]Site, len(nbrs))
	for i, n := range nbrs {
		out[i] = SiteOf(n)
	}
	return out
}

func (squarePolicy) PairCoupled(a *Architecture, p, q int) bool {
	return lattice.Adjacent(a.Coords[p], a.Coords[q])
}

// graphPolicy is the permissive policy of explicit-edge graph families
// (and of architectures decoded from files whose family this process does
// not know): no multi-qubit bus sites, any pair may be coupled — the edge
// list is authoritative.
type graphPolicy struct{}

func (graphPolicy) CandidateSites(*Architecture) []Site      { return nil }
func (graphPolicy) SiteMembers(*Architecture, Site) []int    { return nil }
func (graphPolicy) Conflicts(Site) []Site                    { return nil }
func (graphPolicy) PairCoupled(*Architecture, int, int) bool { return true }

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
// and there are no multi-qubit bus sites.
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

// policy returns the family's bus policy: the square geometry for the
// square family, else the permissive graph policy.
func (a *Architecture) policy() busPolicy {
	if a.Family == "" || a.Family == "square" {
		return squarePolicy{}
	}
	return graphPolicy{}
}

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

// BusAtSite reports whether a multi-qubit bus occupies site s.
func (a *Architecture) BusAtSite(s Site) bool {
	for _, b := range a.Buses {
		if b.Kind == MultiQubitBus && b.Site == s {
			return true
		}
	}
	return false
}

// MultiBusAt reports whether a multi-qubit bus occupies square sq.
func (a *Architecture) MultiBusAt(sq lattice.Square) bool { return a.BusAtSite(SiteOf(sq)) }

// BusSites returns the sites carrying multi-qubit buses, in creation
// order.
func (a *Architecture) BusSites() []Site {
	var out []Site
	for _, b := range a.Buses {
		if b.Kind == MultiQubitBus {
			out = append(out, b.Site)
		}
	}
	return out
}

// MultiBusSquares returns the squares carrying multi-qubit buses, in
// creation order (square-family view of BusSites).
func (a *Architecture) MultiBusSquares() []lattice.Square {
	var out []lattice.Square
	for _, b := range a.Buses {
		if b.Kind == MultiQubitBus {
			out = append(out, b.Site.Square())
		}
	}
	return out
}

// CandidateSites enumerates every site of the family with enough members
// to carry a multi-qubit bus, occupied or not, in canonical order — the
// universe bus-placement moves draw from. Graph families without bus
// sites return nil.
func (a *Architecture) CandidateSites() []Site {
	return a.policy().CandidateSites(a)
}

// SiteQubits returns the qubit ids site s couples, in the site's
// canonical member order.
func (a *Architecture) SiteQubits(s Site) []int {
	return a.policy().SiteMembers(a, s)
}

// CanApplyBusAt reports whether site s is eligible for a multi-qubit bus:
// at least three members occupied, no multi-qubit bus already on s, and
// no multi-qubit bus on a conflicting site (the family's prohibited
// condition).
func (a *Architecture) CanApplyBusAt(s Site) bool {
	pol := a.policy()
	if len(pol.SiteMembers(a, s)) < 3 {
		return false
	}
	if a.BusAtSite(s) {
		return false
	}
	for _, n := range pol.Conflicts(s) {
		if a.BusAtSite(n) {
			return false
		}
	}
	return true
}

// CanApplyMultiBus reports whether square sq is eligible for a
// multi-qubit bus (square-family view of CanApplyBusAt).
func (a *Architecture) CanApplyMultiBus(sq lattice.Square) bool {
	return a.CanApplyBusAt(SiteOf(sq))
}

// ApplyBusAt converts site s to a multi-qubit bus: the 2-qubit buses
// between its member qubits are absorbed into (replaced by) the site
// resonator, so every coupled pair remains coupled exactly once. It
// returns an error when s is ineligible.
func (a *Architecture) ApplyBusAt(s Site) error {
	if !a.CanApplyBusAt(s) {
		return fmt.Errorf("arch %q: %v ineligible for a multi-qubit bus", a.Name, s)
	}
	pol := a.policy()
	qubits := append([]int(nil), pol.SiteMembers(a, s)...)
	sort.Ints(qubits)
	member := make(map[int]bool, len(qubits))
	for _, q := range qubits {
		member[q] = true
	}
	// Remove the member-pair 2-qubit buses now covered by the site.
	kept := a.Buses[:0]
	for _, b := range a.Buses {
		if b.Kind == TwoQubitBus && member[b.Qubits[0]] && member[b.Qubits[1]] &&
			pol.PairCoupled(a, b.Qubits[0], b.Qubits[1]) {
			continue
		}
		kept = append(kept, b)
	}
	a.Buses = append(kept, Bus{Kind: MultiQubitBus, Qubits: qubits, Site: s})
	return nil
}

// ApplyMultiBus converts square sq to a multi-qubit bus (square-family
// view of ApplyBusAt).
func (a *Architecture) ApplyMultiBus(sq lattice.Square) error {
	return a.ApplyBusAt(SiteOf(sq))
}

// MaxMultiBuses applies multi-qubit buses greedily in canonical site
// order until no site is eligible, reproducing IBM's "as many 4-qubit
// buses as possible" baseline variants (Figure 9 (2) and (4): four buses
// on the 2×8 chip, six on the 4×5 chip). It returns the number applied.
func (a *Architecture) MaxMultiBuses() int {
	n := 0
	for _, s := range a.CandidateSites() {
		if a.CanApplyBusAt(s) {
			if err := a.ApplyBusAt(s); err != nil {
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
// coordinates, in-range bus members, multi-bus sites matching their
// policy's member qubits, no duplicate couplings, and no conflicting bus
// sites (the family's prohibited condition).
func (a *Architecture) Validate() error {
	pol := a.policy()
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
	sites := map[Site]bool{}
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
			if !pol.PairCoupled(a, b.Qubits[0], b.Qubits[1]) {
				return fmt.Errorf("arch %q: 2-qubit bus %d joins non-adjacent nodes", a.Name, i)
			}
			if err := addEdge(b.Qubits[0], b.Qubits[1]); err != nil {
				return err
			}
		case MultiQubitBus:
			if len(b.Qubits) < 3 || len(b.Qubits) > 4 {
				return fmt.Errorf("arch %q: multi-qubit bus %d has %d qubits", a.Name, i, len(b.Qubits))
			}
			if ms := pol.SiteMembers(a, b.Site); ms != nil {
				member := make(map[int]bool, len(ms))
				for _, q := range ms {
					member[q] = true
				}
				for _, q := range b.Qubits {
					if !member[q] {
						return fmt.Errorf("arch %q: bus %d qubit %d not on %v", a.Name, i, q, b.Site)
					}
				}
			}
			if sites[b.Site] {
				return fmt.Errorf("arch %q: %v carries two buses", a.Name, b.Site)
			}
			sites[b.Site] = true
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
	for s := range sites {
		for _, n := range pol.Conflicts(s) {
			if sites[n] {
				return fmt.Errorf("arch %q: conflicting sites %v and %v both carry multi-qubit buses", a.Name, s, n)
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
	multi := len(a.BusSites())
	return fmt.Sprintf("%s: %d qubits, %d connections, %d multi-qubit buses",
		a.Name, a.NumQubits(), a.NumConnections(), multi)
}
