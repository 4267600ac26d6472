package arch

import (
	"testing"

	"qproc/internal/lattice"
)

func grid(rows, cols int) []lattice.Coord { return lattice.Grid(rows, cols) }

func TestNewBuildsTwoQubitBuses(t *testing.T) {
	a := MustNew("g", grid(2, 3))
	// 2x3 grid: 3 horizontal edges per row x2 rows? No: 2 per row x 2 rows
	// = 4 horizontal + 3 vertical = 7.
	if got := a.NumConnections(); got != 7 {
		t.Fatalf("connections = %d, want 7", got)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, b := range a.Buses {
		if b.Kind != TwoQubitBus {
			t.Fatalf("unexpected bus kind %v", b.Kind)
		}
	}
}

func TestNewRejectsDuplicateCoords(t *testing.T) {
	if _, err := New("dup", []lattice.Coord{{X: 0, Y: 0}, {X: 0, Y: 0}}); err == nil {
		t.Fatal("duplicate coordinates accepted")
	}
}

func TestApplyMultiBus(t *testing.T) {
	a := MustNew("g", grid(2, 2))
	sq := lattice.Square{Origin: lattice.Coord{X: 0, Y: 0}}
	if !a.CanApplyMultiBus(sq) {
		t.Fatal("full square not eligible")
	}
	if err := a.ApplyMultiBus(sq); err != nil {
		t.Fatal(err)
	}
	// K4: 4 perimeter + 2 diagonals = 6 couplings.
	if got := a.NumConnections(); got != 6 {
		t.Fatalf("connections = %d, want 6", got)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.CanApplyMultiBus(sq) {
		t.Fatal("square still eligible after bus applied")
	}
}

func TestProhibitedCondition(t *testing.T) {
	a := MustNew("g", grid(2, 3))
	sq0 := lattice.Square{Origin: lattice.Coord{X: 0, Y: 0}}
	sq1 := lattice.Square{Origin: lattice.Coord{X: 1, Y: 0}}
	if err := a.ApplyMultiBus(sq0); err != nil {
		t.Fatal(err)
	}
	if a.CanApplyMultiBus(sq1) {
		t.Fatal("adjacent square eligible despite prohibited condition")
	}
	if err := a.ApplyMultiBus(sq1); err == nil {
		t.Fatal("adjacent multi bus accepted")
	}
}

func TestThreeQubitCorner(t *testing.T) {
	// L-shaped triomino: square with 3 occupied corners -> K3 bus.
	a := MustNew("l", []lattice.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}})
	sq := lattice.Square{Origin: lattice.Coord{X: 0, Y: 0}}
	if !a.CanApplyMultiBus(sq) {
		t.Fatal("3-corner square not eligible")
	}
	if err := a.ApplyMultiBus(sq); err != nil {
		t.Fatal(err)
	}
	// K3 = 3 couplings (2 former edges + 1 diagonal).
	if got := a.NumConnections(); got != 3 {
		t.Fatalf("connections = %d, want 3", got)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoCornerSquareIneligible(t *testing.T) {
	a := MustNew("d", []lattice.Coord{{X: 0, Y: 0}, {X: 1, Y: 1}})
	if a.CanApplyMultiBus(lattice.Square{Origin: lattice.Coord{X: 0, Y: 0}}) {
		t.Fatal("2-corner square eligible")
	}
}

func TestMaxMultiBusesOnBaselines(t *testing.T) {
	// §5.3 quotes four 4-qubit buses on the 2x8 chip and six on the 4x5.
	a16 := MustNew("16", grid(2, 8))
	if got := a16.MaxMultiBuses(); got != 4 {
		t.Fatalf("2x8 max buses = %d, want 4", got)
	}
	a20 := MustNew("20", grid(4, 5))
	if got := a20.MaxMultiBuses(); got != 6 {
		t.Fatalf("4x5 max buses = %d, want 6", got)
	}
	for _, a := range []*Architecture{a16, a20} {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBaselineConstruction(t *testing.T) {
	wantQ := map[Baseline]int{
		IBM16Q2Bus: 16, IBM16Q4Bus: 16, IBM20Q2Bus: 20, IBM20Q4Bus: 20,
	}
	wantConn := map[Baseline]int{
		IBM16Q2Bus: 22, // 14 horizontal + 8 vertical
		IBM16Q4Bus: 30, // + 2 diagonals per 4 squares
		IBM20Q2Bus: 31, // 16 + 15
		IBM20Q4Bus: 43, // + 12 diagonals
	}
	for _, b := range Baselines() {
		a := NewBaseline(b)
		if a.NumQubits() != wantQ[b] {
			t.Errorf("%v qubits = %d, want %d", b, a.NumQubits(), wantQ[b])
		}
		if a.NumConnections() != wantConn[b] {
			t.Errorf("%v connections = %d, want %d", b, a.NumConnections(), wantConn[b])
		}
		if a.Freqs == nil {
			t.Errorf("%v missing frequencies", b)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%v invalid: %v", b, err)
		}
	}
}

func TestFiveFreqSchemePattern(t *testing.T) {
	a := NewBaseline(IBM20Q2Bus)
	// Figure 9 (3): rows (bottom row y=0 first) 1 2 3 4 5 / 3 4 5 1 2 /
	// 5 1 2 3 4 / 2 3 4 5 1, as pattern indices 0-4.
	want := [4][5]int{
		{0, 1, 2, 3, 4},
		{2, 3, 4, 0, 1},
		{4, 0, 1, 2, 3},
		{1, 2, 3, 4, 0},
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 5; x++ {
			q, ok := a.QubitAt(lattice.Coord{X: x, Y: y})
			if !ok {
				t.Fatalf("no qubit at (%d,%d)", x, y)
			}
			wantF := FiveFreqValue(want[y][x])
			if a.Freqs[q] != wantF {
				t.Errorf("freq(%d,%d) = %.4f, want %.4f", x, y, a.Freqs[q], wantF)
			}
		}
	}
	// No two coupled qubits share a frequency under the scheme.
	for _, e := range a.Edges() {
		if a.Freqs[e.A] == a.Freqs[e.B] {
			t.Errorf("coupled pair (%d,%d) shares frequency", e.A, e.B)
		}
	}
}

func TestEdgesDeduplicated(t *testing.T) {
	a := MustNew("g", grid(2, 2))
	if err := a.ApplyMultiBus(lattice.Square{Origin: lattice.Coord{X: 0, Y: 0}}); err != nil {
		t.Fatal(err)
	}
	edges := a.Edges()
	seen := map[Edge]bool{}
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("edge %v not normalised", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewBaseline(IBM16Q4Bus)
	c := a.Clone()
	c.Freqs[0] = 9.99
	c.Buses[0].Qubits[0] = 15
	if a.Freqs[0] == 9.99 || a.Buses[0].Qubits[0] == 15 {
		t.Fatal("clone shares state")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesAdjacentMultiBuses(t *testing.T) {
	a := MustNew("g", grid(2, 3))
	// Bypass ApplyMultiBus to inject an invalid state.
	q := func(x, y int) int { v, _ := a.QubitAt(lattice.Coord{X: x, Y: y}); return v }
	a.Buses = []Bus{
		{Kind: MultiQubitBus, Qubits: []int{q(0, 0), q(1, 0), q(0, 1), q(1, 1)}, Square: lattice.Square{Origin: lattice.Coord{X: 0, Y: 0}}},
		{Kind: MultiQubitBus, Qubits: []int{q(1, 0), q(2, 0), q(1, 1), q(2, 1)}, Square: lattice.Square{Origin: lattice.Coord{X: 1, Y: 0}}},
	}
	if err := a.Validate(); err == nil {
		t.Fatal("adjacent multi buses not detected")
	}
}

func TestSetFrequenciesLengthCheck(t *testing.T) {
	a := MustNew("g", grid(2, 2))
	if err := a.SetFrequencies([]float64{5.0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := a.SetFrequencies([]float64{5, 5.1, 5.2, 5.3}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjListSymmetric(t *testing.T) {
	a := NewBaseline(IBM20Q4Bus)
	adj := a.AdjList()
	for q, nbrs := range adj {
		for _, nb := range nbrs {
			found := false
			for _, back := range adj[nb] {
				if back == q {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d->%d", q, nb)
			}
		}
	}
}

// TestBusLabelReportsActualQubitCount pins the satellite fix: a
// MultiQubitBus with three members is a "3-qubit" bus (Figure 7b), not
// a "4-qubit" one, and the kind string no longer hardcodes a count.
func TestBusLabelReportsActualQubitCount(t *testing.T) {
	two := Bus{Kind: TwoQubitBus, Qubits: []int{0, 1}}
	three := Bus{Kind: MultiQubitBus, Qubits: []int{0, 1, 2}, Square: lattice.Square{}}
	four := Bus{Kind: MultiQubitBus, Qubits: []int{0, 1, 2, 3}, Square: lattice.Square{}}
	if got := two.Label(); got != "2-qubit" {
		t.Errorf("two.Label() = %q", got)
	}
	if got := three.Label(); got != "3-qubit" {
		t.Errorf("three.Label() = %q", got)
	}
	if got := four.Label(); got != "4-qubit" {
		t.Errorf("four.Label() = %q", got)
	}
	if got := MultiQubitBus.String(); got == "4-qubit" {
		t.Errorf("MultiQubitBus.String() = %q still hardcodes a qubit count", got)
	}
}
