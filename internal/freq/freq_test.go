package freq

import (
	"fmt"
	"math"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/collision"
	"qproc/internal/lattice"
	"qproc/internal/yield"
)

func TestCandidatesGrid(t *testing.T) {
	c := Candidates()
	if len(c) != 35 {
		t.Fatalf("candidate count = %d, want 35", len(c))
	}
	if c[0] != 5.00 || c[len(c)-1] != 5.34 {
		t.Fatalf("range = [%.2f, %.2f]", c[0], c[len(c)-1])
	}
	for i := 1; i < len(c); i++ {
		if math.Abs(c[i]-c[i-1]-0.01) > 1e-9 {
			t.Fatalf("step at %d: %.4f", i, c[i]-c[i-1])
		}
	}
	if Mid() != 5.17 {
		t.Fatalf("Mid = %.2f, want 5.17", Mid())
	}
}

func TestAllocateWithinInterval(t *testing.T) {
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	al := NewAllocator(1)
	freqs := al.Allocate(a)
	if len(freqs) != 16 {
		t.Fatalf("allocated %d frequencies", len(freqs))
	}
	for q, f := range freqs {
		if f < Lo-1e-9 || f > Hi+1e-9 {
			t.Errorf("qubit %d frequency %.3f outside [%.2f, %.2f]", q, f, Lo, Hi)
		}
	}
}

func TestCenterQubitPinned(t *testing.T) {
	// A 3x3 grid has an unambiguous centre: its qubit must get 5.17.
	a := arch.MustNew("3x3", lattice.Grid(3, 3))
	al := NewAllocator(1)
	al.Sweeps = 0 // refinement may legitimately move the centre
	freqs := al.Allocate(a)
	q, ok := a.QubitAt(lattice.Coord{X: 1, Y: 1})
	if !ok {
		t.Fatal("no centre qubit")
	}
	if freqs[q] != Mid() {
		t.Fatalf("centre frequency = %.2f, want %.2f", freqs[q], Mid())
	}
}

func TestAllocateBeatsFiveFreqScheme(t *testing.T) {
	// §5.4.3: Algorithm 3 outperforms the regular 5-frequency scheme.
	for _, b := range []arch.Baseline{arch.IBM16Q2Bus, arch.IBM20Q2Bus} {
		a := arch.NewBaseline(b)
		sim := yield.New(77)
		sim.Trials = 20000
		schemeYield := sim.Estimate(a)

		if err := a.SetFrequencies(NewAllocator(1).Allocate(a)); err != nil {
			t.Fatal(err)
		}
		allocYield := sim.Estimate(a)
		if allocYield <= schemeYield {
			t.Errorf("%v: allocator yield %.4f <= 5-freq scheme %.4f", b, allocYield, schemeYield)
		}
	}
}

func TestAnalyticAndMCModesAgreeDirectionally(t *testing.T) {
	// Both scoring modes should produce assignments of comparable
	// quality on a small design (within a factor on expected collisions).
	a := arch.MustNew("2x3", lattice.Grid(2, 3))
	adj := a.AdjList()
	p := collision.DefaultParams()

	analytic := NewAllocator(1)
	fa := analytic.Allocate(a)
	ea := collision.ExpectedCollisions(adj, fa, analytic.Sigma, p)

	mc := NewAllocator(1)
	mc.Mode = ScoreMC
	mc.LocalTrials = 4000
	fm := mc.Allocate(a)
	em := collision.ExpectedCollisions(adj, fm, mc.Sigma, p)

	if ea > 3*em+0.5 {
		t.Errorf("analytic plan much worse than MC plan: E=%.3f vs %.3f", ea, em)
	}
	if em > 3*ea+0.5 {
		t.Errorf("MC plan much worse than analytic plan: E=%.3f vs %.3f", em, ea)
	}
}

func TestSweepNeverHurts(t *testing.T) {
	for _, b := range []arch.Baseline{arch.IBM16Q2Bus, arch.IBM16Q4Bus} {
		a := arch.NewBaseline(b)
		adj := a.AdjList()
		p := collision.DefaultParams()

		noSweep := NewAllocator(1)
		noSweep.Sweeps = 0
		e0 := collision.ExpectedCollisions(adj, noSweep.Allocate(a), noSweep.Sigma, p)

		sweep := NewAllocator(1)
		sweep.Sweeps = 2
		e2 := collision.ExpectedCollisions(adj, sweep.Allocate(a), sweep.Sigma, p)
		if e2 > e0+1e-9 {
			t.Errorf("%v: sweeps increased expected collisions %.4f -> %.4f", b, e0, e2)
		}
	}
}

// busyGrid builds a 3×4 grid layout carrying two 4-qubit buses — a
// generated-flow-shaped topology (multi-bus K4 cliques plus 2-qubit
// buses) without importing the flow itself.
func busyGrid(t *testing.T) *arch.Architecture {
	t.Helper()
	var coords []lattice.Coord
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			coords = append(coords, lattice.Coord{X: x, Y: y})
		}
	}
	a := arch.MustNew("busy-grid", coords)
	for _, sq := range []lattice.Square{
		{Origin: lattice.Coord{X: 0, Y: 0}},
		{Origin: lattice.Coord{X: 2, Y: 1}},
	} {
		if err := a.ApplyMultiBus(sq); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestRefinementMonotonePerSweep pins the coordinate-descent contract of
// the refinement pass on every IBM baseline and a bus-carrying generated
// topology: each additional sweep may only lower (never raise) the
// global expected collision count, i.e. it never lowers analytic yield.
func TestRefinementMonotonePerSweep(t *testing.T) {
	p := collision.DefaultParams()
	archs := []*arch.Architecture{
		arch.NewBaseline(arch.IBM16Q2Bus),
		arch.NewBaseline(arch.IBM16Q4Bus),
		arch.NewBaseline(arch.IBM20Q2Bus),
		arch.NewBaseline(arch.IBM20Q4Bus),
		busyGrid(t),
	}
	for _, a := range archs {
		adj := a.AdjList()
		prev := math.Inf(1)
		for sweeps := 0; sweeps <= 3; sweeps++ {
			al := NewAllocator(1)
			al.Sweeps = sweeps
			e := collision.ExpectedCollisions(adj, al.Allocate(a), al.Sigma, p)
			if e > prev+1e-9 {
				t.Errorf("%s: sweep %d raised expected collisions %.6f -> %.6f", a.Name, sweeps, prev, e)
			}
			prev = e
		}
	}
}

// TestRefinementDeterministicWithSweeps extends the determinism guard to
// Sweeps > 0 on a bus-carrying topology: identical allocators must agree
// bit for bit, and repeated allocation from one allocator must be stable.
func TestRefinementDeterministicWithSweeps(t *testing.T) {
	a := busyGrid(t)
	for sweeps := 1; sweeps <= 2; sweeps++ {
		al1 := NewAllocator(99)
		al1.Sweeps = sweeps
		al2 := NewAllocator(99)
		al2.Sweeps = sweeps
		f1, f2, f3 := al1.Allocate(a), al2.Allocate(a), al1.Allocate(a)
		for q := range f1 {
			if f1[q] != f2[q] || f1[q] != f3[q] {
				t.Fatalf("sweeps=%d: allocation not deterministic at qubit %d: %g/%g/%g",
					sweeps, q, f1[q], f2[q], f3[q])
			}
		}
	}
}

// TestRegionMatchesLocalRegion pins the exported Region helper, at reach
// 1 and 2, to the local region the allocator walks with every qubit
// assigned, and checks the walk leaves its marks all zero.
func TestRegionMatchesLocalRegion(t *testing.T) {
	a := busyGrid(t)
	adj := a.AdjList()
	assigned := make([]bool, a.NumQubits())
	for q := range assigned {
		assigned[q] = true
	}
	mark := make([]int, a.NumQubits())
	for _, reach := range []int{1, 2} {
		for q := 0; q < a.NumQubits(); q++ {
			want := appendRegion(nil, mark, adj, q, reach, assigned)
			if got := Region(adj, q, reach); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("reach %d q%d: Region = %v, local region = %v", reach, q, got, want)
			}
			for r, m := range mark {
				if m != 0 {
					t.Fatalf("reach %d q%d: mark[%d] = %d after the walk", reach, q, r, m)
				}
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := arch.NewBaseline(arch.IBM16Q4Bus)
	al1 := NewAllocator(123)
	al2 := NewAllocator(123)
	f1 := al1.Allocate(a)
	f2 := al2.Allocate(a)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("allocation not deterministic at qubit %d", i)
		}
	}
}

func TestBFSOrderCoversAll(t *testing.T) {
	adj := [][]int{{1}, {0}, {3}, {2}, {}} // two components + isolated qubit
	order := bfsOrder(adj, 0)
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
	seen := map[int]bool{}
	for _, q := range order {
		if seen[q] {
			t.Fatalf("duplicate %d in %v", q, order)
		}
		seen[q] = true
	}
	if order[0] != 0 {
		t.Fatalf("order starts at %d", order[0])
	}
}

func TestLocalRegionDistanceTwo(t *testing.T) {
	// Path 0-1-2-3-4: at reach 2 the region of 2 with all assigned is
	// {0,1,2,3,4}, and qubit 0's excludes distance-3+ nodes; at reach 1
	// each stops at the neighbours.
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}
	assigned := []bool{true, true, true, true, true}
	region := func(qi, reach int) string {
		return fmt.Sprint(appendRegion(nil, make([]int, len(adj)), adj, qi, reach, assigned))
	}
	for _, c := range []struct {
		qi, reach int
		want      string
	}{
		{2, 2, "[0 1 2 3 4]"},
		{0, 2, "[0 1 2]"},
		{2, 1, "[1 2 3]"},
		{0, 1, "[0 1]"},
	} {
		if got := region(c.qi, c.reach); got != c.want {
			t.Fatalf("reach %d: region of %d = %s, want %s", c.reach, c.qi, got, c.want)
		}
	}
	// Unassigned qubits are excluded (except the subject), though the
	// walk passes through them.
	assigned[1] = false
	if got := region(0, 2); got != "[0 2]" {
		t.Fatalf("region with unassigned neighbour = %s, want [0 2]", got)
	}
	if got := region(0, 1); got != "[0]" {
		t.Fatalf("reach-1 region with unassigned neighbour = %s, want [0]", got)
	}
}

func TestEmptyAndSingleQubit(t *testing.T) {
	empty, err := arch.New("none", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := NewAllocator(1).Allocate(empty); len(got) != 0 {
		t.Fatalf("empty allocation = %v", got)
	}
	one := arch.MustNew("one", []lattice.Coord{{X: 0, Y: 0}})
	f := NewAllocator(1).Allocate(one)
	if len(f) != 1 || f[0] != Mid() {
		t.Fatalf("single-qubit allocation = %v", f)
	}
}

// TestSubgraph: the region's induced subgraph keeps exactly the couplings
// inside the region, re-indexed to region positions in adjacency order,
// and leaves the position marks all zero for the next call.
func TestSubgraph(t *testing.T) {
	adj := [][]int{{1, 2}, {0, 3}, {0}, {1}}
	ws := &workspace{pos: make([]int, len(adj))}
	sub := ws.subgraph(adj, []int{0, 1, 3})
	// 0-1 kept, 1-3 kept (as 1-2 in new indices), 0-2 dropped.
	want := [][]int{{1}, {0, 2}, {1}}
	if fmt.Sprint(sub) != fmt.Sprint(want) {
		t.Fatalf("subgraph = %v, want %v", sub, want)
	}
	for q, p := range ws.pos {
		if p != 0 {
			t.Fatalf("pos[%d] = %d after the call", q, p)
		}
	}
	if sub = ws.subgraph(adj, []int{0, 2}); fmt.Sprint(sub) != fmt.Sprint([][]int{{1}, {0}}) {
		t.Fatalf("reused subgraph = %v, want [[1] [0]]", sub)
	}
}
