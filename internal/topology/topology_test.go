package topology

import (
	"strings"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/gen"
)

func TestParseAndCanon(t *testing.T) {
	cases := []struct {
		in    string
		name  string
		canon string
		reach int
	}{
		{"", "square", "", 2},
		{"square", "square", "", 2},
		{" square ", "square", "", 2},
		{"coupler", "coupler", "coupler", 1},
		{"chimera", "chimera(2,2,4)", "chimera(2,2,4)", 2},
		{"chimera(3,2,4)", "chimera(3,2,4)", "chimera(3,2,4)", 2},
		{"chimera(1, 1, 2)", "chimera(1,1,2)", "chimera(1,1,2)", 2},
	}
	for _, c := range cases {
		f, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if f.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.in, f.Name(), c.name)
		}
		if f.Reach() != c.reach {
			t.Errorf("Parse(%q).Reach() = %d, want %d", c.in, f.Reach(), c.reach)
		}
		if got := Canon(c.in); got != c.canon {
			t.Errorf("Canon(%q) = %q, want %q", c.in, got, c.canon)
		}
	}
	for _, bad := range []string{"hex", "chimera(0,1,2)", "chimera(a,b,c)", "chimera(1,2)",
		"chimera(2,2,4,99)", "chimera(2,2,4abc)", "chimera(2,2,4)x)"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error", bad)
		}
	}
	// Canon leaves unknown spellings for Parse to reject at run time.
	if got := Canon("hex"); got != "hex" {
		t.Errorf("Canon(hex) = %q, want hex", got)
	}
}

// FuzzTopologyParse: Parse never panics on any spelling; an accepted
// name parses back to a family of the same Name; Canon is idempotent;
// and every chimera chip Parse accepts has at most 2048 qubits.
func FuzzTopologyParse(f *testing.F) {
	for _, seed := range []string{
		"", "square", " square ", "coupler", "chimera", "chimera(3,2,4)", "chimera(1, 1, 2)",
		"chimera(+2,02,4)", "chimera(16,16,4)", "chimera(16,16,5)", "chimera(1,1,9223372036854775807)",
		"chimera(0,1,2)", "chimera(-1,2,3)", "chimera()", "chimera(", "hex",
		"chimera(2,2,4,99)", "chimera(2,2,4abc)", "chimera(2,2,4)x)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		fam, err := Parse(name)
		if canon := Canon(name); Canon(canon) != canon {
			t.Fatalf("Canon(%q) = %q, but Canon(%q) = %q", name, canon, canon, Canon(canon))
		}
		if err != nil {
			return
		}
		again, err := Parse(fam.Name())
		if err != nil || again.Name() != fam.Name() {
			t.Fatalf("Parse(%q) is named %q, which parses to %v (%v)", name, fam.Name(), again, err)
		}
		if c, ok := fam.(Chimera); ok {
			if coords, _ := c.Layout(); len(coords) > 2048 {
				t.Fatalf("Parse(%q) accepted a %d-qubit chip", name, len(coords))
			}
		}
	})
}

// TestChimeraBounded: Parse refuses a chimera grid of more than 2048
// qubits, however large its parameters, with an error that names the
// bound, and accepts the largest grid within it, chimera(16,16,4).
func TestChimeraBounded(t *testing.T) {
	for _, huge := range []string{"chimera(100000,100000,16)", "chimera(1,1,9223372036854775807)", "chimera(16,16,5)"} {
		_, err := Parse(huge)
		if err == nil || !strings.Contains(err.Error(), "2048") {
			t.Errorf("Parse(%q) = %v, want an error naming the 2048-qubit bound", huge, err)
		}
	}
	f, err := Parse("chimera(16,16,4)")
	if err != nil {
		t.Fatalf("Parse(chimera(16,16,4)): %v", err)
	}
	if coords, _ := f.(Chimera).Layout(); len(coords) != 2048 {
		t.Fatalf("chimera(16,16,4) lays out %d qubits, want 2048", len(coords))
	}
}

// TestChimeraCounts pins the node and edge counts of the chimera
// generator to the closed-form Bunyk formulas: 2kmn nodes,
// k²mn + k(m−1)n + km(n−1) edges.
func TestChimeraCounts(t *testing.T) {
	for _, p := range [][3]int{{1, 1, 1}, {1, 1, 4}, {2, 2, 4}, {3, 2, 2}, {2, 3, 3}, {4, 4, 4}} {
		f, err := NewChimera(p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		coords, edges := f.Layout()
		wantN := 2 * p[2] * p[0] * p[1]
		wantE := p[2]*p[2]*p[0]*p[1] + p[2]*(p[0]-1)*p[1] + p[2]*p[0]*(p[1]-1)
		if len(coords) != wantN || f.NumQubits() != wantN {
			t.Errorf("%s: %d nodes, want %d", f.Name(), len(coords), wantN)
		}
		if len(edges) != wantE || f.NumEdges() != wantE {
			t.Errorf("%s: %d edges, want %d", f.Name(), len(edges), wantE)
		}
		// Every edge references valid, distinct qubits; no duplicates.
		seen := map[[2]int]bool{}
		for _, e := range edges {
			if e[0] < 0 || e[0] >= wantN || e[1] < 0 || e[1] >= wantN || e[0] == e[1] {
				t.Fatalf("%s: bad edge %v", f.Name(), e)
			}
			key := [2]int{min(e[0], e[1]), max(e[0], e[1])}
			if seen[key] {
				t.Fatalf("%s: duplicate edge %v", f.Name(), e)
			}
			seen[key] = true
		}
		// Coordinates are distinct (the embedding is injective).
		occ := map[[2]int]bool{}
		for _, c := range coords {
			key := [2]int{c.X, c.Y}
			if occ[key] {
				t.Fatalf("%s: coordinate %v occupied twice", f.Name(), key)
			}
			occ[key] = true
		}
	}
}

// TestChimeraArch builds the chimera base architecture and checks it
// validates, has no multi-qubit bus sites, and carries the Bunyk edge
// count as 2-qubit buses.
func TestChimeraArch(t *testing.T) {
	c := testCircuit(t)
	f, err := NewChimera(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := f.BaseLayout(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Family != f.Name() {
		t.Errorf("family %q, want %q", a.Family, f.Name())
	}
	if got := a.NumQubits(); got != f.NumQubits() {
		t.Errorf("%d qubits, want %d", got, f.NumQubits())
	}
	if got := len(a.Buses); got != f.NumEdges() {
		t.Errorf("%d buses, want %d", got, f.NumEdges())
	}
	if sites := a.CandidateSquares(); len(sites) != 0 {
		t.Errorf("chimera exposes %d bus sites, want none", len(sites))
	}
	if _, _, err := f.BaseLayout(c, 1); err == nil {
		t.Error("chimera accepted aux=1, want error (fixed chip)")
	}
	if _, _, err := (Chimera{M: 1, N: 1, K: 1}).BaseLayout(c, 0); err == nil {
		t.Error("2-qubit chimera accepted a larger program, want error")
	}
}

// TestCouplerArch builds the coupler base architecture: same placement
// as square, pairwise couplers only, and no multi-qubit bus sites.
func TestCouplerArch(t *testing.T) {
	c := testCircuit(t)
	a, _, err := Coupler{}.BaseLayout(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	sq, _, err := Square{}.BaseLayout(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumQubits() != sq.NumQubits() || len(a.Buses) != len(sq.Buses) {
		t.Errorf("coupler layout %d qubits / %d buses, square %d / %d",
			a.NumQubits(), len(a.Buses), sq.NumQubits(), len(sq.Buses))
	}
	for _, b := range a.Buses {
		if b.Kind != arch.TwoQubitBus || len(b.Qubits) != 2 {
			t.Fatalf("coupler emitted non-pairwise bus %+v", b)
		}
	}
	if sites := a.CandidateSquares(); len(sites) != 0 {
		t.Errorf("coupler exposes %d bus sites, want none", len(sites))
	}
}

// TestSquareProhibitedSites greedily applies every eligible bus site of
// the square family and checks the prohibited condition as a property:
// no two occupied sites are lattice-adjacent, and the architecture
// stays valid after every application.
func TestSquareProhibitedSites(t *testing.T) {
	c := testCircuit(t)
	a, _, err := Square{}.BaseLayout(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for _, s := range a.CandidateSquares() {
		if !a.CanApplyMultiBus(s) {
			continue
		}
		if err := a.ApplyMultiBus(s); err != nil {
			t.Fatalf("apply %v: %v", s, err)
		}
		applied++
		if err := a.Validate(); err != nil {
			t.Fatalf("after applying %v: %v", s, err)
		}
	}
	if applied == 0 {
		t.Fatal("no bus site was eligible; property vacuous")
	}
	occupied := a.MultiBusSquares()
	for i, s := range occupied {
		for _, u := range occupied[i+1:] {
			dx, dy := s.Origin.X-u.Origin.X, s.Origin.Y-u.Origin.Y
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			if dx+dy == 1 {
				t.Fatalf("prohibited-adjacent sites %v and %v both occupied", s, u)
			}
		}
	}
	// Every multi-qubit bus references valid qubits.
	n := a.NumQubits()
	for _, b := range a.Buses {
		for _, q := range b.Qubits {
			if q < 0 || q >= n {
				t.Fatalf("bus %v references invalid qubit %d", b, q)
			}
		}
	}
}

func testCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	return b.Build().Decompose()
}
