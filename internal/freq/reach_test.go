package freq_test

import (
	"fmt"
	"slices"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/freq"
	"qproc/internal/gen"
	"qproc/internal/topology"
)

// familyLayout is one topology family's base layout.
type familyLayout struct {
	name   string
	family topology.Family
	arch   *arch.Architecture
}

// reachLayouts returns the square base layout of every built-in benchmark
// with every bus site it can take applied, and the chimera(2,2,4) chip.
func reachLayouts(t *testing.T) []familyLayout {
	t.Helper()
	var out []familyLayout
	for _, b := range gen.Suite() {
		a, _, err := topology.Square{}.BaseLayout(b.Build(), 0)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, s := range a.CandidateSquares() {
			if a.CanApplyMultiBus(s) {
				if err := a.ApplyMultiBus(s); err != nil {
					t.Fatalf("%s: apply %v: %v", b.Name, s, err)
				}
			}
		}
		out = append(out, familyLayout{"square " + b.Name, topology.Square{}, a})
	}
	return append(out, chimeraLayout(t, 2, 2, 4))
}

// chimeraLayout returns the chimera(m,n,k) chip.
func chimeraLayout(t *testing.T, m, n, k int) familyLayout {
	t.Helper()
	f, err := topology.NewChimera(m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := f.BaseLayout(c.Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return familyLayout{f.Name(), f, a}
}

// TestReachCoversCollisionTerms: each qubit of a Figure 3 term finds every
// other qubit of the term in its region at the family's reach, so
// Algorithm 3 and the search's repair see each term a frequency move
// changes. The terms come from adjacency in both gate orientations: the
// pair (j, k) of every edge, and the spectator triple (j, i, k) for every
// neighbour i of j other than k. The coupler family is left out: its
// reach 1 skips spectator terms through a common neighbour (ROADMAP item
// 13).
func TestReachCoversCollisionTerms(t *testing.T) {
	for _, l := range reachLayouts(t) {
		adj := l.arch.AdjList()
		regions := make([][]int, len(adj))
		for q := range adj {
			regions[q] = freq.Region(adj, q, l.family.Reach())
		}
		covered := func(term ...int) {
			for _, q := range term {
				for _, r := range term {
					if _, ok := slices.BinarySearch(regions[q], r); !ok {
						t.Fatalf("%s: term %v: q%d is outside q%d's region %v", l.name, term, r, q, regions[q])
					}
				}
			}
		}
		for j := range adj {
			for _, k := range adj[j] {
				covered(j, k)
				for _, i := range adj[j] {
					if i != k {
						covered(j, i, k)
					}
				}
			}
		}
	}
}

// TestRegionMatchesRadius cross-checks Region at reach 1 and 2 against a
// brute-force breadth-first ball on square, coupler and chimera layouts.
func TestRegionMatchesRadius(t *testing.T) {
	c, err := gen.Get("misex1_241")
	if err != nil {
		t.Fatal(err)
	}
	coupler, _, err := topology.Coupler{}.BaseLayout(c.Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	layouts := append(reachLayouts(t), chimeraLayout(t, 2, 2, 2),
		familyLayout{"coupler " + c.Name, topology.Coupler{}, coupler})
	for _, l := range layouts {
		adj := l.arch.AdjList()
		for _, reach := range []int{1, 2} {
			for q := range adj {
				dist := map[int]int{q: 0}
				ball := []int{q}
				for lo := 0; lo < len(ball); lo++ {
					u := ball[lo]
					for _, v := range adj[u] {
						if _, seen := dist[v]; !seen && dist[u] < reach {
							dist[v] = dist[u] + 1
							ball = append(ball, v)
						}
					}
				}
				slices.Sort(ball)
				if got := freq.Region(adj, q, reach); fmt.Sprint(got) != fmt.Sprint(ball) {
					t.Fatalf("%s reach %d q%d: Region = %v, distance-%d ball %v", l.name, reach, q, got, reach, ball)
				}
			}
		}
	}
}
