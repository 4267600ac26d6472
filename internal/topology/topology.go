// Package topology makes coupling-graph families pluggable: the paper's
// square lattice, Bunyk et al.'s Chimera annealer grid, and Li & Jin's
// tunable-coupler pairwise grid are all expressed behind one Family
// interface — how qubits are laid out for a program and how far a
// qubit's frequency-interaction region reaches. Whether multi-qubit bus
// squares exist is decided by package arch from the family name the
// layout carries: square layouts have the paper's unit squares, every
// other family none. The collision, yield, mapping and search machinery
// consumes architectures through their coupling graphs and bus squares, so
// any family that can answer these questions is a first-class workload.
package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/profile"
)

// Family is one pluggable topology family. Implementations must be
// deterministic: equal inputs produce identical architectures (node
// order, edge order, candidate-square order).
type Family interface {
	// Name returns the canonical family name, including parameters —
	// "square", "chimera(2,2,4)", "coupler". It is the spelling stored in
	// job specs and architecture files.
	Name() string
	// BaseLayout builds the bus-free base architecture for the decomposed
	// program c with aux auxiliary qubits, plus the program profile the
	// bus-selection subroutine scores squares against. Families with
	// fixed chips reject aux > 0.
	BaseLayout(c *circuit.Circuit, aux int) (*arch.Architecture, *profile.Profile, error)
	// Region returns qubit q plus every qubit whose frequency can
	// interact with q's — the set Algorithm 3 scores candidates against
	// and the search repairs after a local move. adj is the coupling
	// graph of the architecture under design.
	Region(adj [][]int, q int) []int
}

// Names lists the family spellings Parse accepts.
func Names() []string { return []string{"square", "chimera(m,n,k)", "coupler"} }

// IsSquare reports whether f is the paper's square-lattice family (or
// nil, its implicit default).
func IsSquare(f Family) bool {
	if f == nil {
		return true
	}
	_, ok := f.(Square)
	return ok
}

// Parse resolves a family spelling. The empty string and "square" name
// the paper's lattice; "chimera" takes optional (m,n,k) parameters and
// defaults to chimera(2,2,4); "coupler" is the tunable-coupler grid.
func Parse(name string) (Family, error) {
	s := strings.TrimSpace(name)
	switch s {
	case "", "square":
		return Square{}, nil
	case "coupler":
		return Coupler{}, nil
	case "chimera":
		return NewChimera(2, 2, 4)
	}
	if strings.HasPrefix(s, "chimera(") && strings.HasSuffix(s, ")") {
		// Exactly three integers, with spaces allowed between them.
		body := s[len("chimera(") : len(s)-1]
		fields := strings.Split(strings.ReplaceAll(body, " ", ""), ",")
		mnk := make([]int, 0, 3)
		for _, f := range fields {
			if v, err := strconv.Atoi(f); err == nil {
				mnk = append(mnk, v)
			}
		}
		if len(fields) != 3 || len(mnk) != 3 {
			return nil, fmt.Errorf("topology: bad chimera parameters %q (want chimera(m,n,k))", name)
		}
		return NewChimera(mnk[0], mnk[1], mnk[2])
	}
	return nil, fmt.Errorf("topology: unknown family %q (have %s)", name, strings.Join(Names(), ", "))
}

// Canon returns the canonical spec spelling of a family name: the empty
// string for the square family (so legacy specs and explicit
// "-topology square" hash identically), the parameterised canonical name
// otherwise. Unknown spellings are returned unchanged — Parse reports
// the error at run time.
func Canon(name string) string {
	f, err := Parse(name)
	if err != nil {
		return name
	}
	if IsSquare(f) {
		return ""
	}
	return f.Name()
}

// regionAt returns q plus every qubit within coupling distance radius of
// q, ascending. Radius 2 reproduces freq.Region: conditions 1-4 need
// distance 1, conditions 5-7 a common neighbour.
func regionAt(adj [][]int, q, radius int) []int {
	in := map[int]bool{q: true}
	frontier := []int{q}
	for d := 0; d < radius; d++ {
		var next []int
		for _, u := range frontier {
			for _, v := range adj[u] {
				if !in[v] {
					in[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	out := make([]int, 0, len(in))
	for v := range in {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
