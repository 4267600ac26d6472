package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/gen"
	"qproc/internal/lattice"
	"qproc/internal/profile"
)

// Fig4Circuit returns the worked profiling example of Figure 4(a): a
// 5-qubit circuit whose two-qubit gates produce the coupling strength
// matrix of Figure 4(c) and the degree list q4:5, q0:3, q1:2, q2:1, q3:1
// of Figure 4(d).
func Fig4Circuit() *circuit.Circuit {
	c := circuit.New("fig4-example", 5)
	for q := 0; q < 5; q++ {
		c.H(q)
	}
	c.CX(0, 4)
	c.CX(0, 1)
	c.CX(1, 4)
	c.CX(2, 4)
	c.T(2)
	c.CX(4, 0)
	c.CX(3, 4)
	c.MeasureAll()
	return c
}

// Fig4 renders the profiling example: circuit statistics, coupling
// strength matrix and coupling degree list.
func Fig4() (string, error) {
	c := Fig4Circuit()
	p, err := profile.New(c)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 4: profiling example\n")
	st := c.Stats()
	fmt.Fprintf(&b, "circuit: %d qubits, %d gates (%d two-qubit)\n", c.Qubits, st.Total, st.CX)
	b.WriteString(p.String())
	return b.String(), nil
}

// Fig5 renders the coupling-strength-matrix heat maps of Figure 5 for
// UCCSD_ansatz_8 and misex1_241 (as numeric matrices).
func Fig5() (string, error) {
	var b strings.Builder
	b.WriteString("Figure 5: qubit coupling strength patterns\n\n")
	for _, name := range []string{"UCCSD_ansatz_8", "misex1_241"} {
		bench, err := gen.Get(name)
		if err != nil {
			return "", err
		}
		c := bench.Build()
		p, err := profile.New(c)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s, %d qubits, %s\n", bench.Name, bench.Qubits, bench.Domain)
		b.WriteString(p.String())
		b.WriteString(chainShare(p))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// chainShare reports what fraction of the total coupling strength lies on
// the nearest-neighbour chain (q0-q1, q1-q2, ...), the structural feature
// Figure 5 highlights for the UCCSD ansatz.
func chainShare(p *profile.Profile) string {
	chain, total := 0, 0
	for i := 0; i < p.Qubits; i++ {
		for j := i + 1; j < p.Qubits; j++ {
			total += p.Strength[i][j]
			if j == i+1 {
				chain += p.Strength[i][j]
			}
		}
	}
	if total == 0 {
		return "no two-qubit gates\n"
	}
	return fmt.Sprintf("chain pairs carry %d/%d of coupling strength (%.0f%%)\n",
		chain, total, 100*float64(chain)/float64(total))
}

// Fig9 renders the four IBM baseline designs: lattice, bus layout and the
// 5-frequency arrangement.
func Fig9() string {
	var b strings.Builder
	b.WriteString("Figure 9: baseline qubit frequency, layout and connection designs\n\n")
	for i, bl := range arch.Baselines() {
		a := arch.NewBaseline(bl)
		fmt.Fprintf(&b, "(%d) %s\n", i+1, a)
		b.WriteString(renderLattice(a))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "frequency scheme: fi = %.2f + %.4f*i GHz, i = (x + 2y) mod 5\n",
		arch.FiveFreqBase, arch.FiveFreqStep)
	return b.String()
}

// renderLattice draws an architecture as ASCII art: qubit frequency
// index at each occupied node, '#' marking squares with 4-qubit buses.
func renderLattice(a *arch.Architecture) string {
	return drawLattice(a, func(q int) string {
		if a.Freqs == nil {
			return "?"
		}
		return strconv.Itoa(int((a.Freqs[q]-arch.FiveFreqBase)/arch.FiveFreqStep+0.5) + 1)
	}, ".", "|")
}

// RenderDesign draws a generated architecture with frequencies in GHz.
func RenderDesign(a *arch.Architecture) string {
	return fmt.Sprintln(a) + drawLattice(a, func(q int) string {
		if a.Freqs == nil {
			return fmt.Sprintf("q%-2d      ", q)
		}
		return fmt.Sprintf("q%-2d[%4.2f]", q, a.Freqs[q])
	}, "  .      ", "   |     ")
}

// drawLattice draws a's qubits at their lattice nodes, top row first:
// node(q) at an occupied node, empty at a free one. Two lattice
// neighbours are joined only when the design couples them: by "--"
// within a row, and by the cell down (as wide as empty) below the upper
// one. "##" marks a multi-qubit bus square and stands for its diagonal
// couplings too. A graph family's coordinates are only a drawing
// embedding (topology.Chimera.Layout), so the couplings the drawing
// does not show are listed after it.
func drawLattice(a *arch.Architecture, node func(q int) string, empty, down string) string {
	lo, hi, ok := a.Occupied().Bounds()
	if !ok {
		return ""
	}
	adj := a.AdjList()
	shown := map[arch.Edge]bool{}
	multi := map[lattice.Square]bool{}
	for _, bus := range a.Buses {
		if bus.Kind != arch.MultiQubitBus {
			continue
		}
		multi[bus.Square] = true
		for i, p := range bus.Qubits {
			for _, q := range bus.Qubits[i+1:] {
				shown[arch.Edge{A: p, B: q}] = true
			}
		}
	}
	// edge returns on when the nodes at c and d hold coupled qubits, and
	// off otherwise.
	edge := func(c, d lattice.Coord, on, off string) string {
		p, okP := a.QubitAt(c)
		q, okQ := a.QubitAt(d)
		if !okP || !okQ || !slices.Contains(adj[p], q) {
			return off
		}
		shown[arch.Edge{A: min(p, q), B: max(p, q)}] = true
		return on
	}
	up := strings.Repeat(" ", len(down))
	var b strings.Builder
	for y := hi.Y; y >= lo.Y; y-- {
		for x := lo.X; x <= hi.X; x++ {
			c := lattice.Coord{X: x, Y: y}
			if q, here := a.QubitAt(c); here {
				b.WriteString(node(q))
			} else {
				b.WriteString(empty)
			}
			if x < hi.X {
				b.WriteString(edge(c, lattice.Coord{X: x + 1, Y: y}, "--", "  "))
			}
		}
		b.WriteByte('\n')
		if y == lo.Y {
			break
		}
		for x := lo.X; x <= hi.X; x++ {
			b.WriteString(edge(lattice.Coord{X: x, Y: y}, lattice.Coord{X: x, Y: y - 1}, down, up))
			if x < hi.X {
				if multi[lattice.Square{Origin: lattice.Coord{X: x, Y: y - 1}}] {
					b.WriteString("##")
				} else {
					b.WriteString("  ")
				}
			}
		}
		b.WriteByte('\n')
	}
	line, off := "couplings off the lattice:", 0
	for _, e := range a.Edges() {
		if shown[e] {
			continue
		}
		pair := fmt.Sprintf(" %d-%d", e.A, e.B)
		if len(line)+len(pair) > 72 {
			b.WriteString(line + "\n")
			line = " "
		}
		line += pair
		off++
	}
	if off > 0 {
		b.WriteString(line + "\n")
	}
	return b.String()
}
