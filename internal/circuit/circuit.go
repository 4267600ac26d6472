// Package circuit implements the quantum circuit model used throughout the
// design flow: gates over logical qubits, whole circuits, and the gate
// dependency DAG that the qubit mapper consumes.
//
// Following Section 2.1 of the paper, circuits are assumed to be decomposed
// into the IBM basis: arbitrary single-qubit gates plus the two-qubit CNOT.
// Multi-qubit primitives (Toffoli/MCT, SWAP, controlled-phase) exist as
// construction conveniences in internal/gen and are decomposed before any
// architecture work happens.
package circuit

import (
	"fmt"
	"slices"
	"strings"
)

// Kind enumerates the gate kinds in the circuit model.
type Kind uint8

// Gate kinds. OneQubit covers every single-qubit unitary; the Name and
// Params fields identify which. CX is the native two-qubit gate. SWAP and
// CCX are pre-decomposition conveniences only: Decomposed circuits never
// contain them. Measure and Barrier are non-unitary markers.
const (
	OneQubit Kind = iota
	CX
	SWAP
	CCX
	Measure
	Barrier
)

// String returns the lowercase mnemonic of the kind.
func (k Kind) String() string {
	switch k {
	case OneQubit:
		return "1q"
	case CX:
		return "cx"
	case SWAP:
		return "swap"
	case CCX:
		return "ccx"
	case Measure:
		return "measure"
	case Barrier:
		return "barrier"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Gate is a single operation on logical qubits.
//
// Field use by kind:
//
//	OneQubit: Name ("h", "x", "t", "rz", ...), Qubits[0], Params (rotation angles)
//	CX:       Qubits[0]=control, Qubits[1]=target
//	SWAP:     Qubits[0], Qubits[1]
//	CCX:      Qubits[0],[1]=controls, Qubits[2]=target
//	Measure:  Qubits[0]
//	Barrier:  Qubits = affected qubits (may be all)
type Gate struct {
	Kind   Kind
	Name   string
	Qubits []int
	Params []float64
}

// NewH returns a Hadamard gate on q.
func NewH(q int) Gate { return Gate{Kind: OneQubit, Name: "h", Qubits: []int{q}} }

// NewX returns a Pauli-X gate on q.
func NewX(q int) Gate { return Gate{Kind: OneQubit, Name: "x", Qubits: []int{q}} }

// NewT returns a T gate on q.
func NewT(q int) Gate { return Gate{Kind: OneQubit, Name: "t", Qubits: []int{q}} }

// NewTdg returns a T-dagger gate on q.
func NewTdg(q int) Gate { return Gate{Kind: OneQubit, Name: "tdg", Qubits: []int{q}} }

// NewRZ returns an RZ rotation by theta on q.
func NewRZ(q int, theta float64) Gate {
	return Gate{Kind: OneQubit, Name: "rz", Qubits: []int{q}, Params: []float64{theta}}
}

// NewRX returns an RX rotation by theta on q.
func NewRX(q int, theta float64) Gate {
	return Gate{Kind: OneQubit, Name: "rx", Qubits: []int{q}, Params: []float64{theta}}
}

// NewCX returns a CNOT with the given control and target.
func NewCX(control, target int) Gate { return Gate{Kind: CX, Qubits: []int{control, target}} }

// NewSwap returns a SWAP on a and b.
func NewSwap(a, b int) Gate { return Gate{Kind: SWAP, Qubits: []int{a, b}} }

// NewCCX returns a Toffoli with controls c0, c1 and target t.
func NewCCX(c0, c1, t int) Gate { return Gate{Kind: CCX, Qubits: []int{c0, c1, t}} }

// NewMeasure returns a measurement of q.
func NewMeasure(q int) Gate { return Gate{Kind: Measure, Qubits: []int{q}} }

// String renders the gate compactly, e.g. "cx 0,4" or "rz(1.571) 3".
func (g Gate) String() string {
	var b strings.Builder
	switch g.Kind {
	case OneQubit:
		b.WriteString(g.Name)
		if len(g.Params) > 0 {
			b.WriteByte('(')
			for i, p := range g.Params {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%.4g", p)
			}
			b.WriteByte(')')
		}
	default:
		b.WriteString(g.Kind.String())
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", q)
	}
	return b.String()
}

// Circuit is a quantum program: a number of logical qubits and an ordered
// gate sequence.
type Circuit struct {
	Name   string
	Qubits int
	Gates  []Gate
}

// New returns an empty circuit over n logical qubits.
func New(name string, n int) *Circuit {
	return &Circuit{Name: name, Qubits: n}
}

// Append adds gates to the end of the circuit. It panics if a gate
// references a qubit outside [0, Qubits): circuit construction is
// programmer-driven, so an out-of-range qubit is a bug, not input error.
func (c *Circuit) Append(gates ...Gate) {
	for _, g := range gates {
		for _, q := range g.Qubits {
			if q < 0 || q >= c.Qubits {
				panic(fmt.Sprintf("circuit %q: gate %v references qubit %d outside [0,%d)", c.Name, g, q, c.Qubits))
			}
		}
		c.Gates = append(c.Gates, g)
	}
}

// H, X, T, Tdg, RZ, RX, CX, Swap, CCX and MeasureAll are fluent appenders
// used heavily by the benchmark generators.

func (c *Circuit) H(q int) *Circuit             { c.Append(NewH(q)); return c }
func (c *Circuit) X(q int) *Circuit             { c.Append(NewX(q)); return c }
func (c *Circuit) T(q int) *Circuit             { c.Append(NewT(q)); return c }
func (c *Circuit) Tdg(q int) *Circuit           { c.Append(NewTdg(q)); return c }
func (c *Circuit) RZ(q int, t float64) *Circuit { c.Append(NewRZ(q, t)); return c }
func (c *Circuit) RX(q int, t float64) *Circuit { c.Append(NewRX(q, t)); return c }
func (c *Circuit) CX(ctl, tgt int) *Circuit     { c.Append(NewCX(ctl, tgt)); return c }
func (c *Circuit) Swap(a, b int) *Circuit       { c.Append(NewSwap(a, b)); return c }
func (c *Circuit) CCX(a, b, t int) *Circuit     { c.Append(NewCCX(a, b, t)); return c }

// MeasureAll appends a measurement of every qubit.
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.Qubits; q++ {
		c.Append(NewMeasure(q))
	}
	return c
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, Qubits: c.Qubits, Gates: make([]Gate, len(c.Gates))}
	for i, g := range c.Gates {
		ng := g
		ng.Qubits = append([]int(nil), g.Qubits...)
		if g.Params != nil {
			ng.Params = append([]float64(nil), g.Params...)
		}
		out.Gates[i] = ng
	}
	return out
}

// Stats summarises gate composition.
type Stats struct {
	Total    int // all gates including measurements and barriers
	OneQubit int
	CX       int
	SWAP     int
	CCX      int
	Measure  int
	Barrier  int
}

// Stats computes gate composition counts.
func (c *Circuit) Stats() Stats {
	var s Stats
	s.Total = len(c.Gates)
	for _, g := range c.Gates {
		switch g.Kind {
		case OneQubit:
			s.OneQubit++
		case CX:
			s.CX++
		case SWAP:
			s.SWAP++
		case CCX:
			s.CCX++
		case Measure:
			s.Measure++
		case Barrier:
			s.Barrier++
		}
	}
	return s
}

// GateCount returns the number of executable gates (everything except
// barriers). This is the paper's performance metric numerator: "total
// post-mapping gate count".
func (c *Circuit) GateCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind != Barrier {
			n++
		}
	}
	return n
}

// TwoQubitGates returns the indices into Gates of every CX gate, in order.
func (c *Circuit) TwoQubitGates() []int {
	var out []int
	for i, g := range c.Gates {
		if g.Kind == CX {
			out = append(out, i)
		}
	}
	return out
}

// Decompose returns an equivalent circuit over the IBM basis
// {1q unitaries, CX}: SWAPs become 3 CX, Toffolis become the standard
// 6-CX + T-depth construction (Nielsen & Chuang Fig. 4.9). Measurements and
// barriers pass through unchanged.
func (c *Circuit) Decompose() *Circuit {
	out := New(c.Name, c.Qubits)
	for _, g := range c.Gates {
		switch g.Kind {
		case SWAP:
			a, b := g.Qubits[0], g.Qubits[1]
			out.CX(a, b).CX(b, a).CX(a, b)
		case CCX:
			decomposeCCX(out, g.Qubits[0], g.Qubits[1], g.Qubits[2])
		default:
			out.Append(g)
		}
	}
	return out
}

// decomposeCCX appends the textbook 6-CNOT Toffoli decomposition.
func decomposeCCX(out *Circuit, c0, c1, t int) {
	out.H(t)
	out.CX(c1, t)
	out.Tdg(t)
	out.CX(c0, t)
	out.T(t)
	out.CX(c1, t)
	out.Tdg(t)
	out.CX(c0, t)
	out.T(c1)
	out.T(t)
	out.H(t)
	out.CX(c0, c1)
	out.T(c0)
	out.Tdg(c1)
	out.CX(c0, c1)
}

// Validate checks structural invariants: qubit indices in range, gate
// arities correct, and no duplicate qubit within a single gate. It returns
// the first violation found.
func (c *Circuit) Validate() error {
	if c.Qubits <= 0 {
		return fmt.Errorf("circuit %q: nonpositive qubit count %d", c.Name, c.Qubits)
	}
	for i, g := range c.Gates {
		want := -1
		switch g.Kind {
		case OneQubit, Measure:
			want = 1
		case CX, SWAP:
			want = 2
		case CCX:
			want = 3
		case Barrier:
			// any arity
		default:
			return fmt.Errorf("gate %d: unknown kind %d", i, g.Kind)
		}
		if want >= 0 && len(g.Qubits) != want {
			return fmt.Errorf("gate %d (%v): want %d qubits, have %d", i, g, want, len(g.Qubits))
		}
		for j, q := range g.Qubits {
			if q < 0 || q >= c.Qubits {
				return fmt.Errorf("gate %d (%v): qubit %d outside [0,%d)", i, g, q, c.Qubits)
			}
			if slices.Contains(g.Qubits[:j], q) {
				return fmt.Errorf("gate %d (%v): duplicate qubit %d", i, g, q)
			}
		}
		if g.Kind == OneQubit && g.Name == "" {
			return fmt.Errorf("gate %d: one-qubit gate with empty name", i)
		}
	}
	return nil
}
