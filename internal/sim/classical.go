// Package sim provides two reference simulators used to validate the rest
// of the system:
//
//   - a classical reversible simulator for circuits over {X, CX, CCX,
//     SWAP}, which exactly executes the arithmetic benchmark networks on
//     computational basis states (truth-table verification), and
//   - a dense state-vector simulator for the full decomposed gate set,
//     which verifies decompositions and mapper output on small circuits.
//
// Neither simulator participates in the architecture design flow itself;
// they exist so the test suite can prove functional correctness.
package sim

import (
	"fmt"

	"qproc/internal/circuit"
)

// Bits is a classical register, one bool per qubit, index = qubit id.
type Bits []bool

// NewBits returns an n-bit register initialised from the low bits of v
// (bit i of v → qubit i).
func NewBits(n int, v uint64) Bits {
	b := make(Bits, n)
	for i := 0; i < n && i < 64; i++ {
		b[i] = v>>uint(i)&1 == 1
	}
	return b
}

// Uint64 packs the register into an integer (qubit i → bit i). Registers
// longer than 64 qubits panic: the classical tests never need them.
func (b Bits) Uint64() uint64 {
	if len(b) > 64 {
		panic("sim: register too wide for Uint64")
	}
	var v uint64
	for i, bit := range b {
		if bit {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Clone copies the register.
func (b Bits) Clone() Bits { return append(Bits(nil), b...) }

// Classical runs the circuit on the input register and returns the output
// register. Only classical gates are allowed: X, CX, CCX, SWAP; barriers
// and measurements are no-ops. Any other gate returns an error.
func Classical(c *circuit.Circuit, in Bits) (Bits, error) {
	if len(in) != c.Qubits {
		return nil, fmt.Errorf("sim: register has %d bits, circuit %d qubits", len(in), c.Qubits)
	}
	s := in.Clone()
	for i, g := range c.Gates {
		switch g.Kind {
		case circuit.OneQubit:
			if g.Name != "x" {
				return nil, fmt.Errorf("sim: gate %d (%v) is not classical", i, g)
			}
			s[g.Qubits[0]] = !s[g.Qubits[0]]
		case circuit.CX:
			if s[g.Qubits[0]] {
				s[g.Qubits[1]] = !s[g.Qubits[1]]
			}
		case circuit.CCX:
			if s[g.Qubits[0]] && s[g.Qubits[1]] {
				s[g.Qubits[2]] = !s[g.Qubits[2]]
			}
		case circuit.SWAP:
			a, b := g.Qubits[0], g.Qubits[1]
			s[a], s[b] = s[b], s[a]
		case circuit.Measure, circuit.Barrier:
			// no-op on basis states
		default:
			return nil, fmt.Errorf("sim: gate %d (%v) is not classical", i, g)
		}
	}
	return s, nil
}
