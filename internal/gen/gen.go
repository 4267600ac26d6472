package gen

import (
	"fmt"

	"qproc/internal/circuit"
)

// Benchmark describes one of the paper's twelve evaluation programs.
type Benchmark struct {
	// Name is the paper's benchmark name, e.g. "misex1_241".
	Name string
	// Qubits is the logical qubit count (matches the paper).
	Qubits int
	// Domain is the application domain quoted in the paper.
	Domain string
	// Raw builds the program before basis decomposition (may contain CCX
	// and SWAP; for the arithmetic benchmarks this is the classical
	// reversible network the truth-table tests verify).
	Raw func() *circuit.Circuit
}

// Build returns the benchmark program in the decomposed {1q, CX} basis —
// the form the profiler and mapper consume.
func (b Benchmark) Build() *circuit.Circuit {
	return b.Raw().Decompose()
}

// Suite returns the twelve benchmarks in Figure 10 order.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "qft_16", Qubits: 16, Domain: "quantum algorithm", Raw: func() *circuit.Circuit { return QFT(16) }},
		{Name: "adr4_197", Qubits: 13, Domain: "quantum arithmetic", Raw: Adr4_197},
		{Name: "rd84_142", Qubits: 15, Domain: "quantum arithmetic", Raw: Rd84_142},
		{Name: "misex1_241", Qubits: 15, Domain: "quantum arithmetic", Raw: Misex1_241},
		{Name: "square_root_7", Qubits: 15, Domain: "quantum arithmetic", Raw: SquareRoot7},
		{Name: "radd_250", Qubits: 13, Domain: "quantum arithmetic", Raw: RAdd250},
		{Name: "cm152a_212", Qubits: 12, Domain: "quantum arithmetic", Raw: Cm152a212},
		{Name: "dc1_220", Qubits: 11, Domain: "quantum arithmetic", Raw: Dc1_220},
		{Name: "z4_268", Qubits: 11, Domain: "quantum arithmetic", Raw: Z4_268},
		{Name: "sym6_145", Qubits: 7, Domain: "boolean function", Raw: Sym6_145},
		{Name: "UCCSD_ansatz_8", Qubits: 8, Domain: "VQE simulation", Raw: func() *circuit.Circuit { return UCCSD(8) }},
		{Name: "ising_model_16", Qubits: 16, Domain: "hamiltonian simulation", Raw: func() *circuit.Circuit { return Ising(16, 10) }},
	}
}

// Get returns the named benchmark.
func Get(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("gen: unknown benchmark %q (have %v)", name, Names())
}

// Names lists the benchmark names in Figure 10 order.
func Names() []string {
	s := Suite()
	out := make([]string, len(s))
	for i, b := range s {
		out[i] = b.Name
	}
	return out
}
