package qasm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"qproc/internal/circuit"
	"qproc/internal/gen"
	"qproc/internal/sim"
)

func TestRoundTripSmall(t *testing.T) {
	c := circuit.New("rt", 3)
	c.H(0).CX(0, 1).T(1).Tdg(2).RZ(2, 1.25).RX(0, -0.5).Swap(1, 2).CCX(0, 1, 2)
	c.Append(circuit.Gate{Kind: circuit.Barrier})
	c.MeasureAll()

	text, err := String(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse failed:\n%s\n%v", text, err)
	}
	if back.Qubits != c.Qubits || len(back.Gates) != len(c.Gates) {
		t.Fatalf("round trip: %d qubits/%d gates, want %d/%d",
			back.Qubits, len(back.Gates), c.Qubits, len(c.Gates))
	}
	for i := range c.Gates {
		a, b := c.Gates[i], back.Gates[i]
		if a.Kind != b.Kind || a.Name != b.Name || len(a.Qubits) != len(b.Qubits) {
			t.Fatalf("gate %d: %v vs %v", i, a, b)
		}
		for j := range a.Qubits {
			if a.Qubits[j] != b.Qubits[j] {
				t.Fatalf("gate %d qubit %d: %v vs %v", i, j, a, b)
			}
		}
		for j := range a.Params {
			if math.Abs(a.Params[j]-b.Params[j]) > 1e-15 {
				t.Fatalf("gate %d param %d: %v vs %v", i, j, a, b)
			}
		}
	}
}

// TestRoundTripBenchmarks round-trips every generated benchmark (raw and
// decomposed) and checks gate-level identity.
func TestRoundTripBenchmarks(t *testing.T) {
	for _, b := range gen.Suite() {
		for _, c := range []*circuit.Circuit{b.Raw(), b.Build()} {
			text, err := String(c)
			if err != nil {
				t.Fatalf("%s: write: %v", c.Name, err)
			}
			back, err := ParseString(text)
			if err != nil {
				t.Fatalf("%s: parse: %v", c.Name, err)
			}
			if back.Qubits != c.Qubits || len(back.Gates) != len(c.Gates) {
				t.Fatalf("%s: %d/%d vs %d/%d", c.Name, back.Qubits, len(back.Gates), c.Qubits, len(c.Gates))
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
		}
	}
}

// TestRoundTripPreservesSemantics: parse(write(c)) behaves identically on
// a classical circuit.
func TestRoundTripPreservesSemantics(t *testing.T) {
	b, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	c := b.Raw()
	text, err := String(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 64; x += 7 {
		want, err := sim.Classical(c, sim.NewBits(c.Qubits, x))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Classical(back, sim.NewBits(back.Qubits, x))
		if err != nil {
			t.Fatal(err)
		}
		if want.Uint64() != got.Uint64() {
			t.Fatalf("x=%d: %b vs %b", x, got.Uint64(), want.Uint64())
		}
	}
}

func TestParseExpressions(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
rz(pi/2) q[0];
rz(-pi/4) q[1];
u1(2*pi/8+0.5) q[0];
rx(1.5e-1) q[1];
rz((pi)) q[0];
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Pi / 2, -math.Pi / 4, 2*math.Pi/8 + 0.5, 0.15, math.Pi}
	for i, g := range c.Gates {
		if math.Abs(g.Params[0]-want[i]) > 1e-12 {
			t.Errorf("gate %d param = %v, want %v", i, g.Params[0], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no qreg", "OPENQASM 2.0;\nh q[0];"},
		{"bad version", "OPENQASM 3.0;\nqreg q[2];"},
		{"out of range", "OPENQASM 2.0;\nqreg q[2];\nh q[5];"},
		{"unknown gate", "OPENQASM 2.0;\nqreg q[2];\nfoo q[0];"},
		{"cx arity", "OPENQASM 2.0;\nqreg q[3];\ncx q[0];"},
		{"bad param", "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];"},
		{"unknown reg", "OPENQASM 2.0;\nqreg q[2];\nh r[0];"},
		{"double qreg", "OPENQASM 2.0;\nqreg q[2];\nqreg r[2];"},
		{"rz no param", "OPENQASM 2.0;\nqreg q[1];\nrz q[0];"},
	}
	for _, tc := range cases {
		if _, err := ParseString(tc.src); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// malformedOperands are programs whose last statement, on line 3, names
// its operands wrongly: a gate that repeats a qubit, text after a
// reference, an empty or extra operand, or a value no writer can emit.
var malformedOperands = []struct{ name, src string }{
	{"cx self-coupling", "OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];"},
	{"ccx repeated control", "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[0],q[2];"},
	{"swap self", "OPENQASM 2.0;\nqreg q[2];\nswap q[0],q[0];"},
	{"barrier repeat", "OPENQASM 2.0;\nqreg q[2];\nbarrier q[0],q[0];"},
	{"qreg trailing text", "OPENQASM 2.0;\n\nqreg q[2]garbage;"},
	{"creg trailing text", "OPENQASM 2.0;\nqreg q[2];\ncreg c[2]x;"},
	{"cx trailing text", "OPENQASM 2.0;\nqreg q[2];\ncx q[0]x,q[1]y;"},
	{"empty operand", "OPENQASM 2.0;\nqreg q[2];\ncx q[0],,q[1];"},
	{"cx parameter", "OPENQASM 2.0;\nqreg q[2];\ncx(0.5) q[0],q[1];"},
	{"infinite parameter", "OPENQASM 2.0;\nqreg q[1];\nrz(1e308*10) q[0];"},
	{"measure target", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0]x;"},
	{"measure unknown register", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> d[0];"},
}

// TestParseRejectsMalformedOperands: each malformed program is an error
// that names line 3, the 1-based line of the bad statement.
func TestParseRejectsMalformedOperands(t *testing.T) {
	for _, tc := range malformedOperands {
		c, err := ParseString(tc.src)
		if err == nil {
			t.Errorf("%s: accepted as %v", tc.name, c.Gates)
		} else if !strings.HasPrefix(err.Error(), "qasm: line 3: ") {
			t.Errorf("%s: error %q does not name line 3", tc.name, err)
		}
	}
}

// TestParseErrorLines: an error names the 1-based line its statement
// starts on, past blank lines, comments and multi-line statements.
func TestParseErrorLines(t *testing.T) {
	cases := []struct {
		src  string
		line int
	}{
		{"OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];", 3},
		{"OPENQASM 2.0;\nqreg q[1];\n\n// a comment; with a semicolon\n\nrz(1/0) q[0];", 6},
		{"OPENQASM 2.0;\nqreg q[1]; h q[0]; rz(1/0)\nq[0];", 2},
		{"foo q[0];", 1},
	}
	for _, tc := range cases {
		_, err := ParseString(tc.src)
		if want := fmt.Sprintf("qasm: line %d: ", tc.line); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%q: error %v, want one starting %q", tc.src, err, want)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `OPENQASM 2.0; // header comment
// full line comment
qreg q[1];
h q[0]; // trailing
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || c.Gates[0].Name != "h" {
		t.Fatalf("gates = %v", c.Gates)
	}
}

func TestParseBarrierForms(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg q[3];\nbarrier q;\nbarrier q[0],q[2];\n"
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Fatalf("gates = %v", c.Gates)
	}
	if len(c.Gates[0].Qubits) != 0 {
		t.Fatalf("full barrier = %v", c.Gates[0])
	}
	if len(c.Gates[1].Qubits) != 2 {
		t.Fatalf("partial barrier = %v", c.Gates[1])
	}
}

func TestWriterHeader(t *testing.T) {
	c := circuit.New("hdr", 2)
	c.CX(0, 1)
	text, err := String(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OPENQASM 2.0;", "qelib1.inc", "qreg q[2];", "creg c[2];", "cx q[0],q[1];"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestMeasureMapping(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[1] -> c[1];\n"
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || c.Gates[0].Kind != circuit.Measure || c.Gates[0].Qubits[0] != 1 {
		t.Fatalf("gates = %v", c.Gates)
	}
}
