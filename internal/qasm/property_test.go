package qasm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"qproc/internal/circuit"
	"qproc/internal/gen"
)

// randomCircuit draws a structurally valid circuit from the full gate
// vocabulary the writer supports.
func randomCircuit(rng *rand.Rand) *circuit.Circuit {
	n := 1 + rng.Intn(10)
	c := circuit.New("prop", n)
	oneQ := []string{"h", "x", "y", "z", "s", "sdg", "t", "tdg", "id"}
	param := []string{"rz", "rx", "ry", "u1", "p"}
	for g := 0; g < rng.Intn(60); g++ {
		switch rng.Intn(7) {
		case 0, 1:
			c.Append(circuit.Gate{Kind: circuit.OneQubit, Name: oneQ[rng.Intn(len(oneQ))], Qubits: []int{rng.Intn(n)}})
		case 2:
			c.Append(circuit.Gate{
				Kind: circuit.OneQubit, Name: param[rng.Intn(len(param))],
				Qubits: []int{rng.Intn(n)}, Params: []float64{rng.NormFloat64() * 4},
			})
		case 3:
			if n >= 2 {
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.CX(a, b)
				}
			}
		case 4:
			if n >= 3 {
				a, b, t := rng.Intn(n), rng.Intn(n), rng.Intn(n)
				if a != b && b != t && a != t {
					c.CCX(a, b, t)
				}
			}
		case 5:
			if n >= 2 {
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Swap(a, b)
				}
			}
		case 6:
			c.Append(circuit.NewMeasure(rng.Intn(n)))
		}
	}
	return c
}

// sameCircuit reports whether b has a's qubit count and gates: equal
// kinds, names and qubits, and parameters equal to float64 precision.
func sameCircuit(a, b *circuit.Circuit) bool {
	if a.Qubits != b.Qubits || len(a.Gates) != len(b.Gates) {
		return false
	}
	for i := range a.Gates {
		x, y := a.Gates[i], b.Gates[i]
		if x.Kind != y.Kind || x.Name != y.Name || !slices.Equal(x.Qubits, y.Qubits) || len(x.Params) != len(y.Params) {
			return false
		}
		for j := range x.Params {
			if math.Abs(x.Params[j]-y.Params[j]) > 1e-12*math.Max(1, math.Abs(x.Params[j])) {
				return false
			}
		}
	}
	return true
}

// TestPropertyRoundTrip: for random circuits, parse(write(c)) reproduces
// every gate exactly (names, qubits) and parameters to float64 precision.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCircuit(rand.New(rand.NewSource(seed)))
		text, err := String(c)
		if err != nil {
			t.Logf("seed %d: write: %v", seed, err)
			return false
		}
		back, err := ParseString(text)
		if err != nil {
			t.Logf("seed %d: parse: %v\n%s", seed, err, text)
			return false
		}
		return sameCircuit(c, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestParserNeverPanics feeds the parser mutated program text; errors are
// fine, panics are not.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base, err := String(randomCircuit(rng))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		mutated := []byte(base)
		for m := 0; m < 1+rng.Intn(8); m++ {
			pos := rng.Intn(len(mutated))
			switch rng.Intn(3) {
			case 0:
				mutated[pos] = byte(rng.Intn(128))
			case 1:
				mutated = append(mutated[:pos], mutated[pos+1:]...)
			case 2:
				mutated = append(mutated[:pos], append([]byte{byte(rng.Intn(128))}, mutated[pos:]...)...)
			}
			if len(mutated) == 0 {
				break
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on mutated input: %v\n%s", r, mutated)
				}
			}()
			_, _ = ParseString(string(mutated))
		}()
	}
}

// FuzzQASMParse: ParseString never panics; every circuit it accepts is
// valid, so no multi-qubit gate repeats a qubit; and writing an accepted
// circuit and parsing it back gives the same qubit count and gates. The
// seeds are every built-in benchmark, raw and decomposed, and the
// malformed programs of TestParseRejectsMalformedOperands.
func FuzzQASMParse(f *testing.F) {
	for _, b := range gen.Suite() {
		for _, c := range []*circuit.Circuit{b.Raw(), b.Build()} {
			text, err := String(c)
			if err != nil {
				f.Fatalf("%s: %v", c.Name, err)
			}
			f.Add(text)
		}
	}
	for _, tc := range malformedOperands {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted an invalid circuit: %v", err)
		}
		text, err := String(c)
		if err != nil {
			t.Fatalf("cannot write an accepted circuit: %v", err)
		}
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("cannot parse the written circuit: %v\n%s", err, text)
		}
		if !sameCircuit(c, back) {
			t.Fatalf("round trip changed the circuit:\n%s", text)
		}
	})
}
