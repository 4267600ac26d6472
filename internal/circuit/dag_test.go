package circuit

import (
	"math/rand"
	"testing"
)

func TestDAGSerialChain(t *testing.T) {
	c := New("chain", 1)
	c.H(0).T(0).H(0)
	d := NewDAG(c)
	f := d.NewFront()
	for want := 0; want < 3; want++ {
		r := f.Ready()
		if len(r) != 1 || r[0] != want {
			t.Fatalf("front = %v, want [%d]", r, want)
		}
		f.Resolve(r[0])
	}
	if !f.Done() {
		t.Fatal("front not done")
	}
}

func TestDAGParallelGates(t *testing.T) {
	c := New("par", 4)
	c.H(0).H(1).H(2).H(3).CX(0, 1).CX(2, 3)
	d := NewDAG(c)
	f := d.NewFront()
	if got := len(f.Ready()); got != 4 {
		t.Fatalf("initial front size = %d, want 4", got)
	}
	f.Resolve(f.Ready()...)
	if got := len(f.Ready()); got != 2 {
		t.Fatalf("second front size = %d, want 2", got)
	}
}

func TestDAGDependencyOrder(t *testing.T) {
	c := New("dep", 2)
	c.CX(0, 1) // gate 0
	c.H(0)     // gate 1 depends on 0
	c.H(1)     // gate 2 depends on 0
	c.CX(0, 1) // gate 3 depends on 1 and 2
	d := NewDAG(c)
	f := d.NewFront()
	if r := f.Ready(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("front = %v", r)
	}
	f.Resolve(0)
	if r := f.Ready(); len(r) != 2 {
		t.Fatalf("front after 0 = %v", r)
	}
	f.Resolve(1)
	if r := f.Ready(); len(r) != 1 || r[0] != 2 {
		t.Fatalf("front after 1 = %v", r)
	}
	f.Resolve(2)
	if r := f.Ready(); len(r) != 1 || r[0] != 3 {
		t.Fatalf("front after 2 = %v", r)
	}
}

func TestBarrierSerialises(t *testing.T) {
	c := New("bar", 2)
	c.H(0)
	c.Append(Gate{Kind: Barrier}) // full-width barrier
	c.H(1)
	d := NewDAG(c)
	f := d.NewFront()
	if r := f.Ready(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("H(1) must wait for the barrier: front = %v", r)
	}
}

func TestResolvePanicsOnNonReady(t *testing.T) {
	c := New("p", 2)
	c.H(0).T(0).H(1)
	for _, tc := range []struct {
		name  string
		gates []int
		want  string
	}{
		{"non-ready gate", []int{1}, "circuit: Resolve of gate not in front layer"},
		{"duplicate gate", []int{0, 0}, "circuit: duplicate gate in Resolve"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewDAG(c).NewFront()
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("recovered %v, want panic %q", got, tc.want)
				}
			}()
			f.Resolve(tc.gates...)
		})
	}
}

// TestFrontVisitsAllGatesOnce is a property test: for random circuits,
// draining the front visits every gate exactly once and never yields a
// gate before all of its qubit-predecessors.
func TestFrontVisitsAllGatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		c := New("rand", n)
		for g := 0; g < 5+rng.Intn(60); g++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			switch {
			case rng.Intn(3) == 0 || a == b:
				c.H(a)
			default:
				c.CX(a, b)
			}
		}
		d := NewDAG(c)
		f := d.NewFront()
		seen := make([]bool, len(c.Gates))
		lastOnQubit := make([]int, n)
		for i := range lastOnQubit {
			lastOnQubit[i] = -1
		}
		resolvedUpTo := make([]bool, len(c.Gates))
		for !f.Done() {
			ready := append([]int(nil), f.Ready()...)
			if len(ready) == 0 {
				t.Fatal("front empty but not done")
			}
			for _, gi := range ready {
				if seen[gi] {
					t.Fatalf("gate %d seen twice", gi)
				}
				seen[gi] = true
				// Every earlier gate sharing a qubit must already be resolved.
				for _, q := range c.Gates[gi].Qubits {
					for j := 0; j < gi; j++ {
						if resolvedUpTo[j] {
							continue
						}
						for _, qj := range c.Gates[j].Qubits {
							if qj == q {
								t.Fatalf("gate %d ready before predecessor %d on qubit %d", gi, j, q)
							}
						}
					}
				}
			}
			f.Resolve(ready...)
			for _, gi := range ready {
				resolvedUpTo[gi] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("gate %d never visited", i)
			}
		}
		_ = lastOnQubit
	}
}

func TestLayersAndDepth(t *testing.T) {
	c := New("layers", 3)
	c.H(0).H(1).CX(0, 1).H(2).CX(1, 2)
	d := NewDAG(c)
	layers := d.Layers()
	if d.Depth() != 3 {
		t.Fatalf("depth = %d, want 3 (layers %v)", d.Depth(), layers)
	}
	total := 0
	for _, l := range layers {
		total += len(l)
	}
	if total != len(c.Gates) {
		t.Fatalf("layers cover %d of %d gates", total, len(c.Gates))
	}
}
