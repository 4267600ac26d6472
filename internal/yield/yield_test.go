package yield

import (
	"math"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/collision"
	"qproc/internal/lattice"
	"qproc/internal/workpool"
)

func TestDeterminism(t *testing.T) {
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	s1 := New(42)
	s2 := New(42)
	if y1, y2 := s1.Estimate(a), s2.Estimate(a); y1 != y2 {
		t.Fatalf("same seed, different yields: %v vs %v", y1, y2)
	}
	s3 := New(43)
	s3.Trials = 200000 // make a different-seed collision with equal value unlikely
	_ = s3
}

func TestParallelMatchesSerial(t *testing.T) {
	a := arch.NewBaseline(arch.IBM20Q4Bus)
	s := New(7)
	s.Trials = 4000
	s.Parallel = true
	yp := s.Estimate(a)
	s.Parallel = false
	ys := s.Estimate(a)
	if yp != ys {
		t.Fatalf("parallel %v != serial %v", yp, ys)
	}
}

// TestTrialChunkPanicSurfacesOnCaller: a trial chunk that panics reaches
// the caller as a *workpool.PanicError even with no shared pool
// attached, so a job supervisor can fail that one job instead of the
// process dying on a helper goroutine.
func TestTrialChunkPanicSurfacesOnCaller(t *testing.T) {
	s := New(1)
	s.Parallel = true
	s.Workers = 4
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		s.overTrialChunks(4*64, func(lo, hi int) int {
			if lo == 2*64 {
				panic("chunk 2")
			}
			return hi - lo
		})
	}()
	pe, ok := recovered.(*workpool.PanicError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *workpool.PanicError", recovered, recovered)
	}
	if pe.Value != "chunk 2" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
}

func TestZeroSigmaIsDeterministic(t *testing.T) {
	// With zero fabrication noise, yield is 0 or 1 exactly, decided by
	// the deterministic collision check.
	a := arch.MustNew("pair", []lattice.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}})
	s := New(1)
	s.Sigma = 0
	s.Trials = 100

	if err := a.SetFrequencies([]float64{5.10, 5.20}); err != nil {
		t.Fatal(err)
	}
	if y := s.Estimate(a); y != 1 {
		t.Fatalf("clean separation yield = %v, want 1", y)
	}
	if err := a.SetFrequencies([]float64{5.10, 5.10}); err != nil {
		t.Fatal(err)
	}
	if y := s.Estimate(a); y != 0 {
		t.Fatalf("degenerate pair yield = %v, want 0", y)
	}
}

// TestYieldMatchesAnalyticSinglePair cross-validates Monte-Carlo yield
// against the closed-form collision probability on a single coupled pair:
// yield ≈ 1 − P(pair collision).
func TestYieldMatchesAnalyticSinglePair(t *testing.T) {
	a := arch.MustNew("pair", []lattice.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}})
	design := []float64{5.10, 5.20}
	if err := a.SetFrequencies(design); err != nil {
		t.Fatal(err)
	}
	s := New(3)
	s.Trials = 200000
	got := s.Estimate(a)
	p := collision.DefaultParams()
	// Control is the higher-frequency qubit 1.
	want := 1 - p.PairProb(design[1], design[0], s.Sigma)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("MC yield %.4f vs analytic %.4f", got, want)
	}
}

func TestMoreConnectionsLowerYield(t *testing.T) {
	// The paper's core premise: with the same frequency scheme, denser
	// connectivity cannot improve yield. Compare the four baselines.
	s := New(5)
	s.Trials = 20000
	y16two := s.Estimate(arch.NewBaseline(arch.IBM16Q2Bus))
	y16four := s.Estimate(arch.NewBaseline(arch.IBM16Q4Bus))
	y20two := s.Estimate(arch.NewBaseline(arch.IBM20Q2Bus))
	y20four := s.Estimate(arch.NewBaseline(arch.IBM20Q4Bus))
	if y16four > y16two {
		t.Errorf("16Q: 4-bus yield %v > 2-bus %v", y16four, y16two)
	}
	if y20four > y20two {
		t.Errorf("20Q: 4-bus yield %v > 2-bus %v", y20four, y20two)
	}
	if y16two <= 0 {
		t.Errorf("16Q 2-bus yield %v should be positive", y16two)
	}
}

func TestEstimatePanicsWithoutFrequencies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing frequencies")
		}
	}()
	a := arch.MustNew("nofreq", []lattice.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}})
	New(1).Estimate(a)
}

func TestCommonRandomNumbers(t *testing.T) {
	// Reusing one noise matrix must give identical yields for identical
	// assignments, enabling paired candidate comparison.
	adj := [][]int{{1}, {0, 2}, {1}}
	s := New(9)
	s.Trials = 2000
	noise := s.GenNoise(3)
	f := []float64{5.05, 5.15, 5.25}
	y1 := s.EstimateWithNoise(adj, f, noise)
	y2 := s.EstimateWithNoise(adj, f, noise)
	if y1 != y2 {
		t.Fatalf("CRN yields differ: %v vs %v", y1, y2)
	}
}

func TestGenNoiseShapeAndScale(t *testing.T) {
	s := New(13)
	s.Trials = 5000
	noise := s.GenNoise(4)
	if noise.Trials() != 5000 || noise.Qubits() != 4 {
		t.Fatalf("noise shape %dx%d", noise.Trials(), noise.Qubits())
	}
	var sum, sumSq float64
	n := 0
	for q := 0; q < noise.Qubits(); q++ {
		for _, v := range noise.Col(q) {
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.002 {
		t.Errorf("noise mean %.5f too far from 0", mean)
	}
	if math.Abs(std-s.Sigma) > 0.002 {
		t.Errorf("noise std %.5f, want %.3f", std, s.Sigma)
	}
}
