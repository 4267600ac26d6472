package experiments

import (
	"context"
	"testing"

	"qproc/internal/gen"
)

// tinyOptions is the smallest budget that still exercises every code
// path; used where a test needs several full-suite runs.
func tinyOptions() Options {
	o := QuickOptions()
	o.YieldTrials = 200
	o.FreqLocalTrials = 50
	return o
}

// TestRunAllParallelMatchesSerial is the determinism regression guard
// for design-level parallelism: Runner.RunAll with Parallel on and off
// must produce identical BenchmarkResult slices for the same seed. Any
// seed drift (a worker consuming shared random state) or data race
// (run under -race in CI) shows up as a point mismatch.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism run")
	}
	serial := tinyOptions()
	serial.Parallel = false
	parallel := tinyOptions()
	parallel.Parallel = true
	parallel.Workers = 4 // force real fan-out even on one CPU

	sres, err := NewRunner(serial).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	pres, err := NewRunner(parallel).RunAll()
	if err != nil {
		t.Fatal(err)
	}

	if len(sres) != len(pres) {
		t.Fatalf("result counts differ: %d vs %d", len(sres), len(pres))
	}
	for i := range sres {
		s, p := sres[i], pres[i]
		if s.Name != p.Name || s.Qubits != p.Qubits {
			t.Fatalf("header %d differs: %s/%d vs %s/%d", i, s.Name, s.Qubits, p.Name, p.Qubits)
		}
		if len(s.Points) != len(p.Points) {
			t.Fatalf("%s: point counts differ: %d vs %d", s.Name, len(s.Points), len(p.Points))
		}
		for j := range s.Points {
			if s.Points[j] != p.Points[j] {
				t.Fatalf("%s point %d differs:\nserial   %+v\nparallel %+v",
					s.Name, j, s.Points[j], p.Points[j])
			}
		}
	}
}

// TestRunCircuitNoiseCacheReused checks the tentpole's point: within one
// benchmark every design of a series shares a qubit count, so the yield
// engine draws one noise matrix per distinct count instead of one per
// design.
func TestRunCircuitNoiseCacheReused(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.RunBenchmark("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := r.NoiseCacheStats()
	if hits+misses != uint64(len(res.Points)) {
		t.Fatalf("cache saw %d lookups for %d points", hits+misses, len(res.Points))
	}
	// Distinct qubit counts: the generated designs all use the program's
	// 7 qubits; the baselines add 16 and 20.
	if misses > 3 {
		t.Errorf("%d noise matrices generated, want <= 3 (one per qubit count)", misses)
	}
	if hits < uint64(len(res.Points))-3 {
		t.Errorf("only %d cache hits for %d points", hits, len(res.Points))
	}
}

// TestWorkersOption pins the worker-resolution rule.
func TestWorkersOption(t *testing.T) {
	o := Options{}
	if o.workers() < 1 {
		t.Fatalf("default workers = %d", o.workers())
	}
	o.Workers = 3
	if o.workers() != 3 {
		t.Fatalf("explicit workers = %d", o.workers())
	}
}

// TestForEachCoversAllIndices checks the pool runs every index exactly
// once regardless of worker count.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		o := tinyOptions()
		o.Parallel = true
		o.Workers = workers
		r := NewRunner(o)
		const n = 100
		counts := make([]int32, n)
		r.forEachCtx(context.Background(), n, func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestSuiteInventory guards the benchmark list the parallel tests rely on.
func TestSuiteInventory(t *testing.T) {
	if len(gen.Names()) == 0 {
		t.Fatal("empty benchmark suite")
	}
}
