package experiments

import (
	"bytes"
	"context"
	"testing"

	"qproc/internal/core"
	"qproc/internal/search"
	"qproc/internal/yield"
)

// searchSweepSpec is the shared design space for the search-vs-sweep
// regression: one benchmark, the two configurations whose states the
// search can reach (Algorithm 3 and 5-frequency seeds plus bus/aux
// moves), two aux variants, one σ.
func searchSweepSpec() SweepSpec {
	return SweepSpec{
		Benchmarks: []string{"sym6_145"},
		Configs:    []core.Config{core.ConfigEffFull, core.ConfigEff5Freq},
		AuxCounts:  []int{0, 1},
		Sigmas:     []float64{yield.DefaultSigma},
	}
}

// TestSearchBeatsSweepWithFractionOfEvals is the headline acceptance
// criterion: with a fixed seed, the guided search must find a design
// whose Monte-Carlo yield estimate is at least the exhaustive sweep's
// best, while spending no more than 30% of the sweep's enumerated design
// points in full evaluations. Both engines share one noise cache, so
// every design with the same qubit count is scored under identical
// simulated fabrications and the comparison is exact.
func TestSearchBeatsSweepWithFractionOfEvals(t *testing.T) {
	r := NewRunner(tinyOptions())
	sweep, err := r.Sweep(context.Background(), searchSweepSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) == 0 {
		t.Fatal("empty sweep")
	}
	bestYield := 0.0
	for _, p := range sweep.Points {
		if p.Yield > bestYield {
			bestYield = p.Yield
		}
	}
	budget := (len(sweep.Points) * 30) / 100
	if budget < 1 {
		t.Fatalf("sweep too small for a meaningful budget: %d points", len(sweep.Points))
	}

	for _, strategy := range search.Strategies() {
		t.Run(string(strategy), func(t *testing.T) {
			out, err := r.Search(context.Background(), SearchSpec{
				Benchmark: "sym6_145",
				Strategy:  strategy,
				AuxCounts: []int{0, 1},
				MaxEvals:  budget,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.Evals > budget {
				t.Fatalf("search spent %d full evaluations, budget %d (sweep enumerated %d points)",
					out.Evals, budget, len(sweep.Points))
			}
			if out.Best.Yield < bestYield {
				t.Fatalf("search best yield %.4f below sweep best %.4f (evals %d/%d)",
					out.Best.Yield, bestYield, out.Evals, len(sweep.Points))
			}
			t.Logf("%s: yield %.4f (sweep best %.4f) in %d/%d evals, %d surrogate proposals",
				strategy, out.Best.Yield, bestYield, out.Evals, len(sweep.Points), out.Proposals)
		})
	}
}

// TestRunnerSearchParallelMatchesSerial extends the determinism guard to
// the runner wiring: identical outcomes with parallelism on and off.
func TestRunnerSearchParallelMatchesSerial(t *testing.T) {
	spec := SearchSpec{
		Benchmark: "sym6_145",
		Strategy:  search.Anneal,
		AuxCounts: []int{0, 1},
		Steps:     40,
		Proposals: 4,
		MaxEvals:  8,
	}
	serial := tinyOptions()
	serial.Parallel = false
	parallel := tinyOptions()
	parallel.Parallel = true
	parallel.Workers = 4

	sout, err := NewRunner(serial).Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pout, err := NewRunner(parallel).Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sout.Best != pout.Best {
		t.Fatalf("best points differ:\nserial   %+v\nparallel %+v", sout.Best, pout.Best)
	}
	if sout.Evals != pout.Evals || sout.Proposals != pout.Proposals || sout.Expected != pout.Expected {
		t.Fatalf("diagnostics differ: evals %d/%d, proposals %d/%d, expected %g/%g",
			sout.Evals, pout.Evals, sout.Proposals, pout.Proposals, sout.Expected, pout.Expected)
	}
}

// TestSearchProgressAndJSONRoundTrip covers the runner conveniences: the
// progress callback fires, and WriteJSON/ReadSearchJSON round-trip the
// outcome.
func TestSearchProgressAndJSONRoundTrip(t *testing.T) {
	r := NewRunner(tinyOptions())
	var calls int
	out, err := r.Search(context.Background(), SearchSpec{
		Benchmark: "sym6_145",
		Strategy:  search.Beam,
		BeamWidth: 3,
		Depth:     3,
		MaxEvals:  5,
	}, func(p SearchProgress) {
		calls++
		if p.Total <= 0 || p.Step <= 0 {
			t.Errorf("bad progress %+v", p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("progress callback never fired")
	}
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSearchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Best != out.Best || back.Evals != out.Evals || back.Spec.Benchmark != out.Spec.Benchmark {
		t.Fatalf("round trip drifted:\nwrote %+v\nread  %+v", out.Best, back.Best)
	}
}

// TestSearchSharedCacheWithSweep checks the CRN discipline across the two
// engines: a search after a sweep on the same runner shares the
// runner's compiled-kernel cache — every design it evaluates is one the
// sweep compiled, so it compiles nothing — and scores under the same
// noise bits as on a fresh runner, although each job draws its noise
// matrices into a cache of its own that ends with it.
func TestSearchSharedCacheWithSweep(t *testing.T) {
	spec := SearchSpec{
		Benchmark: "sym6_145",
		Strategy:  search.Beam,
		AuxCounts: []int{0, 1},
		MaxEvals:  4,
	}
	r := NewRunner(tinyOptions())
	if _, err := r.Sweep(context.Background(), searchSweepSpec(), nil); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := r.KernelCache().Stats()
	mapsBefore := r.MapCache().Snapshot()
	warm, err := r.Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, missesAfter := r.KernelCache().Stats(); missesAfter != missesBefore {
		t.Errorf("search compiled %d kernels; want 0 (the sweep compiled them)", missesAfter-missesBefore)
	}
	// The sweep routed baseline (1) as its NormPerf anchor; the search
	// reads the same routing.
	if maps := r.MapCache().Snapshot(); maps.Hits == mapsBefore.Hits {
		t.Errorf("search after a sweep missed baseline (1) in the map cache: %+v, before %+v", maps, mapsBefore)
	}
	if snap := r.NoiseCacheSnapshot(); snap.Entries != 0 || snap.Bytes != 0 {
		t.Errorf("noise matrices outlived their jobs: %+v", snap)
	}
	cold, err := NewRunner(tinyOptions()).Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := warm.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := cold.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("search after a sweep differs from the same search on a fresh runner")
	}
}
