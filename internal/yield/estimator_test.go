package yield

import (
	"math/rand"
	"testing"
)

// randomSparseGraph draws a connected-ish sparse graph: a random spanning
// path plus a few chords, the degree regime of the paper's lattices.
func randomSparseGraph(rng *rand.Rand, n int) [][]int {
	adj := make([][]int, n)
	add := func(a, b int) {
		for _, nb := range adj[a] {
			if nb == b {
				return
			}
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for q := 1; q < n; q++ {
		add(q-1, q)
	}
	for c := 0; c < n/3; c++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			add(a, b)
		}
	}
	return adj
}

func randomAssignment(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for q := range f {
		f[q] = 5.00 + 0.34*rng.Float64()
	}
	return f
}

// TestBatchMatchesReferenceOnRandomGraphs is the property-test leg of the
// differential suite: on random sparse graphs and assignments, the batch
// one-shot estimate, the always-serial scalar reference loop and the
// trial-survivor state's full build must agree bit for bit — serially and
// in parallel, at trial counts straddling the word and parallel-threshold
// boundaries.
func TestBatchMatchesReferenceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trialCounts := []int{1, 64, 65, ParallelThreshold - 1, ParallelThreshold, 777}
	for round := 0; round < 25; round++ {
		n := 3 + rng.Intn(14)
		adj := randomSparseGraph(rng, n)
		freqs := randomAssignment(rng, n)
		trials := trialCounts[round%len(trialCounts)]
		s := New(int64(100 + round))
		s.Trials = trials
		s.Sigma = 0.01 + 0.05*rng.Float64()
		s.Parallel = false
		noise := s.GenNoise(n)

		ref := s.ReferenceEstimate(adj, freqs, noise)
		if got := s.EstimateWithNoise(adj, freqs, noise); got != ref {
			t.Fatalf("round %d (n=%d trials=%d): serial batch %v != reference %v",
				round, n, trials, got, ref)
		}
		if got := s.NewTrialState(adj, freqs).Yield(); got != ref {
			t.Fatalf("round %d (n=%d trials=%d): trial state %v != reference %v",
				round, n, trials, got, ref)
		}
		s.Parallel = true
		if got := s.EstimateWithNoise(adj, freqs, noise); got != ref {
			t.Fatalf("round %d (n=%d trials=%d): parallel batch %v != reference %v",
				round, n, trials, got, ref)
		}
		if got := s.NewTrialState(adj, freqs).Yield(); got != ref {
			t.Fatalf("round %d (n=%d trials=%d): parallel trial state %v != reference %v",
				round, n, trials, got, ref)
		}
	}
}

// TestReferenceEstimateZeroTrials pins the reference side of the
// zero-trials contract: both estimate paths define the yield of an empty
// sample as 0, so the differential suite cannot mask a divergence there.
func TestReferenceEstimateZeroTrials(t *testing.T) {
	adj := [][]int{{1}, {0}}
	freqs := []float64{5.05, 5.15}
	s := New(1)
	if got := s.ReferenceEstimate(adj, freqs, nil); got != 0 {
		t.Fatalf("nil matrix: reference yield %v, want 0", got)
	}
	if got := s.ReferenceEstimate(adj, freqs, s.GenNoise(2).Head(0)); got != 0 {
		t.Fatalf("zero-trial matrix: reference yield %v, want 0", got)
	}
}

// TestEstimatorAdaptersAgree checks the two Monte-Carlo adapters return
// bit-identical numbers through the Estimator interface — whatever mix of
// shared and distinct topology keys the call sequence uses.
func TestEstimatorAdaptersAgree(t *testing.T) {
	adj, freqs := trialTestbed()
	moved := append([]float64(nil), freqs...)
	moved[3] += 0.02
	sim := func() *Simulator {
		s := New(8)
		s.Trials = 800
		s.Cache = NewNoiseCache()
		return s
	}
	var batch, inc Estimator = BatchEstimator{Sim: sim()}, &IncrementalEstimator{Sim: sim()}
	// Same topology key across calls: the incremental adapter reuses its
	// state; empty key: it rebuilds. Either way the numbers match batch.
	for _, key := range []string{"topo-a", ""} {
		for _, fs := range [][]float64{freqs, moved, freqs} {
			want := batch.Estimate(key, adj, fs)
			if got := inc.Estimate(key, adj, fs); got != want {
				t.Fatalf("key=%q: incremental %v != batch %v", key, got, want)
			}
		}
	}
	checked, skipped := inc.(*IncrementalEstimator).Stats()
	if checked == 0 {
		t.Fatal("incremental estimator reports zero condition evaluations")
	}
	if skipped == 0 {
		t.Fatal("keyed re-estimates should have skipped condition evaluations")
	}
}

// TestIncrementalEstimatorTopoSwitch drives the stateful adapter across
// two alternating topologies: correctness must not depend on state reuse,
// and a topology switch must rebuild rather than re-estimate.
func TestIncrementalEstimatorTopoSwitch(t *testing.T) {
	adjA, freqsA := trialTestbed()
	rng := rand.New(rand.NewSource(5))
	adjB := randomSparseGraph(rng, 10)
	freqsB := randomAssignment(rng, 10)
	s := New(17)
	s.Trials = 600
	s.Cache = NewNoiseCache()
	inc := &IncrementalEstimator{Sim: s}
	for rep := 0; rep < 3; rep++ {
		if got, want := inc.Estimate("A", adjA, freqsA), s.EstimateFreqs(adjA, freqsA); got != want {
			t.Fatalf("rep %d topo A: %v != %v", rep, got, want)
		}
		if got, want := inc.Estimate("B", adjB, freqsB), s.EstimateFreqs(adjB, freqsB); got != want {
			t.Fatalf("rep %d topo B: %v != %v", rep, got, want)
		}
	}
}
