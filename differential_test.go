package qproc_test

import (
	"testing"

	"qproc/internal/core"
	"qproc/internal/gen"
	"qproc/internal/topology"
	"qproc/internal/yield"
)

// familyTestbeds generates one eff-full design per topology family —
// square lattice, chimera(2,2,4) and tunable-coupler — the graphs every
// fast estimate path must prove itself on.
func familyTestbeds(t testing.TB) map[string]struct {
	adj   [][]int
	freqs []float64
} {
	t.Helper()
	bench, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	c := bench.Build().Decompose()
	beds := map[string]struct {
		adj   [][]int
		freqs []float64
	}{}
	for _, name := range []string{"square", "chimera(2,2,4)", "coupler"} {
		fam, err := topology.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		flow := core.NewFlow(1)
		flow.FreqLocalTrials = 150
		if !topology.IsSquare(fam) {
			flow.Family = fam
		}
		ds, err := flow.SeriesConfig(c, core.ConfigEffFull, -1, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := ds[0].Arch
		beds[name] = struct {
			adj   [][]int
			freqs []float64
		}{a.AdjList(), a.Freqs}
	}
	return beds
}

// TestEstimatePathsBitIdenticalAcrossFamilies is the cross-family
// differential suite: for every topology family, the batch one-shot
// estimate, the always-serial scalar reference loop, the trial-survivor
// state's full build, and a TrialState full re-estimate after a
// round-trip move must all return the same bits — serially and in
// parallel.
func TestEstimatePathsBitIdenticalAcrossFamilies(t *testing.T) {
	for name, bed := range familyTestbeds(t) {
		t.Run(name, func(t *testing.T) {
			s := yield.New(3)
			s.Trials = 2000
			s.Cache = yield.NewNoiseCache()
			s.Parallel = false
			noise := s.GenNoise(len(bed.freqs))

			ref := s.ReferenceEstimate(bed.adj, bed.freqs, noise)
			if got := s.EstimateWithNoise(bed.adj, bed.freqs, noise); got != ref {
				t.Fatalf("serial batch %v != reference %v", got, ref)
			}
			st := s.NewTrialState(bed.adj, bed.freqs)
			if got := st.Yield(); got != ref {
				t.Fatalf("trial state %v != reference %v", got, ref)
			}
			// Full re-estimate round trip: kick one qubit, move it back.
			kicked := append([]float64(nil), bed.freqs...)
			kicked[len(kicked)/2] += 0.015
			s.ReEstimate(st, nil, kicked)
			if got := s.ReEstimate(st, nil, bed.freqs); got != ref {
				t.Fatalf("round-trip re-estimate %v != reference %v", got, ref)
			}

			s.Parallel = true
			if got := s.EstimateWithNoise(bed.adj, bed.freqs, noise); got != ref {
				t.Fatalf("parallel batch %v != reference %v", got, ref)
			}
			if got := s.NewTrialState(bed.adj, bed.freqs).Yield(); got != ref {
				t.Fatalf("parallel trial state %v != reference %v", got, ref)
			}

			// The interface adapters must expose exactly these numbers.
			for kind, est := range map[string]yield.Estimator{
				"batch":       yield.BatchEstimator{Sim: s},
				"incremental": &yield.IncrementalEstimator{Sim: s},
			} {
				if got := est.Estimate(name, bed.adj, bed.freqs); got != ref {
					t.Fatalf("%s adapter %v != reference %v", kind, got, ref)
				}
			}
		})
	}
}
