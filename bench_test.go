// Benchmark harness: one testing.B target per figure and headline table
// of the paper's evaluation (see DESIGN.md §2 for the index), plus
// ablation benches for the design choices the implementation makes.
//
// Figure/table regeneration benches run the same code as
// cmd/experiments; they use reduced Monte-Carlo budgets so that
// `go test -bench=. -benchmem` completes in minutes (run
// `cmd/experiments -all` for the paper-fidelity budgets) and report the
// headline numbers as custom metrics. Series tables are emitted via
// b.Log (visible with -v).
package qproc_test

import (
	"context"
	"fmt"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/freq"
	"qproc/internal/gen"
	"qproc/internal/mapper"
	"qproc/internal/profile"
	"qproc/internal/search"
	"qproc/internal/topology"
	"qproc/internal/yield"
)

// benchOptions returns the reduced-budget configuration used by the
// figure benches.
func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.YieldTrials = 1000
	o.FreqLocalTrials = 150
	o.Parallel = false
	return o
}

// BenchmarkFig4Profiling regenerates the Figure 4 worked example:
// profiling the 5-qubit circuit into matrix + degree list.
func BenchmarkFig4Profiling(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		out = s
	}
	b.Log("\n" + out)
}

// BenchmarkFig5Patterns regenerates the Figure 5 coupling-pattern
// matrices for UCCSD_ansatz_8 and misex1_241.
func BenchmarkFig5Patterns(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		out = s
	}
	b.Log("\n" + out)
}

// BenchmarkFig9Baselines regenerates the four IBM baseline designs with
// their 5-frequency plans and reports their simulated yields.
func BenchmarkFig9Baselines(b *testing.B) {
	sim := yield.New(1)
	sim.Trials = 2000
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Fig9()
		for j, bl := range arch.Baselines() {
			a := arch.NewBaseline(bl)
			y := sim.Estimate(a)
			if i == 0 {
				b.ReportMetric(y, fmt.Sprintf("yield(%d)", j+1))
			}
		}
	}
	b.Log("\n" + out)
}

// BenchmarkFig10 regenerates one Figure 10 subplot per sub-benchmark:
// all five experiment configurations for each of the twelve programs.
// Custom metrics report the eff-full endpoints (best yield and best
// normalised performance).
func BenchmarkFig10(b *testing.B) {
	for _, name := range gen.Names() {
		b.Run(name, func(b *testing.B) {
			r := experiments.NewRunner(benchOptions())
			var res *experiments.BenchmarkResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = r.RunBenchmark(name)
				if err != nil {
					b.Fatal(err)
				}
			}
			eff := res.ByConfig(core.ConfigEffFull)
			if len(eff) > 0 {
				b.ReportMetric(eff[0].Yield, "yield(k=0)")
				b.ReportMetric(eff[len(eff)-1].NormPerf, "perf(k=max)")
			}
			b.Log("\n" + experiments.FormatFig10(res))
		})
	}
}

// runAllOnce executes the whole evaluation once per bench iteration and
// hands the results to a summary formatter.
func runAllOnce(b *testing.B, metric func([]*experiments.BenchmarkResult, int) (string, float64, string)) {
	b.Helper()
	opt := benchOptions()
	opt.Parallel = true
	r := experiments.NewRunner(opt)
	var table string
	var value float64
	var unit string
	for i := 0; i < b.N; i++ {
		results, err := r.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		table, value, unit = metric(results, opt.YieldTrials)
	}
	b.ReportMetric(value, unit)
	b.Log("\n" + table)
}

// BenchmarkSummaryOverall regenerates the §5.3 overall-improvement table;
// the metric is the geomean yield gain of the smallest tailored design
// over IBM baseline (1).
func BenchmarkSummaryOverall(b *testing.B) {
	runAllOnce(b, func(res []*experiments.BenchmarkResult, trials int) (string, float64, string) {
		rows := experiments.SummaryOverall(res, trials)
		var ratios []float64
		for _, r := range rows {
			ratios = append(ratios, r.VsBase1Yield)
		}
		return experiments.FormatOverall(rows), experiments.GeoMean(ratios), "yieldGain(vs1)"
	})
}

// BenchmarkSummaryLayout regenerates the §5.4.1 layout-effect table; the
// metric is the geomean yield ratio of eff-layout-only over baseline (2).
func BenchmarkSummaryLayout(b *testing.B) {
	runAllOnce(b, func(res []*experiments.BenchmarkResult, trials int) (string, float64, string) {
		rows := experiments.SummaryLayout(res, trials)
		var ratios []float64
		for _, r := range rows {
			ratios = append(ratios, r.YieldRatio)
		}
		return experiments.FormatLayout(rows), experiments.GeoMean(ratios), "yieldGain(layout)"
	})
}

// BenchmarkSummaryBus regenerates the §5.4.2 bus-selection-quality table;
// the metric is the geomean performance of the weighted selection against
// the best random sample at equal bus count.
func BenchmarkSummaryBus(b *testing.B) {
	runAllOnce(b, func(res []*experiments.BenchmarkResult, trials int) (string, float64, string) {
		rows := experiments.SummaryBus(res, trials)
		var ratios []float64
		for _, r := range rows {
			ratios = append(ratios, r.PerfRatio)
		}
		return experiments.FormatBus(rows), experiments.GeoMean(ratios), "perfVsRandom"
	})
}

// BenchmarkSummaryFreq regenerates the §5.4.3 frequency-allocation table;
// the metric is the geomean yield gain of Algorithm 3 over the 5-freq
// scheme.
func BenchmarkSummaryFreq(b *testing.B) {
	runAllOnce(b, func(res []*experiments.BenchmarkResult, trials int) (string, float64, string) {
		rows := experiments.SummaryFreq(res, trials)
		var ratios []float64
		for _, r := range rows {
			ratios = append(ratios, r.YieldRatio)
		}
		return experiments.FormatFreq(rows), experiments.GeoMean(ratios), "yieldGain(freq)"
	})
}

// BenchmarkRunAll measures the design-space engine end to end: the
// whole twelve-benchmark suite at QuickOptions-scale budgets, serial vs
// design-level parallel execution of the identical deterministic
// workload (the two modes produce bit-identical results; compare ns/op
// for the fan-out win, and see BenchmarkEstimateCached/-Uncached in
// internal/yield for the noise-cache effect in isolation).
func BenchmarkRunAll(b *testing.B) {
	for _, mode := range []struct {
		name     string
		parallel bool
	}{{"serial", false}, {"parallel", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := benchOptions()
			opt.Parallel = mode.parallel
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner(opt)
				if _, err := r.RunAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep measures the sweep engine on a 2-σ × 2-aux slice of one
// benchmark.
func BenchmarkSweep(b *testing.B) {
	spec := experiments.SweepSpec{
		Benchmarks: []string{"sym6_145"},
		Configs:    []core.Config{core.ConfigIBM, core.ConfigEffFull},
		AuxCounts:  []int{0, 1},
		Sigmas:     []float64{0.02, 0.04},
	}
	opt := benchOptions()
	opt.Parallel = true
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(opt)
		if _, err := r.Sweep(context.Background(), spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearch measures the guided design-space search (the sweep
// engine's successor): annealing and beam on one benchmark with a capped
// Monte-Carlo budget, reporting the best yield found and the full
// evaluations spent (the currency the surrogate saves).
func BenchmarkSearch(b *testing.B) {
	// Budgets are per strategy: the anneal cap matches the portfolio
	// sub-bench below (the acceptance comparison runs at equal total
	// budget) and does not bind — annealing's promotion threshold
	// naturally spends 5 — while beam is cap-bound, so its budget stays
	// where the benchmark history pinned it.
	for _, tc := range []struct {
		strategy search.Strategy
		maxEvals int
	}{{search.Anneal, 20}, {search.Beam, 10}} {
		b.Run(string(tc.strategy), func(b *testing.B) {
			opt := benchOptions()
			opt.Parallel = true
			var out *experiments.SearchOutcome
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner(opt)
				var err error
				out, err = r.Search(context.Background(), experiments.SearchSpec{
					Benchmark: "sym6_145",
					Strategy:  tc.strategy,
					AuxCounts: []int{0, 1},
					Steps:     60,
					MaxEvals:  tc.maxEvals,
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(out.Best.Yield, "yield")
			b.ReportMetric(float64(out.Evals), "evals")
		})
	}
	// portfolio: four diversified lanes (base anneal, beam, temperature
	// ladder) at the same total Monte-Carlo budget as the anneal
	// sub-bench, exchanging elites over a shared compiled-kernel cache.
	// The acceptance comparison: its yield metric must be at least the
	// anneal sub-bench's at equal budget. Lane 0's quarter share covers
	// the base anneal's natural spend and every one of its promotions
	// lands before the first exchange barrier, so the portfolio contains
	// the single-lane run it diversifies.
	b.Run("portfolio", func(b *testing.B) {
		opt := benchOptions()
		opt.Parallel = true
		var out *experiments.SearchOutcome
		for i := 0; i < b.N; i++ {
			r := experiments.NewRunner(opt)
			var err error
			out, err = r.Portfolio(context.Background(), experiments.PortfolioSpec{
				SearchSpec: experiments.SearchSpec{
					Benchmark: "sym6_145",
					Strategy:  search.Anneal,
					AuxCounts: []int{0, 1},
					Steps:     60,
					MaxEvals:  20,
				},
				Lanes: 4,
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(out.Best.Yield, "yield")
		b.ReportMetric(float64(out.Evals), "evals")
		b.ReportMetric(float64(out.Exchanges), "exchanges")
	})
	// The families without bus sites anneal over frequencies and aux
	// variants alone, repairing at reach 2 (chimera) and reach 1
	// (coupler).
	for _, tc := range []struct{ name, topology string }{
		{"anneal-chimera", "chimera(2,2,4)"},
		{"anneal-coupler", "coupler"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opt := benchOptions()
			opt.Parallel = true
			var out *experiments.SearchOutcome
			for i := 0; i < b.N; i++ {
				r := experiments.NewRunner(opt)
				var err error
				out, err = r.Search(context.Background(), experiments.SearchSpec{
					Benchmark: "sym6_145",
					Strategy:  search.Anneal,
					Topology:  tc.topology,
					Steps:     60,
					MaxEvals:  10,
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(out.Best.Yield, "yield")
			b.ReportMetric(float64(out.Evals), "evals")
		})
	}
}

// benchFamilyArch generates the eff-full base design of sym6_145 on the
// named topology family — the shared testbed of the estimate benches.
func benchFamilyArch(b *testing.B, topo string) *arch.Architecture {
	b.Helper()
	bench, err := gen.Get("sym6_145")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Build().Decompose()
	fam, err := topology.Parse(topo)
	if err != nil {
		b.Fatal(err)
	}
	flow := core.NewFlow(1)
	flow.FreqLocalTrials = 150
	if !topology.IsSquare(fam) {
		flow.Family = fam
	}
	ds, err := flow.SeriesConfig(c, core.ConfigEffFull, -1, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds[0].Arch
}

// BenchmarkEstimate measures the Monte-Carlo yield estimator on the
// per-family base layouts — the coupler sub-bench is the tunable-coupler
// regression gate (pairwise-only graph, distance-1 regions). The plain
// sub-benches keep the historical configuration (1000 trials, noise
// redrawn per estimate) so the series stays comparable across PRs; the
// batch- sub-benches measure the production configuration — the paper's
// 10 000-trial budget against a warmed noise cache, which is how the
// experiments runner always invokes the estimator — isolating the batch
// kernel sweep itself.
func BenchmarkEstimate(b *testing.B) {
	for _, topo := range []string{"square", "coupler"} {
		b.Run(topo, func(b *testing.B) {
			a := benchFamilyArch(b, topo)
			sim := yield.New(1)
			sim.Trials = 1000
			var y float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y = sim.Estimate(a)
			}
			b.ReportMetric(y, "yield")
		})
	}
	for _, topo := range []string{"square", "chimera(2,2,4)", "coupler"} {
		name := map[string]string{
			"square": "batch-square", "chimera(2,2,4)": "batch-chimera", "coupler": "batch-coupler",
		}[topo]
		b.Run(name, func(b *testing.B) {
			a := benchFamilyArch(b, topo)
			sim := yield.New(1)
			sim.Trials = yield.DefaultTrials
			sim.Parallel = false
			sim.Cache = yield.NewNoiseCache()
			sim.Estimate(a) // warm the noise entry
			var y float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y = sim.Estimate(a)
			}
			b.ReportMetric(y, "yield")
		})
	}
}

// --- ablation and micro benches -------------------------------------

// BenchmarkIncrementalScore compares the incremental analytic surrogate
// against one-shot recomputation for a committed single-qubit frequency
// move, as the guided search makes after each coordinate-descent pick
// (MovePlan ranks the candidates themselves).
func BenchmarkIncrementalScore(b *testing.B) {
	a := arch.NewBaseline(arch.IBM20Q4Bus)
	al := freq.NewAllocator(1)
	fs := al.Allocate(a)
	adj := a.AdjList()
	params := collision.DefaultParams()
	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs[3] = 5.00 + float64(i%35)*0.01
			collision.ExpectedCollisions(adj, fs, yield.DefaultSigma, params)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		inc := collision.NewIncremental(adj, fs, yield.DefaultSigma, params)
		for i := 0; i < b.N; i++ {
			inc.Set1(3, 5.00+float64(i%35)*0.01)
			inc.Score()
		}
	})
}

// BenchmarkAblationFreqScoring compares the two Algorithm 3 scoring
// modes (analytic expected-collision vs the paper's Monte-Carlo local
// yield) on one generated topology: wall-clock per allocation, with the
// resulting plan quality as a custom metric (lower expected collisions is
// better).
func BenchmarkAblationFreqScoring(b *testing.B) {
	bench, err := gen.Get("dc1_220")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Build()
	topo, _, err := core.NewFlow(1).BaseLayout(c, 0)
	if err != nil {
		b.Fatal(err)
	}
	params := collision.DefaultParams()
	for _, mode := range []struct {
		name string
		mode freq.Mode
	}{{"analytic", freq.ScoreAnalytic}, {"mc", freq.ScoreMC}} {
		b.Run(mode.name, func(b *testing.B) {
			al := freq.NewAllocator(1)
			al.Mode = mode.mode
			al.LocalTrials = 500
			var e float64
			for i := 0; i < b.N; i++ {
				fs := al.Allocate(topo)
				e = collision.ExpectedCollisions(topo.AdjList(), fs, al.Sigma, params)
			}
			b.ReportMetric(e, "E[collisions]")
		})
	}
}

// BenchmarkAblationFreqSweeps measures the refinement-sweep extension:
// plan quality with 0, 1 and 2 sweeps.
func BenchmarkAblationFreqSweeps(b *testing.B) {
	a := arch.NewBaseline(arch.IBM16Q4Bus)
	params := collision.DefaultParams()
	for _, sweeps := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("sweeps=%d", sweeps), func(b *testing.B) {
			al := freq.NewAllocator(1)
			al.Sweeps = sweeps
			var e float64
			for i := 0; i < b.N; i++ {
				fs := al.Allocate(a)
				e = collision.ExpectedCollisions(a.AdjList(), fs, al.Sigma, params)
			}
			b.ReportMetric(e, "E[collisions]")
		})
	}
}

// BenchmarkAblationMapperIterations measures the SABRE forward-backward
// refinement: post-mapping gate count at 0, 1 and 3 iterations.
func BenchmarkAblationMapperIterations(b *testing.B) {
	bench, err := gen.Get("misex1_241")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Build()
	a := arch.NewBaseline(arch.IBM20Q2Bus)
	for _, iters := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			opt := mapper.DefaultOptions()
			opt.Iterations = iters
			var gates int
			for i := 0; i < b.N; i++ {
				res, err := mapper.Map(c, a, opt)
				if err != nil {
					b.Fatal(err)
				}
				gates = res.GateCount
			}
			b.ReportMetric(float64(gates), "gates")
		})
	}
}

// BenchmarkAblationAuxQubits measures the Section 6 auxiliary-qubit
// extension: designs with 0, 1 and 2 aux qubits for one benchmark,
// reporting the post-mapping gate count and yield trade-off (aux qubits
// trade yield for routing freedom — the opposite knob to buses).
func BenchmarkAblationAuxQubits(b *testing.B) {
	bench, err := gen.Get("dc1_220")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Build()
	sim := yield.New(1)
	sim.Trials = 2000
	for _, aux := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("aux=%d", aux), func(b *testing.B) {
			var gates int
			var y float64
			for i := 0; i < b.N; i++ {
				flow := core.NewFlow(1)
				flow.FreqLocalTrials = 150
				designs, err := flow.SeriesConfig(c, core.ConfigEffFull, 0, aux, 0)
				if err != nil {
					b.Fatal(err)
				}
				res, err := mapper.Map(c, designs[0].Arch, mapper.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				gates = res.GateCount
				y = sim.Estimate(designs[0].Arch)
			}
			b.ReportMetric(float64(gates), "gates")
			b.ReportMetric(y, "yield")
		})
	}
}

// BenchmarkYieldSimulator measures the Monte-Carlo yield engine on the
// densest baseline (10 000 trials as in the paper).
func BenchmarkYieldSimulator(b *testing.B) {
	a := arch.NewBaseline(arch.IBM20Q4Bus)
	sim := yield.New(1)
	var y float64
	for i := 0; i < b.N; i++ {
		y = sim.Estimate(a)
	}
	b.ReportMetric(y, "yield")
}

// BenchmarkMapper measures SABRE routing speed on the largest benchmark
// circuit.
func BenchmarkMapper(b *testing.B) {
	bench, err := gen.Get("square_root_7")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Build()
	a := arch.NewBaseline(arch.IBM16Q2Bus)
	opt := mapper.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Map(c, a, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfiler measures profiling throughput on the largest circuit.
func BenchmarkProfiler(b *testing.B) {
	bench, err := gen.Get("UCCSD_ansatz_8")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.New(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerators measures benchmark-circuit synthesis.
func BenchmarkGenerators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range gen.Suite() {
			bench.Build()
		}
	}
}
