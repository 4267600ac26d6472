// Command experiments regenerates the paper's evaluation artefacts
// (Section 5): Figures 4, 5, 9 and 10 and the §5.3/§5.4 summary tables.
//
// Usage:
//
//	experiments -fig 4            # profiling example
//	experiments -fig 5            # coupling patterns
//	experiments -fig 9            # IBM baselines
//	experiments -fig 10 [-bench misex1_241]
//	experiments -summary overall|layout|bus|freq
//	experiments -all              # everything (the paper-fidelity run)
//	experiments -quick ...        # reduced Monte-Carlo budgets
//	experiments -sweep [-sweep-bench a,b] [-aux 0,1] [-sigmas 0.02,0.03] \
//	            [-configs eff-full,ibm] [-out sweep.json] [-store runs]
//	experiments -search anneal|beam -bench sym6_145 [-aux 0,1] \
//	            [-max-evals 10] [-steps 400] [-beam-width 8] [-depth 12] \
//	            [-perf-weight 0.5] [-out search.json] [-store runs]
//
// The sweep fans out over (benchmark × config × aux-count × σ), prints
// per-cell progress to stderr and exports the full point set as JSON.
// The search replaces exhaustive enumeration with guided optimisation
// (simulated annealing or beam search) over the same design space,
// reporting the best design found and the Monte-Carlo evaluations spent.
//
// With -store, finished runs land content-addressed in the given
// directory: a repeated identical sweep or search is served from disk
// bit-for-bit with zero new Monte-Carlo work, and a cold search
// warm-starts from the best matching stored sweep point. qserve uses the
// same store layout, so CLI and service share one persistence path.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"qproc/internal/cliutil"
	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/gen"
	"qproc/internal/runstore"
	"qproc/internal/search"
	"qproc/internal/topology"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "figure to regenerate (4, 5, 9, 10)")
		bench   = flag.String("bench", "", "benchmark for -fig 10 (restricts the run) and -search (required)")
		summary = flag.String("summary", "", "summary table: overall, layout, bus, freq")
		all     = flag.Bool("all", false, "regenerate everything")
		quick   = flag.Bool("quick", false, "reduced Monte-Carlo budgets (fast smoke run)")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		workers = flag.Int("workers", 0, "bound on concurrent evaluations per fan-out level (0 = GOMAXPROCS)")
		serial  = flag.Bool("serial", false, "disable all parallelism")
		sweep   = flag.Bool("sweep", false, "run a design-space sweep")
		sweepB  = flag.String("sweep-bench", "", "comma-separated benchmarks for -sweep (default all)")
		auxFlag = flag.String("aux", "", "comma-separated auxiliary qubit counts for -sweep/-search (default 0)")
		sigmas  = flag.String("sigmas", "", "comma-separated fabrication σ values in GHz for -sweep (default 0.030)")
		configs = flag.String("configs", "", "comma-separated configurations for -sweep (default all five)")
		topo    = flag.String("topology", "", "topology family for -sweep/-search: square (default), chimera(m,n,k), coupler")
		out     = flag.String("out", "", "write -sweep/-search JSON to this file (default stdout)")
		store   = flag.String("store", "", "content-addressed run store directory: repeated -sweep/-search runs are served from it, searches warm-start from stored sweeps")

		searchMode = flag.String("search", "", "run a guided design-space search: anneal or beam")
		maxEvals   = flag.Int("max-evals", 0, "cap on full Monte-Carlo evaluations for -search (0 = unlimited)")
		steps      = flag.Int("steps", 0, "annealing steps for -search anneal (0 = default)")
		proposals  = flag.Int("proposals", 0, "proposals per annealing step (0 = default)")
		beamWidth  = flag.Int("beam-width", 0, "frontier size for -search beam (0 = default)")
		depth      = flag.Int("depth", 0, "maximum depth for -search beam (0 = default)")
		perfWeight = flag.Float64("perf-weight", 0, "blend mapped performance into the -search objective (0 = yield only)")
		portfolio  = flag.Bool("portfolio", false, "run -search as a portfolio of concurrent diversified lanes with elite exchange")
		lanes      = flag.Int("lanes", 0, "portfolio lane count for -portfolio (0 = default)")
	)
	flag.Parse()

	if err := cliutil.NonNegative("workers", *workers); err != nil {
		check(err)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"max-evals", *maxEvals}, {"steps", *steps}, {"proposals", *proposals},
		{"beam-width", *beamWidth}, {"depth", *depth}, {"lanes", *lanes},
	} {
		if err := cliutil.NonNegative(f.name, f.v); err != nil {
			check(err)
		}
	}
	check(cliutil.NonNegativeFloat("perf-weight", *perfWeight))
	if *store != "" && !*sweep && *searchMode == "" {
		check(fmt.Errorf("-store applies only to -sweep/-search mode"))
	}
	if *topo != "" && !*sweep && *searchMode == "" {
		check(fmt.Errorf("-topology applies only to -sweep/-search mode"))
	}
	if _, err := topology.Parse(*topo); err != nil {
		check(err)
	}
	if (*portfolio || *lanes > 0) && *searchMode == "" {
		check(fmt.Errorf("-portfolio/-lanes apply only to -search mode"))
	}

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	opt.Seed = *seed
	opt.Workers = *workers
	if *serial {
		opt.Parallel = false
	}
	r := experiments.NewRunner(opt)

	switch {
	case *searchMode != "":
		// Sweep-only axes must not be silently ignored in search mode.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "configs", "sweep-bench", "fig", "summary", "all":
				check(fmt.Errorf("-%s does not apply to -search mode", f.Name))
			}
		})
		runSearch(cliutil.SignalContext(), r, *searchMode, *bench, *topo, *auxFlag, *sigmas, *out, *store, searchKnobs{
			maxEvals: *maxEvals, steps: *steps, proposals: *proposals,
			beamWidth: *beamWidth, depth: *depth, perfWeight: *perfWeight,
			portfolio: *portfolio || *lanes > 0, lanes: *lanes,
		})
	case *sweep:
		runSweep(cliutil.SignalContext(), r, *sweepB, *topo, *auxFlag, *sigmas, *configs, *out, *store)
	case *fig == 4:
		s, err := experiments.Fig4()
		check(err)
		fmt.Print(s)
	case *fig == 5:
		s, err := experiments.Fig5()
		check(err)
		fmt.Print(s)
	case *fig == 9:
		fmt.Print(experiments.Fig9())
	case *fig == 10 && *bench != "":
		start := time.Now()
		res, err := r.RunBenchmark(*bench)
		check(err)
		fmt.Print(experiments.FormatFig10(res))
		fmt.Fprintf(os.Stderr, "(%s)\n", time.Since(start).Round(time.Millisecond))
	case *all:
		start := time.Now()
		check(writeAll(os.Stdout, r))
		fmt.Fprintf(os.Stderr, "(%s)\n", time.Since(start).Round(time.Millisecond))
	case *fig == 10, *summary != "":
		start := time.Now()
		results, err := r.RunAll()
		check(err)
		if *fig == 10 {
			for _, res := range results {
				fmt.Print(experiments.FormatFig10(res))
				fmt.Println()
			}
		}
		if *summary != "" {
			s, err := formatSummary(*summary, results, opt.YieldTrials)
			check(err)
			fmt.Print(s)
		}
		fmt.Fprintf(os.Stderr, "(%s)\n", time.Since(start).Round(time.Millisecond))
	default:
		fmt.Fprintf(os.Stderr, "benchmarks: %v\n", gen.Names())
		flag.Usage()
		os.Exit(2)
	}
}

// writeAll writes the -all report to w: Figure 10 for every benchmark,
// Figures 4, 5 and 9, then the four §5 summary tables, each claim of the
// paper printed above its table.
func writeAll(w io.Writer, r *experiments.Runner) error {
	results, err := r.RunAll()
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Fprint(w, experiments.FormatFig10(res), "\n")
	}
	s4, err := experiments.Fig4()
	if err != nil {
		return err
	}
	s5, err := experiments.Fig5()
	if err != nil {
		return err
	}
	fmt.Fprint(w, s4, "\n", s5, "\n", experiments.Fig9(), "\n")
	for _, which := range []string{"overall", "layout", "bus", "freq"} {
		s, err := formatSummary(which, results, r.Options().YieldTrials)
		if err != nil {
			return err
		}
		fmt.Fprint(w, s, "\n")
	}
	return nil
}

// formatSummary renders one §5 summary table: overall, layout, bus or
// freq.
func formatSummary(which string, results []*experiments.BenchmarkResult, trials int) (string, error) {
	switch which {
	case "overall":
		return experiments.FormatOverall(experiments.SummaryOverall(results, trials)), nil
	case "layout":
		return experiments.FormatLayout(experiments.SummaryLayout(results, trials)), nil
	case "bus":
		return experiments.FormatBus(experiments.SummaryBus(results, trials)), nil
	case "freq":
		return experiments.FormatFreq(experiments.SummaryFreq(results, trials)), nil
	}
	return "", fmt.Errorf("unknown summary %q", which)
}

// openStore opens the run store when -store was given; nil otherwise.
func openStore(dir string) *runstore.Store {
	if dir == "" {
		return nil
	}
	check(cliutil.StoreDir("store", dir))
	st, err := runstore.Open(dir)
	check(err)
	return st
}

// printEvent renders one unified job progress event on stderr.
func printEvent(start time.Time, e experiments.Event) {
	elapsed := time.Since(start).Round(time.Millisecond)
	switch {
	case e.Err != "" && e.Total == 0:
		fmt.Fprintf(os.Stderr, "%s (FAIL: %s, %s)\n", e.Message, e.Err, elapsed)
	case e.Err != "":
		fmt.Fprintf(os.Stderr, "[%d/%d] %s (FAIL: %s, %s)\n", e.Done, e.Total, e.Message, e.Err, elapsed)
	case e.Total == 0:
		fmt.Fprintf(os.Stderr, "%s (%s)\n", e.Message, elapsed)
	default:
		fmt.Fprintf(os.Stderr, "[%d/%d] %s (%s)\n", e.Done, e.Total, e.Message, elapsed)
	}
}

// runSweep parses the sweep axes, runs the design-space sweep (through
// the run store when one is configured) with progress on stderr, and
// writes the JSON result.
func runSweep(ctx context.Context, r *experiments.Runner, benches, topo, aux, sigmas, configs, out, storeDir string) {
	spec := experiments.SweepSpec{Benchmarks: cliutil.SplitList(benches), Topology: topo}
	auxCounts, err := cliutil.ParseInts("aux", aux, 0)
	check(err)
	spec.AuxCounts = auxCounts
	sigmaVals, err := cliutil.ParseSigmas("sigmas", sigmas)
	check(err)
	spec.Sigmas = sigmaVals
	for _, s := range cliutil.SplitList(configs) {
		spec.Configs = append(spec.Configs, core.Config(s))
	}

	start := time.Now()
	outcome, cached, err := r.RunJob(ctx, experiments.SweepJob{Spec: spec}, openStore(storeDir),
		func(e experiments.Event) { printEvent(start, e) })
	check(err)
	res := outcome.(*experiments.SweepResult)

	check(cliutil.WriteOutput(out, os.Stdout, res.WriteJSON))
	hits, misses := r.NoiseCacheStats()
	note := ""
	if cached {
		note = ", served from run store"
	}
	fmt.Fprintf(os.Stderr, "%d points, %s (noise cache: %d hits, %d misses%s)\n",
		len(res.Points), time.Since(start).Round(time.Millisecond), hits, misses, note)
}

// searchKnobs carries the optional -search tuning flags.
type searchKnobs struct {
	maxEvals, steps, proposals, beamWidth, depth int
	perfWeight                                   float64
	portfolio                                    bool
	lanes                                        int
}

// runSearch validates the search axes, runs the guided search (through
// the run store when one is configured — repeated runs are served from
// it and cold runs warm-start from stored sweeps) with per-step progress
// on stderr, and writes the JSON outcome.
func runSearch(ctx context.Context, r *experiments.Runner, strategy, bench, topo, aux, sigmas, out, storeDir string, k searchKnobs) {
	if bench == "" {
		check(fmt.Errorf("-search needs -bench (one of %v)", gen.Names()))
	}
	st, err := search.ParseStrategy(strategy)
	check(err)
	auxCounts, err := cliutil.ParseInts("aux", aux, 0)
	check(err)
	sigmaVals, err := cliutil.ParseSigmas("sigmas", sigmas)
	check(err)
	if len(sigmaVals) > 1 {
		check(fmt.Errorf("-search optimises for a single σ, got %d values", len(sigmaVals)))
	}
	spec := experiments.SearchSpec{
		Benchmark:  bench,
		Strategy:   st,
		Topology:   topo,
		AuxCounts:  auxCounts,
		MaxEvals:   k.maxEvals,
		Steps:      k.steps,
		Proposals:  k.proposals,
		BeamWidth:  k.beamWidth,
		Depth:      k.depth,
		PerfWeight: k.perfWeight,
	}
	if len(sigmaVals) == 1 {
		spec.Sigma = sigmaVals[0]
	}

	var job experiments.Job = experiments.SearchJob{Spec: spec}
	if k.portfolio {
		job = experiments.PortfolioJob{Spec: experiments.PortfolioSpec{
			SearchSpec: spec, Lanes: k.lanes}}
	}

	start := time.Now()
	outcome, cached, err := r.RunJob(ctx, job, openStore(storeDir),
		func(e experiments.Event) { printEvent(start, e) })
	check(err)
	res := outcome.(*experiments.SearchOutcome)

	check(cliutil.WriteOutput(out, os.Stdout, res.WriteJSON))
	hits, misses := r.NoiseCacheStats()
	note := ""
	if cached {
		note = ", served from run store"
	}
	if n := len(res.Lanes); n > 0 {
		note += fmt.Sprintf(", %d lanes, %d exchanges", n, res.Exchanges)
	}
	fmt.Fprintf(os.Stderr,
		"%s: yield %.4f, perf %.3f, %d buses, aux %d — %d evals, %d proposals, %s (noise cache: %d hits, %d misses%s)\n",
		res.Best.Benchmark, res.Best.Yield, res.Best.NormPerf, res.Best.Buses, res.Best.AuxQubits,
		res.Evals, res.Proposals, time.Since(start).Round(time.Millisecond), hits, misses, note)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
