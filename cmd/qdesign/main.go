// Command qdesign runs the application-specific architecture design flow
// (Section 4) on a program and emits the generated designs, or runs the
// guided design-space search over (buses × aux layout × frequencies).
//
// Usage:
//
//	qdesign -name misex1_241                   # full series, rendered
//	qdesign -name misex1_241 -buses 2 -json d.json
//	qdesign -qasm prog.qasm -config eff-5-freq
//	qdesign -name sym6_145 -search anneal -max-evals 10
//	qdesign -name sym6_145 -search beam -aux 1  # aux variants 0..1
//	qdesign -name sym6_145 -search beam -store runs  # serve repeats from the run store
package main

import (
	"flag"
	"fmt"
	"os"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/cliutil"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/runstore"
	"qproc/internal/search"
	"qproc/internal/topology"
	"qproc/internal/yield"
)

func main() {
	var (
		name   = flag.String("name", "", "built-in benchmark")
		file   = flag.String("qasm", "", "OpenQASM 2.0 file")
		buses  = flag.Int("buses", -1, "emit only the design with this 4-qubit-bus count (-1: whole series)")
		maxB   = flag.Int("max-buses", -1, "cap the series length (-1: no cap)")
		config = flag.String("config", "eff-full", "configuration: eff-full, eff-5-freq, eff-layout-only")
		aux    = flag.Int("aux", 0, "auxiliary physical qubits (series: exact count; -search: explores 0..aux)")
		seed   = flag.Int64("seed", 1, "deterministic seed")
		jsonTo = flag.String("json", "", "write the selected design as JSON")
		quiet  = flag.Bool("q", false, "suppress the rendered lattice")

		topo       = flag.String("topology", "", "topology family: square (default), chimera(m,n,k), coupler")
		searchMode = flag.String("search", "", "guided design-space search: anneal or beam")
		maxEvals   = flag.Int("max-evals", 0, "cap on full Monte-Carlo evaluations for -search (0 = unlimited)")
		steps      = flag.Int("steps", 0, "annealing steps for -search anneal (0 = default)")
		beamWidth  = flag.Int("beam-width", 0, "frontier size for -search beam (0 = default)")
		depth      = flag.Int("depth", 0, "maximum depth for -search beam (0 = default)")
		portfolio  = flag.Bool("portfolio", false, "run -search as a portfolio of concurrent diversified lanes with elite exchange")
		lanes      = flag.Int("lanes", 0, "portfolio lane count for -portfolio (0 = default)")
		store      = flag.String("store", "", "content-addressed run store for -search -name: repeated searches are served from it, cold ones warm-start from stored sweeps")
	)
	flag.Parse()

	fatalIf(cliutil.AtLeast("buses", *buses, -1))
	fatalIf(cliutil.AtLeast("max-buses", *maxB, -1))
	fatalIf(cliutil.NonNegative("aux", *aux))
	fatalIf(cliutil.NonNegative("max-evals", *maxEvals))
	fatalIf(cliutil.NonNegative("steps", *steps))
	fatalIf(cliutil.NonNegative("beam-width", *beamWidth))
	fatalIf(cliutil.NonNegative("depth", *depth))
	fatalIf(cliutil.NonNegative("lanes", *lanes))

	family, err := topology.Parse(*topo)
	if err != nil {
		fatal(err)
	}

	c, err := cliutil.LoadCircuit(*name, *file)
	if err != nil {
		fatal(err)
	}
	c = c.Decompose()

	if *store != "" && *searchMode == "" {
		fatal(fmt.Errorf("-store applies only to -search mode"))
	}
	if (*portfolio || *lanes > 0) && *searchMode == "" {
		fatal(fmt.Errorf("-portfolio/-lanes apply only to -search mode"))
	}
	if *searchMode != "" {
		// Series-only knobs must not be silently ignored in search mode.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "config", "buses":
				fatal(fmt.Errorf("-%s does not apply to -search mode (the search picks its own bus counts and uses analytic frequency scoring)", f.Name))
			}
		})
		args := searchArgs{
			mode: *searchMode, topology: *topo, seed: *seed, maxAux: *aux, maxBuses: *maxB,
			maxEvals: *maxEvals, steps: *steps, beamWidth: *beamWidth, depth: *depth,
			portfolio: *portfolio || *lanes > 0, lanes: *lanes,
			jsonTo: *jsonTo, quiet: *quiet,
		}
		if *name != "" {
			// Named benchmarks run through the experiments engine, so the
			// run store can serve repeats and warm-start cold searches.
			runSearchStored(*name, *store, args)
			return
		}
		if *store != "" {
			fatal(fmt.Errorf("-store requires -name: QASM files are not content-addressed"))
		}
		runSearch(c, args)
		return
	}

	cfg := core.Config(*config)
	switch cfg {
	case core.ConfigEffFull, core.ConfigEff5Freq, core.ConfigEffLayoutOnly:
	default:
		fatal(fmt.Errorf("unknown -config %q (have eff-full, eff-5-freq, eff-layout-only)", *config))
	}
	flow := core.NewFlow(*seed)
	flow.Family = family
	designs, err := flow.SeriesConfig(c, cfg, *maxB, *aux, 0)
	if err != nil {
		fatal(err)
	}

	sim := yield.New(*seed + 7919)
	for _, d := range designs {
		if *buses >= 0 && d.Buses != *buses {
			continue
		}
		fmt.Printf("%s: yield %.4g\n", d.Arch, sim.Estimate(d.Arch))
		if !*quiet {
			fmt.Print(experiments.RenderDesign(d.Arch))
		}
		if *jsonTo != "" {
			writeJSON(*jsonTo, d)
			return
		}
	}
}

// searchArgs carries the -search mode flags.
type searchArgs struct {
	mode, topology                    string
	seed                              int64
	maxAux, maxBuses                  int
	maxEvals, steps, beamWidth, depth int
	portfolio                         bool
	lanes                             int
	jsonTo                            string
	quiet                             bool
}

// runSearchStored drives a named-benchmark search through the
// experiments engine and the optional run store (lookup-before-compute
// plus warm-start from stored sweeps), emitting the same report shape as
// runSearch.
func runSearchStored(name, storeDir string, args searchArgs) {
	strategy, err := search.ParseStrategy(args.mode)
	if err != nil {
		fatal(err)
	}
	var st *runstore.Store
	if storeDir != "" {
		fatalIf(cliutil.StoreDir("store", storeDir))
		if st, err = runstore.Open(storeDir); err != nil {
			fatal(err)
		}
	}
	opt := experiments.DefaultOptions()
	opt.Seed = args.seed
	opt.MaxBuses = args.maxBuses
	spec := experiments.SearchSpec{
		Benchmark: name,
		Strategy:  strategy,
		Topology:  args.topology,
		MaxEvals:  args.maxEvals,
		Steps:     args.steps,
		BeamWidth: args.beamWidth,
		Depth:     args.depth,
	}
	for a := 0; a <= args.maxAux; a++ {
		spec.AuxCounts = append(spec.AuxCounts, a)
	}
	var job experiments.Job = experiments.SearchJob{Spec: spec}
	if args.portfolio {
		job = experiments.PortfolioJob{Spec: experiments.PortfolioSpec{
			SearchSpec: spec, Lanes: args.lanes}}
	}
	outcome, cached, err := experiments.NewRunner(opt).RunJob(cliutil.SignalContext(), job, st, nil)
	if err != nil {
		fatal(err)
	}
	res := outcome.(*experiments.SearchOutcome)
	note := ""
	if cached {
		note = " — served from run store"
	}
	if n := len(res.Lanes); n > 0 {
		note += fmt.Sprintf(" — %d lanes, %d exchanges", n, res.Exchanges)
	}
	fmt.Printf("%s: yield %.4g (E[collisions] %.3f, %d evals, %d proposals)%s\n",
		res.Arch, res.Best.Yield, res.Expected, res.Evals, res.Proposals, note)
	fmt.Printf("performance: %d gates (%d swaps), %.3f vs IBM baseline (1)\n",
		res.Best.GateCount, res.Best.Swaps, res.Best.NormPerf)
	if !args.quiet {
		fmt.Print(experiments.RenderDesign(res.Arch))
	}
	if args.jsonTo != "" {
		writeArchJSON(args.jsonTo, res.Arch)
	}
}

// runSearch drives the guided search and emits the winning design in the
// same shape as a series run.
func runSearch(c *circuit.Circuit, args searchArgs) {
	strategy, err := search.ParseStrategy(args.mode)
	if err != nil {
		fatal(err)
	}
	opt := search.DefaultOptions()
	opt.Strategy = strategy
	opt.Seed = args.seed
	if f, err := topology.Parse(args.topology); err != nil {
		fatal(err)
	} else if !topology.IsSquare(f) {
		opt.Family = f
	}
	opt.MaxBuses = args.maxBuses
	opt.MaxEvals = args.maxEvals
	if args.steps > 0 {
		opt.Steps = args.steps
	}
	if args.beamWidth > 0 {
		opt.BeamWidth = args.beamWidth
	}
	if args.depth > 0 {
		opt.Depth = args.depth
	}
	for a := 1; a <= args.maxAux; a++ {
		opt.AuxCounts = append(opt.AuxCounts, a)
	}
	var res *search.Result
	if args.portfolio {
		// Lanes revisiting a topology share one compiled-kernel cache.
		opt.Kernels = collision.NewKernelCache()
		pf := search.PortfolioOptions{Lanes: args.lanes}
		res, err = search.RunPortfolio(cliutil.SignalContext(), c, opt, pf, yield.NewNoiseCache(), nil)
	} else {
		res, err = search.Run(cliutil.SignalContext(), c, opt, yield.NewNoiseCache(), nil)
	}
	if err != nil {
		fatal(err)
	}
	d := res.Best
	note := ""
	if n := len(res.Lanes); n > 0 {
		note = fmt.Sprintf(" — %d lanes, %d exchanges", n, res.Exchanges)
	}
	fmt.Printf("%s: yield %.4g (E[collisions] %.3f, %d evals, %d proposals)%s\n",
		d.Arch, res.Yield, res.Expected, res.Evals, res.Proposals, note)
	fmt.Printf("performance: %d gates (%d swaps), %.3f vs IBM baseline (1)\n",
		res.GateCount, res.Swaps, res.NormPerf)
	if !args.quiet {
		fmt.Print(experiments.RenderDesign(d.Arch))
	}
	if args.jsonTo != "" {
		writeJSON(args.jsonTo, d)
	}
}

// writeJSON exports one design's architecture.
func writeJSON(path string, d *core.Design) { writeArchJSON(path, d.Arch) }

// writeArchJSON exports an architecture.
func writeArchJSON(path string, a *arch.Architecture) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := a.WriteJSON(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qdesign:", err)
	os.Exit(1)
}
