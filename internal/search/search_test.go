package search

import (
	"context"
	"errors"
	"math"
	"testing"

	"qproc/internal/circuit"
	"qproc/internal/collision"
	"qproc/internal/gen"
	"qproc/internal/topology"
	"qproc/internal/workpool"
	"qproc/internal/yield"
)

// newProblem builds a one-lane problem over a space of its own.
func newProblem(c *circuit.Circuit, opt Options) (*Problem, error) {
	sp, err := newSpace(c, opt)
	if err != nil {
		return nil, err
	}
	return sp.problem(opt), nil
}

// testCircuit returns a small decomposed benchmark program.
func testCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	b, err := gen.Get("sym6_145")
	if err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// testOptions returns a reduced-budget configuration exercising every
// move kind (two aux variants, both strategies configurable).
func testOptions(strategy Strategy) Options {
	o := DefaultOptions()
	o.Strategy = strategy
	o.Trials = 400
	o.AuxCounts = []int{0, 1}
	o.Steps = 60
	o.Proposals = 4
	o.BeamWidth = 5
	o.Depth = 6
	o.MaxEvals = 12
	return o
}

// resultsEqual compares everything observable about two results.
func resultsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Yield != b.Yield || a.Expected != b.Expected || a.Objective != b.Objective {
		t.Fatalf("scores differ: (%g,%g,%g) vs (%g,%g,%g)",
			a.Yield, a.Expected, a.Objective, b.Yield, b.Expected, b.Objective)
	}
	if a.Evals != b.Evals || a.Proposals != b.Proposals {
		t.Fatalf("counters differ: evals %d/%d, proposals %d/%d", a.Evals, b.Evals, a.Proposals, b.Proposals)
	}
	if a.Best.Arch.Name != b.Best.Arch.Name || a.Best.Buses != b.Best.Buses || a.Best.AuxQubits != b.Best.AuxQubits {
		t.Fatalf("designs differ: %s/%d/%d vs %s/%d/%d",
			a.Best.Arch.Name, a.Best.Buses, a.Best.AuxQubits,
			b.Best.Arch.Name, b.Best.Buses, b.Best.AuxQubits)
	}
	af, bf := a.Best.Arch.Freqs, b.Best.Arch.Freqs
	if len(af) != len(bf) {
		t.Fatalf("frequency counts differ: %d vs %d", len(af), len(bf))
	}
	for q := range af {
		if af[q] != bf[q] {
			t.Fatalf("qubit %d frequency differs: %g vs %g", q, af[q], bf[q])
		}
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace %d differs: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	for i := range a.Best.Squares {
		if a.Best.Squares[i] != b.Best.Squares[i] {
			t.Fatalf("square %d differs: %v vs %v", i, a.Best.Squares[i], b.Best.Squares[i])
		}
	}
}

// TestSearchParallelMatchesSerial is the determinism guard of the
// acceptance criteria: with a fixed seed, a parallel run (forced real
// fan-out) and a serial run must return bit-identical results, for both
// strategies. Run under -race in CI.
func TestSearchParallelMatchesSerial(t *testing.T) {
	c := testCircuit(t)
	for _, strategy := range Strategies() {
		t.Run(string(strategy), func(t *testing.T) {
			serial := testOptions(strategy)
			serial.Parallel = false
			parallel := testOptions(strategy)
			parallel.Parallel = true
			parallel.Workers = 4

			sres, err := Run(context.Background(), c, serial, yield.NewNoiseCache(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := Run(context.Background(), c, parallel, yield.NewNoiseCache(), nil)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, sres, pres)
		})
	}
}

// TestSearchIncrementalMatchesFullEval is the Monte-Carlo differential
// guarantee at the search level: a run whose promotions are scored by
// the trial-survivor incremental estimator must be bit-identical —
// winner, yield, trace and all — to a run forced through from-scratch
// estimation, for both strategies. It also checks the incremental run
// actually skipped work (otherwise the test proves nothing).
func TestSearchIncrementalMatchesFullEval(t *testing.T) {
	c := testCircuit(t)
	for _, strategy := range Strategies() {
		t.Run(string(strategy), func(t *testing.T) {
			inc := testOptions(strategy)
			full := testOptions(strategy)
			full.fullEval = true

			ires, err := Run(context.Background(), c, inc, yield.NewNoiseCache(), nil)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := Run(context.Background(), c, full, yield.NewNoiseCache(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if ires.CondSkipped == 0 && ires.Evals > 1 {
				t.Error("incremental run skipped no condition checks")
			}
			fres.CondChecks, fres.CondSkipped = ires.CondChecks, ires.CondSkipped // not part of equality
			resultsEqual(t, ires, fres)
		})
	}
}

// TestSearchYieldIsExact re-scores the winning design with a fresh
// simulator under the search's CRN discipline: the yield the search
// reports must be exactly what a standalone estimate of that design
// produces — no drift can accumulate across incremental promotions.
func TestSearchYieldIsExact(t *testing.T) {
	c := testCircuit(t)
	for _, strategy := range Strategies() {
		opt := testOptions(strategy)
		cache := yield.NewNoiseCache()
		res, err := Run(context.Background(), c, opt, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		sim := yield.New(opt.Seed + 7919)
		sim.Sigma = opt.Sigma
		sim.Trials = opt.Trials
		sim.Params = opt.Params
		sim.Cache = cache
		if got := sim.Estimate(res.Best.Arch); got != res.Yield {
			t.Fatalf("%s: reported yield %v, fresh estimate %v", strategy, res.Yield, got)
		}
	}
}

// TestSearchImprovesOnFiveFreqSeed checks the optimiser does real work:
// starting the beam from both seeds, the winner must score at least as
// well as the worse seed and its analytic score must be no worse than
// the best seed's (the frontier keeps seeds unless something better
// arrives).
func TestSearchImprovesOnFiveFreqSeed(t *testing.T) {
	c := testCircuit(t)
	opt := testOptions(Beam)
	p, err := newProblem(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := p.seedStates()
	if err != nil {
		t.Fatal(err)
	}
	bestSeedE := math.Inf(1)
	for _, s := range seeds {
		if s.Expected < bestSeedE {
			bestSeedE = s.Expected
		}
	}
	res, err := Run(context.Background(), c, opt, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expected > bestSeedE {
		t.Fatalf("search ended with E=%g, worse than best seed E=%g", res.Expected, bestSeedE)
	}
	if res.Evals == 0 || (opt.MaxEvals > 0 && res.Evals > opt.MaxEvals) {
		t.Fatalf("evals=%d outside (0, %d]", res.Evals, opt.MaxEvals)
	}
	if res.Best.Config != "search" {
		t.Fatalf("best design labelled %q, want search", res.Best.Config)
	}
}

// TestStateRepairNeverWorsens pins the local-repair contract: repairing a
// region only moves frequencies on strict analytic improvement.
func TestStateRepairNeverWorsens(t *testing.T) {
	c := testCircuit(t)
	opt := testOptions(Anneal)
	p, err := newProblem(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := p.seedStates()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range seeds {
		before := st.Expected
		clone, err := p.newState(st.Aux, nil, st.Freqs())
		if err != nil {
			t.Fatal(err)
		}
		p.repairState(clone, []int{0}, nil)
		if clone.Expected > before+1e-12 {
			t.Fatalf("repair worsened E: %g -> %g", before, clone.Expected)
		}
	}
}

// TestIncrementalAgreesWithOneShotOnStates cross-checks the surrogate on
// real generated architectures, not just random graphs: a state's
// Expected must match the one-shot analytic computation.
func TestIncrementalAgreesWithOneShotOnStates(t *testing.T) {
	c := testCircuit(t)
	opt := testOptions(Anneal)
	p, err := newProblem(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := p.seedStates()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range seeds {
		want := collision.ExpectedCollisions(st.Arch.AdjList(), st.Freqs(), opt.Sigma, opt.Params)
		if math.Abs(st.Expected-want) > 1e-9*(1+want) {
			t.Fatalf("state %s: incremental %g, one-shot %g", st.key, st.Expected, want)
		}
	}
}

// TestOptionsValidate covers the rejection paths.
func TestOptionsValidate(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Strategy = "hillclimb" },
		func(o *Options) { o.Sigma = 0 },
		func(o *Options) { o.Trials = 0 },
		func(o *Options) { o.AuxCounts = nil },
		func(o *Options) { o.AuxCounts = []int{-1} },
		func(o *Options) { o.Steps = 0 },
		func(o *Options) { o.Strategy = Beam; o.BeamWidth = 0 },
		func(o *Options) { o.Workers = -1 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
}

// TestForEachPanicSurfacesOnCaller: a proposal body that panics at one
// index reaches the caller as a *workpool.PanicError even with no shared
// pool attached, so a job supervisor can fail that one job instead of
// the process dying on a helper goroutine.
func TestForEachPanicSurfacesOnCaller(t *testing.T) {
	o := Options{Parallel: true, Workers: 4}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		o.forEach(context.Background(), 64, func(i int) {
			if i == 37 {
				panic("proposal 37")
			}
		})
	}()
	pe, ok := recovered.(*workpool.PanicError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *workpool.PanicError", recovered, recovered)
	}
	if pe.Value != "proposal 37" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
}

// TestRunCanceledMidFlight: cancelling the context mid-run aborts both
// strategies with context.Canceled instead of running to completion, and
// a pre-cancelled context never starts.
func TestRunCanceledMidFlight(t *testing.T) {
	for _, strategy := range Strategies() {
		t.Run(string(strategy), func(t *testing.T) {
			c := testCircuit(t)
			opt := testOptions(strategy)
			opt.Steps = 100000 // far more work than the cancel allows
			opt.Depth = 100000
			opt.MaxEvals = 0

			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			res, err := Run(ctx, c, opt, yield.NewNoiseCache(), func(Progress) {
				if calls++; calls == 3 {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatal("cancelled run returned a result")
			}
			if calls >= 100000 {
				t.Fatalf("run kept going after cancel (%d progress calls)", calls)
			}

			pre, preCancel := context.WithCancel(context.Background())
			preCancel()
			if _, err := Run(pre, c, opt, yield.NewNoiseCache(), nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestRunNilContextMatchesBackground: a nil ctx is accepted and behaves
// like context.Background — same bits as an explicit background run.
func TestRunNilContextMatchesBackground(t *testing.T) {
	c := testCircuit(t)
	opt := testOptions(Anneal)
	var nilCtx context.Context // a nil ctx must behave like Background
	a, err := Run(nilCtx, c, opt, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), c, opt, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, a, b)
}

// TestBestFreqForMatchesLiteral pins the repair's pruned coordinate
// descent to the loop it stands for, which previews every candidate
// (incumbent first, winning ties), bit for bit in pick and score: on the
// seed states (Algorithm 3 and 5-frequency, mostly off the grid) of the
// square, coupler and chimera families at σ ∈ {0, 0.01, 0.03}, and on
// each state again after every qubit has been moved to its pick.
func TestBestFreqForMatchesLiteral(t *testing.T) {
	c := testCircuit(t)
	for _, topo := range []string{"", "coupler", "chimera(2,2,4)"} {
		fam, err := topology.Parse(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, sigma := range []float64{0, 0.01, 0.03} {
			opt := testOptions(Anneal)
			opt.Family, opt.Sigma = fam, sigma
			if !topology.IsSquare(fam) {
				opt.AuxCounts = []int{0}
			}
			p, err := newProblem(c, opt)
			if err != nil {
				t.Fatal(err)
			}
			seeds, err := p.seedStates()
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range seeds {
				inc := st.inc.Clone()
				for pass := 0; pass < 2; pass++ {
					for q := range inc.Adj() {
						cur := inc.Freq(q)
						wantF, wantE := cur, inc.Score()
						for _, f := range collision.Grid() {
							if e := inc.Preview1(q, f); e < wantE {
								wantF, wantE = f, e
							}
						}
						gotF, gotE, improved := bestFreqFor(inc, q)
						if math.Float64bits(gotF) != math.Float64bits(wantF) ||
							math.Float64bits(gotE) != math.Float64bits(wantE) || improved != (wantF != cur) {
							t.Fatalf("%q σ=%g %s pass %d q%d: (%v, %v, %v), literal loop (%v, %v)",
								topo, sigma, st.key, pass, q, gotF, gotE, improved, wantF, wantE)
						}
						if pass == 0 && improved {
							inc.Set1(q, gotF)
						}
					}
				}
			}
		}
	}
}
