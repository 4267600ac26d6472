package search

import (
	"context"
	"testing"

	"qproc/internal/collision"
	"qproc/internal/yield"
)

// portfolioOptions is testOptions with the budget left to the portfolio
// splitter and both strategies' knobs valid (so lane 1 can run beam).
func portfolioOptions() Options {
	o := testOptions(Anneal)
	o.MaxEvals = 16
	return o
}

// portfolioResultsEqual extends resultsEqual to the portfolio extras.
func portfolioResultsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	resultsEqual(t, a, b)
	if a.Exchanges != b.Exchanges {
		t.Fatalf("exchanges differ: %d vs %d", a.Exchanges, b.Exchanges)
	}
	if len(a.Lanes) != len(b.Lanes) {
		t.Fatalf("lane counts differ: %d vs %d", len(a.Lanes), len(b.Lanes))
	}
	for i := range a.Lanes {
		la, lb := a.Lanes[i], b.Lanes[i]
		if la.Strategy != lb.Strategy || la.Seed != lb.Seed ||
			la.Yield != lb.Yield || la.Expected != lb.Expected ||
			la.Objective != lb.Objective || la.Evals != lb.Evals ||
			la.Proposals != lb.Proposals || len(la.Trace) != len(lb.Trace) {
			t.Fatalf("lane %d differs: %+v vs %+v", i, la, lb)
		}
		for j := range la.Trace {
			if la.Trace[j] != lb.Trace[j] {
				t.Fatalf("lane %d trace %d differs: %+v vs %+v", i, j, la.Trace[j], lb.Trace[j])
			}
		}
	}
}

// TestPortfolioParallelMatchesSerial is the portfolio determinism guard:
// concurrent lanes on a real fan-out (with a shared kernel cache) must
// return bit-identical results — winner, per-lane traces, exchange count
// — to a fully serial run. ExchangeEvery is small enough to force
// several elite-exchange barriers. Run under -race in CI.
func TestPortfolioParallelMatchesSerial(t *testing.T) {
	c := testCircuit(t)
	pf := PortfolioOptions{Lanes: 4, ExchangeEvery: 2}

	serial := portfolioOptions()
	serial.Parallel = false
	parallel := portfolioOptions()
	parallel.Parallel = true
	parallel.Workers = 4
	parallel.Kernels = collision.NewKernelCache()

	sres, err := RunPortfolio(context.Background(), c, serial, pf, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := RunPortfolio(context.Background(), c, parallel, pf, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Exchanges == 0 {
		t.Error("no elite exchange happened; the test exercises nothing")
	}
	portfolioResultsEqual(t, sres, pres)
}

// TestPortfolioAtLeastSingleLane is the acceptance property: a 4-lane
// portfolio at the same total Monte-Carlo budget must find a design at
// least as good as the single-lane anneal it diversifies. Deterministic
// seeds make this a fixed fact, not a statistical claim.
func TestPortfolioAtLeastSingleLane(t *testing.T) {
	c := testCircuit(t)
	opt := portfolioOptions()

	single, err := Run(context.Background(), c, opt, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	port, err := RunPortfolio(context.Background(), c, opt, PortfolioOptions{Lanes: 4}, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if port.Objective < single.Objective {
		t.Errorf("portfolio objective %.6g below single-lane %.6g at equal budget",
			port.Objective, single.Objective)
	}
	if port.Evals > opt.MaxEvals {
		t.Errorf("portfolio spent %d evals over the %d budget", port.Evals, opt.MaxEvals)
	}
}

// TestPortfolioLaneMix checks the deterministic lane plan: lane 0 is the
// base configuration, lane 1 runs the other strategy when its knobs are
// valid, and the anneal lanes carry a temperature ladder with distinct
// control seeds.
func TestPortfolioLaneMix(t *testing.T) {
	base := portfolioOptions()
	n := 4
	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		o := laneOptions(base, i, n)
		if err := o.Validate(); err != nil {
			t.Fatalf("lane %d options invalid: %v", i, err)
		}
		if seen[o.controlSeed()] {
			t.Errorf("lane %d reuses control seed %d", i, o.controlSeed())
		}
		seen[o.controlSeed()] = true
		switch i {
		case 0:
			if o.Strategy != base.Strategy || o.T0 != base.T0 || o.controlSeed() != base.Seed {
				t.Errorf("lane 0 diverges from the base configuration: %+v", o)
			}
		case 1:
			if o.Strategy != Beam {
				t.Errorf("lane 1 strategy = %v, want beam (mixed portfolio)", o.Strategy)
			}
		default:
			if o.Strategy != Anneal {
				t.Errorf("lane %d strategy = %v, want anneal", i, o.Strategy)
			}
			if o.T0 == base.T0 {
				t.Errorf("lane %d T0 unchanged from base (no temperature ladder)", i)
			}
			if o.T0 < o.Tend {
				t.Errorf("lane %d schedule not monotone: T0 %g < Tend %g", i, o.T0, o.Tend)
			}
		}
	}
	// The budget split spends exactly the total.
	total := 0
	for i := 0; i < n; i++ {
		total += laneBudget(base.MaxEvals, i, n)
	}
	if total != base.MaxEvals {
		t.Errorf("lane budgets sum to %d, want %d", total, base.MaxEvals)
	}
	if laneBudget(0, 2, n) != 0 {
		t.Error("unlimited budget did not stay unlimited per lane")
	}
}

// TestPortfolioLanesShareKernelCache runs concurrent lanes over one
// KernelCache under -race: the run must succeed, record cache traffic,
// and compile far fewer kernels than it serves — lanes revisiting a
// topology get each other's compiles.
func TestPortfolioLanesShareKernelCache(t *testing.T) {
	c := testCircuit(t)
	opt := portfolioOptions()
	opt.Parallel = true
	opt.Workers = 4
	opt.Kernels = collision.NewKernelCache()

	res, err := RunPortfolio(context.Background(), c, opt, PortfolioOptions{Lanes: 4, ExchangeEvery: 2}, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := opt.Kernels.Stats()
	if misses == 0 {
		t.Fatal("no kernel was compiled through the cache")
	}
	if hits == 0 {
		t.Errorf("no kernel cache hits across %d lane evals (misses %d)", res.Evals, misses)
	}
	if opt.Kernels.Bytes() == 0 || opt.Kernels.Len() == 0 {
		t.Error("kernel cache reports no resident kernels after the run")
	}
}

// TestPortfolioCountersAndLaneResults checks the observable lane
// surface: counters settle at zero live / all done, the merged result
// carries one LaneResult per lane with the winner's trace as the
// top-level trace, and totals are the sums over lanes.
func TestPortfolioCountersAndLaneResults(t *testing.T) {
	c := testCircuit(t)
	opt := portfolioOptions()
	var counters LaneCounters
	pf := PortfolioOptions{Lanes: 3, ExchangeEvery: 2, Counters: &counters}

	res, err := RunPortfolio(context.Background(), c, opt, pf, yield.NewNoiseCache(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if live, done := counters.Snapshot(); live != 0 || done != 3 {
		t.Errorf("counters = %d live / %d done, want 0/3", live, done)
	}
	if len(res.Lanes) != 3 {
		t.Fatalf("%d lane results, want 3", len(res.Lanes))
	}
	evals, proposals := 0, 0
	bestObjective := res.Lanes[0].Objective
	for i, ln := range res.Lanes {
		if ln.Lane != i {
			t.Errorf("lane %d labelled %d", i, ln.Lane)
		}
		evals += ln.Evals
		proposals += ln.Proposals
		if ln.Objective > bestObjective {
			bestObjective = ln.Objective
		}
	}
	if evals != res.Evals || proposals != res.Proposals {
		t.Errorf("totals %d evals / %d proposals, lanes sum %d / %d",
			res.Evals, res.Proposals, evals, proposals)
	}
	if res.Objective != bestObjective {
		t.Errorf("winner objective %.6g is not the best lane's %.6g", res.Objective, bestObjective)
	}
	if len(res.Trace) == 0 {
		t.Error("winning lane trace is empty")
	}
}

// TestRunPortfolioBoundsLanes: more than MaxLanes lanes is refused up
// front — before any lane's problem or evaluator exists (the nil
// circuit would panic in the first one built).
func TestRunPortfolioBoundsLanes(t *testing.T) {
	_, err := RunPortfolio(context.Background(), nil, portfolioOptions(),
		PortfolioOptions{Lanes: MaxLanes + 1}, yield.NewNoiseCache(), nil)
	if err == nil {
		t.Fatalf("%d lanes accepted", MaxLanes+1)
	}
}
