package search

import (
	"context"
	"testing"

	"qproc/internal/topology"
	"qproc/internal/yield"
)

// TestInjectUnlatchesConvergedBeam drives the portfolio exchange into a
// beam lane that has converged: an elite from an anneal lane over the
// same space, under the same noise matrices, that beats every frontier
// member analytically and the lane's incumbent outright. The elite must
// enter the frontier at its head, un-latch the lane, add a trace point
// at the lane's depth, and be expanded by the next advance.
func TestInjectUnlatchesConvergedBeam(t *testing.T) {
	ctx := context.Background()
	c := testCircuit(t)
	opt := testOptions(Beam)
	opt.MaxEvals = 0 // convergence, not the budget, must stop the lane
	opt.BeamWidth = 2
	opt.Depth = 20
	sp, err := newSpace(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	cache := yield.NewNoiseCache()
	depth := 0
	beam, err := newLaneRun(ctx, sp, opt, 0, 1, cache, func(pr Progress) { depth = pr.Step }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := beam.ln.advance(ctx, opt.Depth); err != nil {
		t.Fatal(err)
	}
	if !beam.ln.finished() || depth >= opt.Depth {
		t.Fatalf("beam lane did not converge before depth %d (finished %v at depth %d)",
			opt.Depth, beam.ln.finished(), depth)
	}
	bl := beam.ln.(*beamLane)

	aopt := opt
	aopt.Strategy = Anneal
	aopt.Steps = 300
	anneal, err := newLaneRun(ctx, sp, aopt, 0, 1, cache, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := anneal.ln.advance(ctx, aopt.Steps); err != nil {
		t.Fatal(err)
	}
	var incumbent, elite *evaluated
	for _, e := range beam.ev.seen {
		if better(e, incumbent) {
			incumbent = e
		}
	}
	for _, e := range anneal.ev.seen {
		if e.state.Expected < bl.frontier[0].Expected && better(e, incumbent) && better(e, elite) {
			elite = e
		}
	}
	if elite == nil {
		t.Fatal("the anneal lane found no state that beats the converged frontier")
	}

	traced := len(bl.trace)
	if err := beam.ln.inject(elite); err != nil {
		t.Fatal(err)
	}
	head := bl.frontier[0]
	if head.Key() != elite.state.Key() {
		t.Fatalf("frontier head is %s, want the elite %s", head.Key(), elite.state.Key())
	}
	if beam.ln.finished() {
		t.Fatal("the elite entered the frontier but the lane stayed finished")
	}
	if len(bl.trace) != traced+1 {
		t.Fatalf("trace has %d points after the inject, want %d", len(bl.trace), traced+1)
	}
	want := TracePoint{Step: depth, Evals: beam.ev.evals, Yield: elite.yield, Expected: head.Expected}
	if got := bl.trace[traced]; got != want {
		t.Fatalf("inject traced %+v, want %+v", got, want)
	}

	// The next depth expands every frontier member, the elite among them:
	// one proposal per add, remove and coordinate-descent move of each.
	moves := func(st *State) int {
		return len(beam.p.addCandidates(st)) + len(st.Sites) + len(beam.p.bestReseeds(st))
	}
	wantProposals := beam.p.proposals
	for _, st := range bl.frontier {
		wantProposals += moves(st)
	}
	if moves(head) == 0 {
		t.Fatal("the elite has no moves; the advance cannot show it was expanded")
	}
	converged := depth
	if err := beam.ln.advance(ctx, converged+1); err != nil {
		t.Fatal(err)
	}
	if depth != converged+1 {
		t.Fatalf("advance after the inject reached depth %d, want %d", depth, converged+1)
	}
	if beam.p.proposals != wantProposals {
		t.Fatalf("advance after the inject made %d proposals in all, want %d", beam.p.proposals, wantProposals)
	}
}

// TestWarmStartSeedsTheAnnealLane runs searches from a WarmStart hint of
// two buses. The warm seed carries min(2, MaxBuses, eligible) bus
// squares on the hinted layout, all candidates of that layout; the
// anneal lane starts from it; and parallel and serial runs match.
func TestWarmStartSeedsTheAnnealLane(t *testing.T) {
	c := testCircuit(t)
	for _, tc := range []struct {
		name     string
		family   topology.Family
		maxBuses int
		want     int
	}{
		{"square", nil, -1, 2},
		{"square-max1", nil, 1, 1},
		{"coupler", topology.Coupler{}, -1, 0}, // no bus squares at all
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOptions(Anneal)
			opt.Family = tc.family
			opt.MaxBuses = tc.maxBuses
			opt.WarmStart = &WarmStart{Aux: 1, Buses: 2}
			p, err := newProblem(c, opt)
			if err != nil {
				t.Fatal(err)
			}
			seeds, err := p.seedStates()
			if err != nil {
				t.Fatal(err)
			}
			warm := seeds[0]
			eligible := len(p.bases[1].sites)
			want := min(opt.WarmStart.Buses, eligible)
			if opt.MaxBuses >= 0 {
				want = min(want, opt.MaxBuses)
			}
			if want != tc.want {
				t.Fatalf("fixture moved: min(2, MaxBuses, %d eligible) = %d, want %d", eligible, want, tc.want)
			}
			if warm.Aux != 1 || len(warm.Sites) != want {
				t.Fatalf("warm seed is aux %d with %d squares, want aux 1 with %d", warm.Aux, len(warm.Sites), want)
			}
			for _, s := range warm.Sites {
				found := false
				for _, cand := range p.bases[1].sites {
					found = found || cand == s
				}
				if !found {
					t.Fatalf("warm seed square %v is not a candidate of the layout", s)
				}
			}

			serial := opt
			serial.Parallel = false
			parallel := opt
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
			if len(sres.Trace) == 0 || sres.Trace[0].Step != 0 || sres.Trace[0].Expected != warm.Expected {
				t.Fatalf("anneal lane did not start from the warm seed (E=%g): trace %+v", warm.Expected, sres.Trace)
			}
		})
	}
}
