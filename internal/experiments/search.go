package experiments

import (
	"context"
	"fmt"
	"io"

	"qproc/internal/arch"
	"qproc/internal/gen"
	"qproc/internal/search"
	"qproc/internal/topology"
	"qproc/internal/yield"
)

// SearchSpec describes a guided design-space search over one benchmark:
// the strategy, the layout variants, and the budget knobs. Zero fields
// take defaults matching the sweep engine's conventions.
type SearchSpec struct {
	Benchmark string          `json:"benchmark"`
	Strategy  search.Strategy `json:"strategy"`
	// Topology names the topology family the search designs for: "",
	// "square", "chimera(m,n,k)" or "coupler". Empty and "square" are the
	// paper's square lattice and canonicalise to "" (so legacy specs and
	// square-spelled specs share a job fingerprint).
	Topology  string  `json:"topology,omitempty"`
	AuxCounts []int   `json:"aux_counts"`
	Sigma     float64 `json:"sigma"`
	// MaxBuses caps the 4-qubit bus squares per design: nil inherits the
	// runner's option, negative means no cap, and 0 is a real cap
	// (forbid multi-qubit buses).
	MaxBuses *int `json:"max_buses,omitempty"`
	// MaxEvals caps the full Monte-Carlo evaluations; <= 0 means
	// unlimited.
	MaxEvals int `json:"max_evals"`
	// Steps/Proposals configure annealing; BeamWidth/Depth configure beam
	// search. Zero takes the search package defaults.
	Steps     int `json:"steps"`
	Proposals int `json:"proposals"`
	BeamWidth int `json:"beam_width"`
	Depth     int `json:"depth"`
	// PerfWeight blends mapped performance into the objective
	// (yield · normPerf^PerfWeight); zero optimises yield alone.
	PerfWeight float64 `json:"perf_weight"`
	// WarmStart optionally seeds the optimiser from a known-good design
	// (aux variant + bus budget), typically the best point of a stored
	// exhaustive sweep. Runner.RunJob fills it automatically from the run
	// store when left nil; it participates in the job fingerprint because
	// it changes the search trajectory.
	WarmStart *search.WarmStart `json:"warm_start,omitempty"`
	// TimeoutSec is the job's wall-clock deadline in seconds; zero means
	// none. It rides the spec (and therefore the job fingerprint) so a
	// job killed by its deadline is never served from the store as the
	// answer to an unbounded submission.
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// withDefaults fills the empty axes; MaxBuses keeps the runner's cap.
func (s SearchSpec) withDefaults(opt Options) (SearchSpec, search.Options) {
	so := search.DefaultOptions()
	so.Seed = opt.Seed
	so.Trials = opt.YieldTrials
	so.Mapper = opt.Mapper
	so.Parallel = opt.Parallel
	so.Workers = opt.Workers
	if s.Strategy == "" {
		s.Strategy = search.Anneal
	}
	so.Strategy = s.Strategy
	s.Topology = topology.Canon(s.Topology)
	if f, err := topology.Parse(s.Topology); err == nil && !topology.IsSquare(f) {
		so.Family = f
	}
	if len(s.AuxCounts) == 0 {
		s.AuxCounts = []int{0}
	}
	so.AuxCounts = s.AuxCounts
	if s.Sigma == 0 {
		s.Sigma = yield.DefaultSigma
	}
	so.Sigma = s.Sigma
	if s.MaxBuses == nil {
		v := opt.MaxBuses
		s.MaxBuses = &v
	}
	so.MaxBuses = *s.MaxBuses
	so.MaxEvals = s.MaxEvals
	if s.Steps > 0 {
		so.Steps = s.Steps
	}
	if s.Proposals > 0 {
		so.Proposals = s.Proposals
	}
	if s.BeamWidth > 0 {
		so.BeamWidth = s.BeamWidth
	}
	if s.Depth > 0 {
		so.Depth = s.Depth
	}
	so.PerfWeight = s.PerfWeight
	so.WarmStart = s.WarmStart
	return s, so
}

// SearchProgress mirrors search.Progress for the runner's callback
// convention (field-for-field: the runner converts between the two).
type SearchProgress struct {
	Step, Total  int
	Evals        int
	BestYield    float64
	BestExpected float64
	// CondChecks / CondSkipped are the Monte-Carlo tier's cumulative
	// condition-bundle evaluations performed and avoided by incremental
	// re-estimation.
	CondChecks  uint64
	CondSkipped uint64
	// LanesLive / LanesDone describe a portfolio run's lanes; both zero
	// on single-lane searches.
	LanesLive, LanesDone int
}

// SearchOutcome is the JSON-exportable result of a guided search: the
// winning design rendered as a sweep point (so search results compose
// with sweep tooling), plus the search diagnostics.
type SearchOutcome struct {
	// SchemaVersion is stamped by WriteJSON; files written before the
	// stamp existed decode as 0.
	SchemaVersion int        `json:"schema_version,omitempty"`
	Spec          SearchSpec `json:"spec"`
	Options       Options    `json:"options"`
	// Best is the winning design in sweep-point form: Config "search",
	// Label "k=<buses>", NormPerf anchored to IBM baseline (1).
	Best SweepPoint `json:"best"`
	// Arch is the winning architecture itself (layout, buses,
	// frequencies), serialised so store and server clients can render or
	// re-evaluate the design without re-running the search.
	Arch *arch.Architecture `json:"arch,omitempty"`
	// Expected is the winner's analytic expected collision count.
	Expected float64 `json:"expected"`
	// Objective is the scalar the search maximised.
	Objective float64 `json:"objective"`
	// Evals is the number of full Monte-Carlo design evaluations spent;
	// Proposals the number of surrogate-scored candidate states.
	Evals     int `json:"evals"`
	Proposals int `json:"proposals"`
	// CondChecks / CondSkipped report the Monte-Carlo kernel's
	// condition-bundle evaluations performed and avoided by incremental
	// re-estimation on the promotion path.
	CondChecks  uint64              `json:"cond_checks,omitempty"`
	CondSkipped uint64              `json:"cond_skipped,omitempty"`
	Trace       []search.TracePoint `json:"trace"`
	// Lanes / Exchanges are present on portfolio runs only: per-lane
	// incumbents and traces (the raw material for Pareto extraction
	// across lanes), and the number of barriers before the end at which
	// some lane had an incumbent to broadcast. A one-lane portfolio has
	// no lane to broadcast to, yet counts those barriers all the same.
	Lanes     []search.LaneResult `json:"lanes,omitempty"`
	Exchanges int                 `json:"exchanges,omitempty"`

	// Result keeps the full search result (with the architecture) for
	// programmatic callers; not serialised.
	Result *search.Result `json:"-"`
}

func (so *SearchOutcome) setSchemaVersion(v int) { so.SchemaVersion = v }

// WriteJSON streams the outcome as indented JSON, stamping the current
// schema version.
func (so *SearchOutcome) WriteJSON(w io.Writer) error { return writeJSON(w, so) }

// ReadSearchJSON is the inverse of WriteJSON.
func ReadSearchJSON(r io.Reader) (*SearchOutcome, error) {
	return readJSON[SearchOutcome](r, "search outcome")
}

// Search runs the guided design-space search on one benchmark with the
// runner's parallelism settings. Its Monte-Carlo evaluations draw the
// exact common-random-numbers matrices a sweep with the same options
// draws, from a noise cache that lives as long as the search. The
// optional progress callback fires once per annealing step or beam
// depth. Results are deterministic for a given seed; parallel and
// serial runs are bit-identical.
//
// ctx cancels cooperatively: a cancelled search stops within one
// proposal batch or Monte-Carlo trial chunk and returns an error
// wrapping ctx.Err(); an uncancelled ctx never changes the result.
func (r *Runner) Search(ctx context.Context, spec SearchSpec, progress func(SearchProgress)) (*SearchOutcome, error) {
	return r.runSearch(ctx, "search", spec, nil, progress)
}

// runSearch is the one body behind Search and Portfolio: it runs
// search.Run, or search.RunPortfolio when pf is non-nil, on the runner's
// shared resources and renders the result in outcome form. kind names
// the entry point in errors.
func (r *Runner) runSearch(ctx context.Context, kind string, spec SearchSpec, pf *search.PortfolioOptions, progress func(SearchProgress)) (*SearchOutcome, error) {
	b, err := gen.Get(spec.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", kind, err)
	}
	if _, err := topology.Parse(spec.Topology); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", kind, err)
	}
	c := b.Build()
	spec, so := spec.withDefaults(r.opt)
	// The shared pool, kernel cache and SABRE result cache are runner
	// resources, not spec axes: they change scheduling and reuse only,
	// never results, so they stay out of withDefaults and the job
	// fingerprint.
	so.Pool = r.pool
	so.Kernels = r.kernels
	so.Maps = r.maps
	if ck, ok := checkpointControl(ctx); ok {
		so.Checkpoint = &search.CheckpointOptions{Every: ck.every, Resume: ck.resume, Save: ck.save}
	}

	var cb func(search.Progress)
	if progress != nil {
		cb = func(p search.Progress) {
			progress(SearchProgress(p))
		}
	}
	// Every lane, promotion and re-estimate of the job shares one noise
	// cache, dropped when the job ends.
	cache := r.noise.open()
	defer r.noise.close(cache)
	var res *search.Result
	if pf == nil {
		res, err = search.Run(ctx, c, so, cache, cb)
	} else {
		res, err = search.RunPortfolio(ctx, c, so, *pf, cache, cb)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s %s: %w", kind, spec.Benchmark, err)
	}
	return &SearchOutcome{
		Spec:    spec,
		Options: r.opt,
		Best: SweepPoint{
			Point: Point{
				Benchmark:   c.Name,
				Config:      res.Best.Config,
				Label:       fmt.Sprintf("k=%d", res.Best.Buses),
				Qubits:      res.Best.Arch.NumQubits(),
				Connections: res.Best.Arch.NumConnections(),
				Buses:       res.Best.Buses,
				GateCount:   res.GateCount,
				Swaps:       res.Swaps,
				Yield:       res.Yield,
				NormPerf:    res.NormPerf,
			},
			AuxQubits: res.Best.AuxQubits,
			Sigma:     spec.Sigma,
		},
		Arch:        res.Best.Arch,
		Expected:    res.Expected,
		Objective:   res.Objective,
		Evals:       res.Evals,
		Proposals:   res.Proposals,
		CondChecks:  res.CondChecks,
		CondSkipped: res.CondSkipped,
		Trace:       res.Trace,
		Lanes:       res.Lanes,
		Exchanges:   res.Exchanges,
		Result:      res,
	}, nil
}
