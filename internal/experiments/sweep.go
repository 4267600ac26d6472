package experiments

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"qproc/internal/core"
	"qproc/internal/gen"
	"qproc/internal/mapper"
	"qproc/internal/topology"
	"qproc/internal/yield"
)

// SweepSpec describes a design-space sweep: the Cartesian product of
// benchmark × configuration × auxiliary-qubit count × fabrication σ.
// Empty fields take the paper's defaults (all twelve benchmarks, all
// five configurations, aux = 0, σ = 30 MHz).
type SweepSpec struct {
	Benchmarks []string      `json:"benchmarks"`
	Configs    []core.Config `json:"configs"`
	// Topology names the topology family every design of the sweep is
	// generated on: "", "square", "chimera(m,n,k)" or "coupler". Empty
	// and "square" are the paper's square lattice and canonicalise to ""
	// (so legacy specs keep their job fingerprints). Non-square families
	// evaluate the eff-full and eff-5-freq series only; the other
	// configurations are square-lattice constructs and are skipped.
	Topology  string    `json:"topology,omitempty"`
	AuxCounts []int     `json:"aux_counts"`
	Sigmas    []float64 `json:"sigmas"`
	// TimeoutSec is the job's wall-clock deadline in seconds; zero means
	// none. Part of the spec (and the job fingerprint) — see
	// SearchSpec.TimeoutSec.
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// withDefaults fills the empty axes.
func (s SweepSpec) withDefaults() SweepSpec {
	s.Topology = topology.Canon(s.Topology)
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = gen.Names()
	}
	if len(s.Configs) == 0 {
		s.Configs = core.Configs()
	}
	if len(s.AuxCounts) == 0 {
		s.AuxCounts = []int{0}
	}
	if len(s.Sigmas) == 0 {
		s.Sigmas = []float64{yield.DefaultSigma}
	}
	return s
}

// SweepCell identifies one unit of sweep work: every requested
// configuration of one benchmark under one (aux, σ) setting.
type SweepCell struct {
	Benchmark string  `json:"benchmark"`
	Aux       int     `json:"aux"`
	Sigma     float64 `json:"sigma"`
}

func (c SweepCell) String() string {
	return fmt.Sprintf("%s aux=%d sigma=%.0fMHz", c.Benchmark, c.Aux, c.Sigma*1000)
}

// SweepPoint is one evaluated design of the sweep: the Figure 10 point
// plus the sweep coordinates that produced it.
type SweepPoint struct {
	Point
	AuxQubits int     `json:"aux_qubits"`
	Sigma     float64 `json:"sigma"`
}

// SweepProgress is delivered to the progress callback once per finished
// cell. Callbacks may arrive from multiple goroutines concurrently when
// the runner is parallel.
type SweepProgress struct {
	Done  int // cells finished so far, including this one
	Total int // total cells in the sweep
	Cell  SweepCell
	Err   error // the cell's error, if it failed
}

// SweepResult is the JSON-exportable outcome of a sweep.
type SweepResult struct {
	// SchemaVersion is stamped by WriteJSON; files written before the
	// stamp existed decode as 0.
	SchemaVersion int          `json:"schema_version,omitempty"`
	Spec          SweepSpec    `json:"spec"`
	Options       Options      `json:"options"`
	Points        []SweepPoint `json:"points"`
}

func (sr *SweepResult) setSchemaVersion(v int) { sr.SchemaVersion = v }

// WriteJSON streams the result as indented JSON, stamping the current
// schema version.
func (sr *SweepResult) WriteJSON(w io.Writer) error { return writeJSON(w, sr) }

// ReadSweepJSON is the inverse of WriteJSON.
func ReadSweepJSON(r io.Reader) (*SweepResult, error) {
	return readJSON[SweepResult](r, "sweep")
}

// ByCell returns the points of one (benchmark, aux, σ) cell, in
// configuration/series order.
func (sr *SweepResult) ByCell(cell SweepCell) []SweepPoint {
	var out []SweepPoint
	for _, p := range sr.Points {
		if p.Benchmark == cell.Benchmark && p.AuxQubits == cell.Aux && p.Sigma == cell.Sigma {
			out = append(out, p)
		}
	}
	return out
}

// Sweep evaluates the full design space the spec spans. Design
// generation and SABRE mapping depend only on (benchmark, aux), not on
// σ, so the engine groups the work accordingly: each (benchmark, aux)
// group generates its designs once and scores each of them at every σ
// against the job's noise matrices. Routing is memoised across jobs, not
// only within one sweep: the runner's SABRE result cache routes each
// (program, topology) once per process, so designs that share a coupling
// graph, and later sweeps of the same benchmark at another σ, reuse the
// gate and SWAP counts of the first routing. Groups fan out over the
// runner's worker pool. Configurations that do not support auxiliary
// qubits (ibm, eff-rd-bus, eff-layout-only) are evaluated at aux = 0
// only and silently skipped in aux > 0 cells. Performance is normalised
// per benchmark against IBM baseline (1), so points are comparable
// across the whole sweep. The optional progress callback fires once per
// finished (benchmark, aux, σ) cell; results are deterministic for a
// given seed and identical to a serial run.
//
// ctx cancels cooperatively: a cancelled sweep stops within one
// (benchmark, aux) group's current phase — series generation, or the
// fan-out that maps and scores its designs — and returns an error
// wrapping ctx.Err(). An uncancelled ctx never changes the result.
func (r *Runner) Sweep(ctx context.Context, spec SweepSpec, progress func(SweepProgress)) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec = spec.withDefaults()
	if _, err := topology.Parse(spec.Topology); err != nil {
		return nil, fmt.Errorf("experiments: sweep: %w", err)
	}
	for _, name := range spec.Benchmarks {
		if _, err := gen.Get(name); err != nil {
			return nil, fmt.Errorf("experiments: sweep: %w", err)
		}
	}

	type group struct {
		benchmark string
		aux       int
	}
	var groups []group
	for _, b := range spec.Benchmarks {
		for _, aux := range spec.AuxCounts {
			groups = append(groups, group{b, aux})
		}
	}

	// One noise cache serves every group, design and σ of the sweep, and
	// is dropped with it.
	cache := r.noise.open()
	defer r.noise.close(cache)
	total := len(groups) * len(spec.Sigmas)
	perGroup := make([][]SweepPoint, len(groups))
	errs := make([]error, len(groups))
	var done atomic.Int64
	r.forEachCtx(ctx, len(groups), func(i int) {
		g := groups[i]
		report := func(sigma float64, err error) {
			if progress != nil {
				progress(SweepProgress{
					Done:  int(done.Add(1)),
					Total: total,
					Cell:  SweepCell{Benchmark: g.benchmark, Aux: g.aux, Sigma: sigma},
					Err:   err,
				})
			}
		}
		perGroup[i], errs[i] = r.runGroup(ctx, cache, g.benchmark, g.aux, spec, report)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: sweep: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep cell %s aux=%d: %w", groups[i].benchmark, groups[i].aux, err)
		}
	}

	res := &SweepResult{Spec: spec, Options: r.opt}
	for _, pts := range perGroup {
		res.Points = append(res.Points, pts...)
	}
	return res, nil
}

// runGroup evaluates one (benchmark, aux) group across every requested
// configuration and σ. report is called once per σ, mirroring the cell
// granularity of the progress callback; on a generation or mapping
// error every σ cell of the group is reported failed. The simulators
// draw noise from the sweep's cache. A cancelled ctx aborts between
// phases and between σ cells; the partial slice is discarded by Sweep.
func (r *Runner) runGroup(ctx context.Context, cache *yield.NoiseCache, bench string, aux int, spec SweepSpec, report func(float64, error)) ([]SweepPoint, error) {
	fail := func(err error) ([]SweepPoint, error) {
		for _, sigma := range spec.Sigmas {
			report(sigma, err)
		}
		return nil, err
	}
	b, err := gen.Get(bench)
	if err != nil {
		return fail(err)
	}
	c := b.Build()
	fam, err := topology.Parse(spec.Topology)
	if err != nil {
		return fail(err)
	}
	flow := r.flow()
	if !topology.IsSquare(fam) {
		flow.Family = fam
	}

	// Generate every design once: generation does not depend on σ. Each
	// configuration's generator is deterministic and seeded from the flow
	// alone, so the series are generated concurrently; they land by index
	// and are flattened in configuration order.
	type mapped struct {
		cfg          core.Config
		design       *core.Design
		label        string
		gates, swaps int
	}
	var cfgs []core.Config
	for _, cfg := range spec.Configs {
		if !topology.IsSquare(fam) {
			switch cfg {
			case core.ConfigEffFull, core.ConfigEff5Freq:
			default:
				continue // square-lattice constructs: square family only
			}
		}
		if aux > 0 {
			switch cfg {
			case core.ConfigEffFull, core.ConfigEff5Freq:
			default:
				continue // fixed chips / bare-layout ablations: aux = 0 only
			}
		}
		cfgs = append(cfgs, cfg)
	}
	series := make([][]*core.Design, len(cfgs))
	genErrs := make([]error, len(cfgs))
	r.forEachCtx(ctx, len(cfgs), func(i int) {
		series[i], genErrs[i] = flow.SeriesConfig(c, cfgs[i], r.opt.MaxBuses, aux, r.opt.RandomBusSamples)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var designs []mapped
	for i, cfg := range cfgs {
		if genErrs[i] != nil {
			return fail(fmt.Errorf("%s: %w", cfg, genErrs[i]))
		}
		for j, d := range series[i] {
			label := fmt.Sprintf("k=%d", d.Buses)
			if cfg == core.ConfigIBM {
				label = fmt.Sprintf("(%d)", j+1)
			}
			designs = append(designs, mapped{cfg: cfg, design: d, label: label})
		}
	}
	// Map every design and score it at every σ; only the yield estimate
	// depends on σ. Routing reads through the runner's SABRE result
	// cache, so a topology any earlier design or job routed is not routed
	// again; the program is fingerprinted once for the whole group.
	// Designs run concurrently, as mapping and scoring one design is the
	// unit of work, and land by index.
	prog := mapper.NewProgram(c)
	sims := make([]*yield.Simulator, len(spec.Sigmas))
	for si, sigma := range spec.Sigmas {
		sims[si] = r.simulator(cache)
		sims[si].Sigma = sigma
		sims[si].Ctx = ctx
	}
	yields := make([][]float64, len(designs))
	mapErrs := make([]error, len(designs))
	r.forEachCtx(ctx, len(designs), func(i int) {
		n, err := r.maps.Counts(prog, designs[i].design.Arch, r.opt.Mapper)
		if err != nil {
			mapErrs[i] = fmt.Errorf("mapping %s onto %s: %w", c.Name, designs[i].design.Arch.Name, err)
			return
		}
		designs[i].gates, designs[i].swaps = n.GateCount, n.Swaps
		yields[i] = make([]float64, len(sims))
		for si, sim := range sims {
			yields[i][si] = estimateArch(sim, designs[i].design.Arch)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range mapErrs {
		if err != nil {
			return fail(err)
		}
	}

	// Baseline (1) anchors NormPerf. When the ibm configuration is part
	// of the sweep, the lookup hits the routing its design just read.
	baselines := flow.Baselines(c)
	if len(baselines) == 0 {
		return fail(fmt.Errorf("%s needs %d qubits, exceeding every baseline", c.Name, c.Qubits))
	}
	base, err := r.maps.Counts(prog, baselines[0].Arch, r.opt.Mapper)
	if err != nil {
		return fail(fmt.Errorf("mapping %s onto %s: %w", c.Name, baselines[0].Arch.Name, err))
	}

	var out []SweepPoint
	for si, sigma := range spec.Sigmas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, m := range designs {
			out = append(out, SweepPoint{
				Point: Point{
					Benchmark:   c.Name,
					Config:      m.cfg,
					Label:       m.label,
					Qubits:      m.design.Arch.NumQubits(),
					Connections: m.design.Arch.NumConnections(),
					Buses:       m.design.Buses,
					GateCount:   m.gates,
					Swaps:       m.swaps,
					Yield:       yields[i][si],
					NormPerf:    float64(base.GateCount) / float64(m.gates),
				},
				AuxQubits: aux,
				Sigma:     sigma,
			})
		}
		report(sigma, nil)
	}
	return out, nil
}
