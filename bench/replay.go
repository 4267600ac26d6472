package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/experiments"
	"qproc/internal/freq"
	"qproc/internal/gen"
	"qproc/internal/mapper"
	"qproc/internal/metrics"
	"qproc/internal/runstore"
	"qproc/internal/search"
	"qproc/internal/topology"
	"qproc/internal/workpool"
	"qproc/internal/yield"
)

// engineOptions are the engine options qserve runs under the benchmark's
// flags: -quick, engine seed 1, -workers 2 and the default
// -checkpoint-every 25. Job keys and replayed outcomes both depend on
// them.
func engineOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.Workers = 2
	o.CheckpointEvery = 25
	return o
}

// replayer re-executes sampled jobs in-process, layer call by layer
// call, the way qserve's runner makes them, with a span around each
// call. It shares one noise cache, kernel cache and 2-worker pool across
// the sample, as qserve shares them across jobs, and persists to its own
// run store, journal and metrics store.
type replayer struct {
	tr      *tracer
	opt     experiments.Options
	runner  *experiments.Runner
	cache   *yield.NoiseCache
	kernels *collision.KernelCache
	lanes   *search.LaneCounters
	pool    *workpool.Pool
	store   *runstore.Store
	journal *runstore.Journal
	mstore  *metrics.Store

	// seen* record which noise matrices and kernels the replay has
	// already asked for, so a span can be named as a cache miss
	// (generation, compilation) or a hit before the call is made.
	mu        sync.Mutex
	seenNoise map[string]bool
	seenTopo  map[string]bool

	// probeProposals counts the proposals of probe searches.
	probeProposals int
}

func newReplayer(dir string) (*replayer, error) {
	opt := engineOptions()
	store, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	journal, err := runstore.OpenJournal(filepath.Join(dir, "jobs.ndjson"), 256, runstore.WithFsync(true))
	if err != nil {
		return nil, err
	}
	mstore, err := metrics.Open(filepath.Join(dir, "metrics"), metrics.Retention{MaxBytes: 64 << 20})
	if err != nil {
		journal.Close()
		return nil, err
	}
	return &replayer{
		tr: newTracer(), opt: opt, runner: experiments.NewRunner(opt),
		cache: yield.NewNoiseCache(), kernels: collision.NewKernelCache(),
		lanes: &search.LaneCounters{}, pool: workpool.New(opt.Workers),
		store: store, journal: journal, mstore: mstore,
		seenNoise: map[string]bool{}, seenTopo: map[string]bool{},
	}, nil
}

func (rp *replayer) close() {
	rp.journal.Close()
	rp.mstore.Close()
}

// replayed is one job replayed in-process.
type replayed struct {
	id      string
	payload []byte
	// search-only counts, exact from search.Result.
	evals, proposals int
	checked, skipped uint64
	probe            probeTarget
}

// probeTarget is the design a job's probes run on: a sweep's first
// generated (non-IBM) design, a search's winner.
type probeTarget struct {
	c        *circuit.Circuit
	a        *arch.Architecture
	sigma    float64
	topology string
}

// replay runs one job the way qserve does, from submission (warm-start
// resolution, journal) through the engine to persistence.
func (rp *replayer) replay(r *request) (*replayed, error) {
	tr := rp.tr
	js := tr.begin(0, "job", "")
	defer tr.end(js, 0)
	var job experiments.Job
	var err error
	rs := tr.begin(js, "experiments.resolve", "")
	if job, err = experiments.ParseJob(r.kind, r.spec); err == nil {
		job = rp.runner.ResolveJob(job, rp.store)
	}
	tr.end(rs, 0)
	if err != nil {
		return nil, err
	}
	key, err := experiments.JobKey(job, rp.opt)
	if err != nil {
		return nil, err
	}
	tr.setJob(key, js, rs)
	rj := &replayed{id: key}

	resolved, err := experiments.SpecJSON(job)
	if err != nil {
		return nil, err
	}
	rec := runstore.JobRecord{ID: key, Kind: job.Kind(), Summary: job.Summary(), Spec: r.spec,
		Status: "queued", Submitted: time.Now().UTC(), ResolvedSpec: resolved}
	if err := rp.appendJournal(js, rec); err != nil {
		return nil, err
	}
	rec.Status, rec.Started, rec.Attempts = "running", time.Now().UTC(), 1
	if err := rp.appendJournal(js, rec); err != nil {
		return nil, err
	}
	tr.do(js, "runstore.get", key, func() {
		_, _, err = rp.store.Get(key)
		if err == nil && r.kind != "sweep" {
			_, err = rp.store.GetCheckpoint(key)
		}
	})
	if err != nil {
		return nil, err
	}

	var out experiments.Outcome
	switch j := job.(type) {
	case experiments.SweepJob:
		out, err = rp.sweep(js, key, j.Spec, rj)
	case experiments.SearchJob:
		out, err = rp.search(js, key, j.Spec, nil, rj)
	case experiments.PortfolioJob:
		pf := search.PortfolioOptions{Lanes: j.Spec.Lanes, ExchangeEvery: j.Spec.ExchangeEvery, Counters: rp.lanes}
		out, err = rp.search(js, key, j.Spec.SearchSpec, &pf, rj)
	}
	if err != nil {
		return nil, fmt.Errorf("replaying %s %s: %w", r.kind, key, err)
	}

	var buf bytes.Buffer
	tr.do(js, "experiments.encode", key, func() { err = out.WriteJSON(&buf) })
	if err != nil {
		return nil, err
	}
	rj.payload = buf.Bytes()
	tr.do(js, "runstore.put", key, func() { _, err = rp.store.Put(key, job.Kind(), job.Summary(), rj.payload) })
	if err != nil {
		return nil, err
	}
	tr.do(js, "runstore.checkpoint_delete", key, func() { err = rp.store.DeleteCheckpoint(key) })
	if err != nil {
		return nil, err
	}
	rec.Status, rec.Finished = "done", time.Now().UTC()
	return rj, rp.appendJournal(js, rec)
}

func (rp *replayer) appendJournal(parent int, rec runstore.JobRecord) (err error) {
	rp.tr.do(parent, "runstore.journal_append", rec.ID, func() { err = rp.journal.Append(rec) })
	return err
}

// appendMetric records one progress series point, as qserve does for
// every numeric facet of every progress event.
func (rp *replayer) appendMetric(parent int, key, name string, step int64, v float64) {
	rp.tr.do(parent, "metrics.append", key, func() {
		_ = rp.mstore.Append("job:"+key+"/"+name, metrics.Point{T: time.Now().UTC(), Step: step, V: v})
	})
}

// simulator mirrors the runner's yield simulator at σ.
func (rp *replayer) simulator(sigma float64) *yield.Simulator {
	s := yield.New(rp.opt.Seed + 7919)
	s.Trials = rp.opt.YieldTrials
	s.Cache = rp.cache
	s.Kernels = rp.kernels
	s.Parallel = rp.opt.Parallel
	s.Workers = rp.opt.Workers
	s.Pool = rp.pool
	s.Sigma = sigma
	return s
}

// firstUse reports whether key is new to the set, marking it seen.
func (rp *replayer) firstUse(set map[string]bool, key string) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if set[key] {
		return false
	}
	set[key] = true
	return true
}

func (rp *replayer) build(parent int, key, name string) (c *circuit.Circuit, err error) {
	rp.tr.do(parent, "gen.build", key, func() {
		var b gen.Benchmark
		if b, err = gen.Get(name); err == nil {
			c = b.Build()
		}
	})
	return c, err
}

// sweep replays Runner.Sweep: (benchmark, aux) groups fan out over the
// pool, and each group generates, maps and scores its designs.
func (rp *replayer) sweep(parent int, key string, spec experiments.SweepSpec, rj *replayed) (experiments.Outcome, error) {
	type group struct {
		bench string
		aux   int
	}
	var groups []group
	for _, b := range spec.Benchmarks {
		for _, aux := range spec.AuxCounts {
			groups = append(groups, group{b, aux})
		}
	}
	per := make([][]experiments.SweepPoint, len(groups))
	errs := make([]error, len(groups))
	var done atomic.Int64
	rp.pool.ForEach(len(groups), func(i int) {
		var probe *probeTarget
		if i == 0 {
			probe = &rj.probe
		}
		per[i], errs[i] = rp.sweepGroup(parent, key, groups[i].bench, groups[i].aux, spec, &done, probe)
	})
	res := &experiments.SweepResult{Spec: spec, Options: rp.opt}
	for i, pts := range per {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.Points = append(res.Points, pts...)
	}
	return res, nil
}

// sweepGroup replays the runner's per-group work in its order: build
// the program, generate each configuration's series, map every design
// (fanned out), then per σ fetch the noise matrix, the compiled kernel
// and the yield estimate of every design.
func (rp *replayer) sweepGroup(parent int, key, bench string, aux int, spec experiments.SweepSpec,
	done *atomic.Int64, probe *probeTarget) ([]experiments.SweepPoint, error) {
	tr := rp.tr
	c, err := rp.build(parent, key, bench)
	if err != nil {
		return nil, err
	}
	fam, err := topology.Parse(spec.Topology)
	if err != nil {
		return nil, err
	}
	flow := core.NewFlow(rp.opt.Seed)
	flow.FreqLocalTrials = rp.opt.FreqLocalTrials
	square := topology.IsSquare(fam)
	if !square {
		flow.Family = fam
	}
	type mapped struct {
		cfg          core.Config
		design       *core.Design
		label        string
		gates, swaps int
	}
	var designs []mapped
	for _, cfg := range spec.Configs {
		series := cfg == core.ConfigEffFull || cfg == core.ConfigEff5Freq
		if (!square || aux > 0) && !series {
			continue
		}
		var ds []*core.Design
		tr.do(parent, "core.series", key, func() {
			ds, err = flow.SeriesConfig(c, cfg, rp.opt.MaxBuses, aux, rp.opt.RandomBusSamples)
		})
		if err != nil {
			return nil, err
		}
		for i, d := range ds {
			label := fmt.Sprintf("k=%d", d.Buses)
			if cfg == core.ConfigIBM {
				label = fmt.Sprintf("(%d)", i+1)
			}
			designs = append(designs, mapped{cfg: cfg, design: d, label: label})
		}
	}
	mapErrs := make([]error, len(designs))
	rp.pool.ForEach(len(designs), func(i int) {
		tr.do(parent, "mapper.map", key, func() {
			mres, err := mapper.Map(c, designs[i].design.Arch, rp.opt.Mapper)
			if err != nil {
				mapErrs[i] = err
				return
			}
			designs[i].gates, designs[i].swaps = mres.GateCount, mres.Swaps
		})
	})
	for _, err := range mapErrs {
		if err != nil {
			return nil, err
		}
	}
	baseGates := 0
	for _, m := range designs {
		if m.cfg == core.ConfigIBM {
			baseGates = m.gates
			break
		}
	}
	if baseGates == 0 {
		var bl []*core.Design
		tr.do(parent, "core.baselines", key, func() { bl = flow.Baselines(c) })
		if len(bl) == 0 {
			return nil, fmt.Errorf("%s exceeds every baseline", c.Name)
		}
		tr.do(parent, "mapper.map", key, func() {
			var mres *mapper.Result
			if mres, err = mapper.Map(c, bl[0].Arch, rp.opt.Mapper); err == nil {
				baseGates = mres.GateCount
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if probe != nil {
		for _, m := range designs {
			if m.cfg != core.ConfigIBM {
				*probe = probeTarget{c: c, a: m.design.Arch, sigma: spec.Sigmas[0], topology: spec.Topology}
				break
			}
		}
	}

	var out []experiments.SweepPoint
	for _, sigma := range spec.Sigmas {
		sim := rp.simulator(sigma)
		fetched := map[int]bool{}
		for _, m := range designs {
			if n := m.design.Arch.NumQubits(); !fetched[n] {
				fetched[n] = true
				rp.noise(parent, key, sim, n)
			}
		}
		for _, m := range designs {
			a := m.design.Arch
			adj := a.AdjList()
			topo := rp.kernel(parent, key, sim, adj)
			var y float64
			tr.do(parent, "yield.estimate", key, func() { y = sim.EstimateFreqsKeyed(topo, adj, a.Freqs) })
			out = append(out, experiments.SweepPoint{
				Point: experiments.Point{
					Benchmark: c.Name, Config: m.cfg, Label: m.label,
					Qubits: a.NumQubits(), Connections: a.NumConnections(), Buses: m.design.Buses,
					GateCount: m.gates, Swaps: m.swaps, Yield: y,
					NormPerf: float64(baseGates) / float64(m.gates),
				},
				AuxQubits: aux,
				Sigma:     sigma,
			})
		}
		d := done.Add(1)
		rp.appendMetric(parent, key, "cells_done", d, float64(d))
	}
	return out, nil
}

// noise fetches the σ, n noise matrix through the shared cache; the
// first fetch generates it (span yield.noise_gen).
func (rp *replayer) noise(parent int, key string, sim *yield.Simulator, n int) {
	name := "yield.noise"
	if rp.firstUse(rp.seenNoise, fmt.Sprintf("%v/%d", sim.Sigma, n)) {
		name = "yield.noise_gen"
	}
	rp.tr.do(parent, name, key, func() { rp.cache.Noise(sim, n) })
}

// kernel fetches adj's compiled kernel through the shared cache; the
// first fetch compiles it (span collision.kernel_compile).
func (rp *replayer) kernel(parent int, key string, sim *yield.Simulator, adj [][]int) string {
	topo := collision.TopoKey(adj)
	name := "collision.kernel"
	if rp.firstUse(rp.seenTopo, topo) {
		name = "collision.kernel_compile"
	}
	rp.tr.do(parent, name, key, func() { rp.kernels.Kernel(topo, adj, sim.Params) })
	return topo
}

// searchOptions builds the search options a normalised spec runs with,
// as the engine's SearchSpec defaults do.
func searchOptions(s experiments.SearchSpec, opt experiments.Options) (search.Options, error) {
	so := search.DefaultOptions()
	so.Seed = opt.Seed
	so.Trials = opt.YieldTrials
	so.Mapper = opt.Mapper
	so.Parallel = opt.Parallel
	so.Workers = opt.Workers
	so.Strategy = s.Strategy
	f, err := topology.Parse(s.Topology)
	if err != nil {
		return so, err
	}
	if !topology.IsSquare(f) {
		so.Family = f
	}
	so.AuxCounts = s.AuxCounts
	so.Sigma = s.Sigma
	if s.MaxBuses != nil {
		so.MaxBuses = *s.MaxBuses
	}
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
	return so, nil
}

// search replays Runner.Search (pf nil) or Runner.Portfolio: one
// search.Run / RunPortfolio call, with checkpoint saves and progress
// series appends attributed through the options' seams.
func (rp *replayer) search(parent int, key string, spec experiments.SearchSpec, pf *search.PortfolioOptions,
	rj *replayed) (experiments.Outcome, error) {
	tr := rp.tr
	c, err := rp.build(parent, key, spec.Benchmark)
	if err != nil {
		return nil, err
	}
	so, err := searchOptions(spec, rp.opt)
	if err != nil {
		return nil, err
	}
	so.Pool = rp.pool
	so.Kernels = rp.kernels
	run := tr.begin(parent, "search.run", key)
	so.Checkpoint = &search.CheckpointOptions{Every: rp.opt.CheckpointEvery, Save: func(cp *search.Checkpoint) {
		tr.do(run, "runstore.checkpoint_put", key, func() {
			if data, err := cp.Encode(); err == nil {
				_ = rp.store.PutCheckpoint(key, data)
			}
		})
	}}
	progress := func(p search.Progress) {
		ev := experiments.SearchProgress(p).Event()
		for name, v := range ev.Series {
			rp.appendMetric(run, key, name, int64(ev.Done), v)
		}
	}
	var res *search.Result
	if pf == nil {
		res, err = search.Run(context.Background(), c, so, rp.cache, progress)
	} else {
		res, err = search.RunPortfolio(context.Background(), c, so, *pf, rp.cache, progress)
	}
	tr.end(run, 0)
	if err != nil {
		return nil, err
	}
	rj.evals, rj.proposals = res.Evals, res.Proposals
	rj.checked, rj.skipped = res.CondChecks, res.CondSkipped
	rj.probe = probeTarget{c: c, a: res.Best.Arch, sigma: spec.Sigma, topology: spec.Topology}
	out := &experiments.SearchOutcome{
		Spec:    spec,
		Options: rp.opt,
		Best: experiments.SweepPoint{
			Point: experiments.Point{
				Benchmark: c.Name, Config: res.Best.Config, Label: fmt.Sprintf("k=%d", res.Best.Buses),
				Qubits: res.Best.Arch.NumQubits(), Connections: res.Best.Arch.NumConnections(),
				Buses: res.Best.Buses, GateCount: res.GateCount, Swaps: res.Swaps,
				Yield: res.Yield, NormPerf: res.NormPerf,
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
	}
	return out, nil
}

// probe runs one probe loop of calls operations on a job's target as a
// root span, outside the job's wall time.
func (rp *replayer) probe(name, job string, calls int, fn func()) {
	id := rp.tr.begin(0, "probe."+name, job)
	fn()
	rp.tr.end(id, calls)
}

// runProbes measures per-call costs on each replayed job's probe design.
// The analytic preview and the incremental re-estimate always run: the
// engine calls them inside search.Run, where no outside span can reach.
// Every other probe runs only for layers the sample never called
// directly, so each per-call metric is measured on every workload.
func (rp *replayer) runProbes(jobs []*replayed, direct map[string]int) error {
	need := func(layer string) bool { return direct[layer] == 0 }
	for _, j := range jobs {
		t := j.probe
		a, c := t.a, t.c
		adj, freqs := a.AdjList(), a.Freqs
		sim := rp.simulator(t.sigma)
		topo := collision.TopoKey(adj)

		inc := collision.NewIncremental(adj, freqs, t.sigma, sim.Params)
		cands := freq.Candidates()
		const previewReps = 20
		rp.probe("collision.preview1", j.id, previewReps*len(freqs)*4, func() {
			for rep := 0; rep < previewReps; rep++ {
				for q := range freqs {
					for k := 0; k < 4; k++ {
						inc.Preview1(q, cands[(q+rep+5*k)%len(cands)])
					}
				}
			}
		})

		st := sim.NewTrialStateKeyed(topo, adj, freqs)
		cur := append([]float64(nil), freqs...)
		const moves = 40
		rp.probe("yield.reestimate", j.id, moves, func() {
			for i := 0; i < moves; i++ {
				q := (i / 2) % len(cur)
				cur[q] = freqs[q]
				if i%2 == 0 {
					cur[q] += 0.013
				}
				sim.ReEstimate(st, []int{q}, cur)
			}
		})

		if need("core.series") {
			fam, err := topology.Parse(t.topology)
			if err != nil {
				return err
			}
			flow := core.NewFlow(rp.opt.Seed)
			flow.FreqLocalTrials = rp.opt.FreqLocalTrials
			if !topology.IsSquare(fam) {
				flow.Family = fam
			}
			rp.probe("core.series", j.id, 1, func() {
				_, err = flow.SeriesConfig(c, core.ConfigEffFull, 0, 0, rp.opt.RandomBusSamples)
			})
			if err != nil {
				return err
			}
		}
		if need("mapper.map") {
			var err error
			rp.probe("mapper.map", j.id, 1, func() { _, err = mapper.Map(c, a, rp.opt.Mapper) })
			if err != nil {
				return err
			}
		}
		if need("yield.noise_gen") {
			rp.probe("yield.noise_gen", j.id, 1, func() { sim.GenNoise(len(freqs)) })
		}
		if need("collision.kernel_compile") {
			const compiles = 3
			rp.probe("collision.kernel_compile", j.id, compiles, func() {
				for i := 0; i < compiles; i++ {
					collision.NewKernel(adj, sim.Params)
				}
			})
		}
		if need("yield.estimate") {
			rp.kernels.Kernel(topo, adj, sim.Params)
			rp.cache.Noise(sim, len(freqs))
			const estimates = 5
			rp.probe("yield.estimate", j.id, estimates, func() {
				for i := 0; i < estimates; i++ {
					sim.EstimateFreqsKeyed(topo, adj, freqs)
				}
			})
		}
		if need("runstore.checkpoint_put") {
			var err error
			rp.probe("runstore.checkpoint_put", j.id, 1, func() { err = rp.store.PutCheckpoint(j.id, j.payload) })
			if err == nil {
				err = rp.store.DeleteCheckpoint(j.id)
			}
			if err != nil {
				return err
			}
		}
		if need("search.run") {
			so, err := searchOptions(experiments.SearchSpec{
				Benchmark: c.Name, Strategy: search.Anneal, Topology: t.topology,
				AuxCounts: []int{0}, Sigma: t.sigma, MaxEvals: 2, Steps: 8,
			}, rp.opt)
			if err != nil {
				return err
			}
			so.Pool, so.Kernels = rp.pool, rp.kernels
			var res *search.Result
			rp.probe("search.run", j.id, 1, func() {
				res, err = search.Run(context.Background(), c, so, rp.cache, nil)
			})
			if err != nil {
				return err
			}
			rp.probeProposals += res.Proposals
		}
	}
	return nil
}
