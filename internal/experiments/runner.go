// Package experiments regenerates every figure and headline table of the
// paper's evaluation (Section 5): the Figure 10 yield-vs-performance
// sweeps over all twelve benchmarks and five configurations, the Figure 5
// coupling-pattern matrices, the Figure 9 baselines, and the §5.3/§5.4
// summary statistics (overall Pareto gains and per-subroutine breakdowns).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"qproc/internal/arch"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/gen"
	"qproc/internal/mapper"
	"qproc/internal/memo"
	"qproc/internal/search"
	"qproc/internal/workpool"
	"qproc/internal/yield"
)

// Options sets the fidelity/runtime trade-off of an experiment run.
type Options struct {
	// Seed drives every stochastic component.
	Seed int64
	// YieldTrials is the Monte-Carlo budget per reported yield
	// (paper: 10 000).
	YieldTrials int
	// FreqLocalTrials is the flow's core.Flow.FreqLocalTrials. It
	// changes no design, since Algorithm 3 scores analytically, but it
	// enters every JobKey fingerprint.
	FreqLocalTrials int
	// RandomBusSamples is the number of random draws per bus count for
	// the eff-rd-bus configuration.
	RandomBusSamples int
	// MaxBuses caps the series length; < 0 means no cap.
	MaxBuses int
	// Mapper holds the SABRE parameters.
	Mapper mapper.Options
	// Parallel enables every level of fan-out: (benchmark, aux) groups,
	// series generation and design mapping inside Sweep (which RunAll and
	// RunBenchmark run), search proposals, and trials inside the yield
	// simulator. Results are bit-identical with Parallel off; only
	// wall-clock time changes.
	Parallel bool
	// Workers sizes the runner's shared helper pool; 0 means GOMAXPROCS.
	// Every fan-out level — benchmarks, designs, search proposals,
	// Monte-Carlo trial chunks — draws helpers from this one budget (the
	// calling goroutine of each level always participates in its own
	// work), so nested levels and concurrent jobs on one runner cannot
	// multiply into oversubscription.
	Workers int
	// NoiseCacheBytes bounds each running job's noise cache's matrix
	// bytes with least-recently-used eviction; 0 means unbounded.
	// Eviction can only cost regeneration time, never change a result.
	NoiseCacheBytes int64 `json:"noise_cache_bytes,omitempty"`
	// KernelCacheBytes bounds the shared compiled-kernel cache the same
	// way; 0 means unbounded. The cache maps canonical topology keys to
	// compiled collision kernels, so concurrent portfolio lanes (and
	// successive jobs revisiting a topology) skip recompilation.
	KernelCacheBytes int64 `json:"kernel_cache_bytes,omitempty"`
	// CheckpointEvery, when positive and a run store is attached, saves
	// a resumable checkpoint every N anneal steps / beam depths on
	// single-lane search jobs (portfolio jobs checkpoint at every
	// exchange barrier regardless). Zero disables checkpointing. Pure
	// executor scheduling — a checkpointed or resumed run's results are
	// bit-identical — so it participates in neither job fingerprints nor
	// serialised outcomes.
	CheckpointEvery int `json:"-"`
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultOptions reproduces the paper's evaluation configuration.
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		YieldTrials:      yield.DefaultTrials,
		FreqLocalTrials:  2000,
		RandomBusSamples: 3,
		MaxBuses:         -1,
		Mapper:           mapper.DefaultOptions(),
		Parallel:         true,
	}
}

// QuickOptions is a reduced-budget configuration for tests and smoke
// runs: same code paths, smaller Monte-Carlo budgets.
func QuickOptions() Options {
	o := DefaultOptions()
	o.YieldTrials = 2000
	o.FreqLocalTrials = 300
	o.RandomBusSamples = 1
	return o
}

// Point is one data point of Figure 10: one architecture evaluated for
// one benchmark.
type Point struct {
	Benchmark   string      `json:"benchmark"`
	Config      core.Config `json:"config"`
	Label       string      `json:"label"`       // "(1)".."(4)" for baselines, "k=N" for series
	Qubits      int         `json:"qubits"`      // physical qubits of the architecture
	Connections int         `json:"connections"` // coupled pairs
	Buses       int         `json:"buses"`       // multi-qubit buses
	GateCount   int         `json:"gate_count"`  // post-mapping total gate count
	Swaps       int         `json:"swaps"`       // SWAPs the mapper inserted
	Yield       float64     `json:"yield"`
	// NormPerf is the paper's X axis: gate count of the ibm (1) baseline
	// divided by this design's gate count (normalised reciprocal).
	NormPerf float64 `json:"norm_perf"`
}

// BenchmarkResult carries every point of one Figure 10 subplot.
type BenchmarkResult struct {
	Name   string
	Qubits int
	Points []Point
}

// ByConfig returns the points of one configuration, in series order.
func (r *BenchmarkResult) ByConfig(cfg core.Config) []Point {
	var out []Point
	for _, p := range r.Points {
		if p.Config == cfg {
			out = append(out, p)
		}
	}
	return out
}

// Runner executes the evaluation. Each job — a sweep, a search, a
// portfolio — gets one noise cache of its own, so every design it
// evaluates with the same qubit count (and σ) is simulated under the
// same fabrications — the common-random-numbers discipline — and the
// Trials × n Gaussian matrix is drawn once per qubit count instead of
// once per design. The matrices are dropped when the job ends: noise is
// a pure function of its key, so a later job regenerates the same bits.
// All jobs share the compiled-kernel cache, the SABRE result cache and
// one bounded worker pool: a (program, topology) any job has routed is
// not routed again, and however many jobs run concurrently on the
// runner, helper goroutines stay within the Workers budget. A Runner is
// safe for concurrent use.
type Runner struct {
	opt     Options
	noise   noiseCaches
	kernels *collision.KernelCache
	maps    *mapper.Cache
	lanes   *search.LaneCounters
	pool    *workpool.Pool
}

// NewRunner returns a Runner with the given options.
func NewRunner(opt Options) *Runner {
	kernels := collision.NewKernelCache()
	if opt.KernelCacheBytes > 0 {
		kernels.SetLimit(opt.KernelCacheBytes)
	}
	return &Runner{opt: opt, kernels: kernels, maps: mapper.NewCache(),
		noise: noiseCaches{limit: opt.NoiseCacheBytes, live: map[*yield.NoiseCache]bool{}},
		lanes: &search.LaneCounters{}, pool: workpool.New(opt.workers())}
}

// noiseCaches hands out the per-job noise caches and accounts for them:
// the counters of finished jobs' caches are folded into done, and the
// caches of running jobs stay in live until they end.
type noiseCaches struct {
	limit int64
	mu    sync.Mutex
	live  map[*yield.NoiseCache]bool
	done  memo.Snapshot
}

// open returns a fresh job cache, bounded by the per-job limit.
func (n *noiseCaches) open() *yield.NoiseCache {
	c := yield.NewNoiseCache()
	if n.limit > 0 {
		c.SetLimit(n.limit)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.live[c] = true
	return c
}

// close retires a job cache once its job has ended, keeping its counters.
func (n *noiseCaches) close(c *yield.NoiseCache) {
	s := c.Snapshot()
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.live, c)
	n.done.Hits += s.Hits
	n.done.Misses += s.Misses
	n.done.Evictions += s.Evictions
}

// snapshot sums the counters over every job so far and the footprint
// over the running ones; Limit is the per-job bound.
func (n *noiseCaches) snapshot() memo.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.done
	out.Limit = n.limit
	for c := range n.live {
		s := c.Snapshot()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Evictions += s.Evictions
		out.Entries += s.Entries
		out.Bytes += s.Bytes
	}
	return out
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opt }

// NoiseCacheStats reports the noise caches' hit/miss counters summed
// over every job the runner has run or is running (for reporting and
// tests).
func (r *Runner) NoiseCacheStats() (hits, misses uint64) {
	s := r.noise.snapshot()
	return s.Hits, s.Misses
}

// NoiseCacheSnapshot reports the noise caches for stats endpoints: the
// counters summed over every job, the entries and bytes the running
// jobs hold, and the per-job byte bound.
func (r *Runner) NoiseCacheSnapshot() memo.Snapshot { return r.noise.snapshot() }

// KernelCache exposes the shared compiled-kernel cache for stats
// endpoints (hit/miss/eviction counters, byte accounting). Callers must
// not purge or reconfigure it mid-run.
func (r *Runner) KernelCache() *collision.KernelCache { return r.kernels }

// MapCache exposes the shared SABRE result cache for stats endpoints.
func (r *Runner) MapCache() *mapper.Cache { return r.maps }

// LaneStats reports the runner's portfolio lanes currently advancing
// and the lanes that have finished their budget (cumulative across all
// portfolio jobs this runner served).
func (r *Runner) LaneStats() (live, done int64) { return r.lanes.Snapshot() }

// Pool exposes the shared helper pool for stats endpoints.
func (r *Runner) Pool() *workpool.Pool { return r.pool }

func (r *Runner) flow() *core.Flow {
	f := core.NewFlow(r.opt.Seed)
	f.FreqLocalTrials = r.opt.FreqLocalTrials
	return f
}

// simulator returns a simulator on the runner's settings that draws its
// noise from a job's cache.
func (r *Runner) simulator(cache *yield.NoiseCache) *yield.Simulator {
	s := yield.New(r.opt.Seed + 7919)
	s.Trials = r.opt.YieldTrials
	s.Cache = cache
	s.Kernels = r.kernels
	s.Parallel = r.opt.Parallel
	s.Workers = r.opt.Workers
	s.Pool = r.pool
	return s
}

// estimateArch scores a finished design's architecture with the
// one-shot batch Monte-Carlo estimate, keyed by canonical topology so
// repeated evaluations of the same coupling graph hit the shared
// compiled-kernel cache. It panics if the architecture has no frequency
// assignment: estimating the yield of an unfrequencied design is a
// flow-ordering bug.
func estimateArch(sim *yield.Simulator, a *arch.Architecture) float64 {
	if a.Freqs == nil {
		panic(fmt.Sprintf("experiments: architecture %q has no frequency assignment", a.Name))
	}
	adj := a.AdjList()
	return sim.EstimateFreqsKeyed(collision.TopoKey(adj), adj, a.Freqs)
}

// forEachCtx runs fn(0..n-1) over the runner's shared bounded pool when
// the options ask for parallelism, inline otherwise. Every index runs
// exactly once; fn must write its result by index so that the outcome is
// independent of scheduling. Once ctx is cancelled no further index is
// dispatched, and the caller must treat its result slots as incomplete
// (checking ctx.Err() right after).
func (r *Runner) forEachCtx(ctx context.Context, n int, fn func(int)) {
	pool := r.pool
	if !r.opt.Parallel || r.opt.workers() < 2 {
		pool = nil // a nil pool runs every index inline
	}
	_ = pool.ForEachCtx(ctx, n, fn)
}

// RunBenchmark evaluates all five configurations for the named benchmark
// and returns the Figure 10 subplot data.
func (r *Runner) RunBenchmark(name string) (*BenchmarkResult, error) {
	results, err := r.fig10([]string{name})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunAll evaluates every benchmark of the suite, returning results in
// Figure 10 order.
func (r *Runner) RunAll() ([]*BenchmarkResult, error) { return r.fig10(gen.Names()) }

// fig10 runs the default sweep — all five configurations, aux 0,
// σ = yield.DefaultSigma — over the named benchmarks, the same sweep a
// qserve job runs, and regroups its points into one Figure 10 subplot
// per benchmark, in the order given.
func (r *Runner) fig10(names []string) ([]*BenchmarkResult, error) {
	results := make([]*BenchmarkResult, len(names))
	for i, name := range names {
		b, err := gen.Get(name)
		if err != nil {
			return nil, err
		}
		results[i] = &BenchmarkResult{Name: name, Qubits: b.Qubits}
	}
	sr, err := r.Sweep(context.Background(), SweepSpec{Benchmarks: names}, nil)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		for _, p := range sr.ByCell(SweepCell{Benchmark: res.Name, Sigma: yield.DefaultSigma}) {
			res.Points = append(res.Points, p.Point)
		}
	}
	return results, nil
}

// ParetoFrontier returns the subset of points not dominated in
// (NormPerf, Yield) by any other point in the list, sorted by NormPerf.
// Used to check the paper's optimality claim: eff-full should supply the
// frontier of the union with the baselines.
func ParetoFrontier(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.NormPerf >= p.NormPerf && q.Yield >= p.Yield &&
				(q.NormPerf > p.NormPerf || q.Yield > p.Yield) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NormPerf < out[j].NormPerf })
	return out
}

// yieldFloor bounds yields away from zero for ratio reporting: a zero
// estimate from T trials is reported as if it were half of one success.
func yieldFloor(y float64, trials int) float64 {
	floor := 0.5 / float64(trials)
	if y < floor {
		return floor
	}
	return y
}

// minBaseline returns the architecture of IBM baseline (1), used by the
// figure renderers.
func minBaseline() *arch.Architecture { return arch.NewBaseline(arch.IBM16Q2Bus) }
