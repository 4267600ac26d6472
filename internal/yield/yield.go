// Package yield estimates the fabrication yield rate of a processor design
// by Monte-Carlo simulation of IBM's yield model (Section 4.3.1): each
// simulated fabrication adds Gaussian noise N(0, σ) to every qubit's
// pre-fabrication frequency and succeeds iff no frequency-collision
// condition of Figure 3 occurs anywhere on the chip. The yield rate is the
// fraction of successful fabrications.
//
// All simulators are deterministic for a given seed; candidate comparisons
// (frequency allocation) use common random numbers so that the winning
// candidate is stable and the comparison is low-variance.
package yield

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"qproc/internal/arch"
	"qproc/internal/collision"
	"qproc/internal/workpool"
)

// DefaultSigma is the fabrication precision parameter σ in GHz: 30 MHz,
// the paper's "realistic extrapolation of progress in hardware by IBM".
const DefaultSigma = 0.030

// DefaultTrials is the paper's Monte-Carlo trial count per architecture
// (10× IBM's own experiments, §5.1).
const DefaultTrials = 10000

// Simulator runs yield Monte-Carlo with fixed parameters.
type Simulator struct {
	// Sigma is the Gaussian frequency-noise standard deviation, GHz.
	Sigma float64
	// Trials is the number of simulated fabrications.
	Trials int
	// Seed makes the simulation reproducible.
	Seed int64
	// Params are the collision-model constants.
	Params collision.Params
	// Parallel enables evaluation of trials across CPUs. The estimate is
	// identical either way; parallelism only changes wall-clock time.
	// Batches below ParallelThreshold rows always run inline — see
	// EstimateWithNoise.
	Parallel bool
	// Workers bounds the trial-level fan-out when Parallel is on;
	// 0 means GOMAXPROCS. Values above the trial count are clamped — the
	// excess workers would have no rows to chunk.
	Workers int
	// Pool, when non-nil, routes the trial-level fan-out through a shared
	// bounded helper pool instead of a private per-call one, so several
	// simulators running concurrently (a qserve process executing
	// multiple jobs) stay within one global core budget instead of
	// multiplying their worker counts. Estimates are bit-identical with
	// and without a pool.
	Pool *workpool.Pool
	// Cache, when non-nil, memoises noise matrices across estimates so
	// that every design with the same qubit count is scored under the
	// same simulated fabrications without regenerating them. Estimates
	// are bit-identical with and without a cache.
	Cache *NoiseCache
	// Kernels, when non-nil, memoises compiled collision kernels across
	// estimates keyed by canonical topology (collision.TopoKey), so
	// keyed estimates of a previously seen coupling graph skip
	// collision.NewKernel entirely. Compilation is pure, so estimates
	// are bit-identical with and without the cache; unkeyed calls
	// (the topology-less entry points) always compile fresh.
	Kernels *collision.KernelCache
	// Ctx, when non-nil, is a cooperative cancellation signal: once it is
	// cancelled, trial-chunk dispatch stops — in-flight chunks finish,
	// remaining chunks are skipped — so a long estimate returns within
	// one chunk of the cancel. The partial result is garbage by design;
	// callers that cancel must check Ctx.Err() and discard it. A nil or
	// live Ctx leaves every estimate bit-identical to an uncancelled run.
	Ctx context.Context

	// memo holds the most recently drawn noise matrix of a cache-less
	// simulator, keyed by the generation parameters — see noise.
	memo atomic.Pointer[noiseMemo]
}

// noiseMemo is the single-entry noise store of a cache-less simulator:
// the matrix last drawn and the parameters it was drawn under.
type noiseMemo struct {
	key noiseKey
	mat *NoiseMatrix
}

// New returns a Simulator with the paper's evaluation configuration:
// σ = 30 MHz, 10 000 trials, default collision constants.
func New(seed int64) *Simulator {
	return &Simulator{
		Sigma:    DefaultSigma,
		Trials:   DefaultTrials,
		Seed:     seed,
		Params:   collision.DefaultParams(),
		Parallel: true,
	}
}

// Estimate returns the simulated yield rate of the architecture. It
// panics if the architecture has no frequency assignment: estimating the
// yield of an unfrequencied design is a flow-ordering bug.
func (s *Simulator) Estimate(a *arch.Architecture) float64 {
	if a.Freqs == nil {
		panic(fmt.Sprintf("yield: architecture %q has no frequency assignment", a.Name))
	}
	return s.EstimateFreqs(a.AdjList(), a.Freqs)
}

// EstimateFreqs returns the simulated yield rate of the frequency
// assignment freqs over the coupling graph adj.
func (s *Simulator) EstimateFreqs(adj [][]int, freqs []float64) float64 {
	return s.EstimateFreqsKeyed("", adj, freqs)
}

// EstimateFreqsKeyed is EstimateFreqs with the caller vouching for the
// coupling graph's canonical identity: topoKey must be
// collision.TopoKey(adj) (or ""), so a Kernels cache can serve the
// compiled kernel of a previously seen topology instead of recompiling
// it. The estimate itself is bit-identical to the unkeyed call.
func (s *Simulator) EstimateFreqsKeyed(topoKey string, adj [][]int, freqs []float64) float64 {
	return s.estimateWithNoiseKeyed(topoKey, adj, freqs, s.noise(len(freqs)))
}

// kernel resolves the compiled kernel for adj: served from the attached
// Kernels cache when one is attached and the call is keyed, compiled
// fresh otherwise.
func (s *Simulator) kernel(topoKey string, adj [][]int) *collision.Kernel {
	if s.Kernels != nil && topoKey != "" {
		return s.Kernels.Kernel(topoKey, adj, s.Params)
	}
	return collision.NewKernel(adj, s.Params)
}

// noise returns the trial matrix for n qubits, consulting the cache when
// one is attached. Without a cache it keeps the most recently drawn
// matrix and reuses it while (Seed, Trials, Sigma, n) are unchanged: the
// matrix is a pure function of those parameters, so repeated estimates —
// and common-random-number comparisons of candidate assignments — skip
// the dominant regeneration cost and stay bit-identical. Attach a
// NoiseCache to share matrices across simulators or qubit counts; the
// memo holds exactly one matrix per simulator.
func (s *Simulator) noise(n int) *NoiseMatrix {
	if s.Cache != nil {
		return s.Cache.Noise(s, n)
	}
	key := noiseKey{seed: s.Seed, trials: s.Trials, sigma: s.Sigma, n: n}
	if m := s.memo.Load(); m != nil && m.key == key {
		return m.mat
	}
	mat := s.GenNoise(n)
	s.memo.Store(&noiseMemo{key: key, mat: mat})
	return mat
}

// GenNoise draws the per-trial, per-qubit frequency noise matrix
// (Trials × n, stored column-major) from the simulator's seed. The draw
// order is trial-major — trial t's qubits before trial t+1's — so the
// values are bit-identical to the historical row-major generator; only
// the memory layout changed. Reusing one noise matrix across several
// candidate frequency assignments implements common random numbers.
func (s *Simulator) GenNoise(n int) *NoiseMatrix {
	rng := rand.New(rand.NewSource(s.Seed))
	m := newNoiseMatrix(s.Trials, n)
	for t := 0; t < s.Trials; t++ {
		for q := 0; q < n; q++ {
			m.cols[q][t] = rng.NormFloat64() * s.Sigma
		}
	}
	return m
}

// ParallelThreshold is the trial count below which EstimateWithNoise
// ignores Parallel and runs inline: fewer rows than this finish faster
// than the fan-out's coordination costs. The threshold is part of the
// documented contract — callers timing small batches should not expect
// Parallel to change anything below it.
const ParallelThreshold = 256

// EstimateWithNoise returns the yield of freqs over adj under the given
// pre-drawn noise matrix. The gate orientation is compiled once from the
// design frequencies — the direction of every cross-resonance gate is a
// design-time choice and does not move with fabrication noise. A matrix
// with fewer qubit columns than freqs is a programming error and panics
// via index.
//
// Zero-trials contract: a nil or zero-trial matrix simulates no
// fabrications, and the yield of an empty sample is defined as 0 — not
// NaN, not a panic. The contract is pinned by TestEstimateWithNoiseTrialEdges
// so the batch path can never diverge from the reference loop on the
// edge case.
//
// The estimate runs the batch collision kernel: an edge-major sweep of
// compiled bundles over the column-major noise (collision.Kernel.
// CountSurvivors) with bit-packed survivor masks and per-chunk early-out.
// Verdicts are bit-identical to the retained scalar reference loop
// (ReferenceEstimate); the differential suite enforces equality across
// topology families, serially and in parallel.
//
// Parallelism: batches of at least ParallelThreshold trials are split
// into word-aligned chunks — one per effective worker (Workers clamped
// to the trial count, so surplus workers are never spawned idle) — and
// fanned out through the shared Pool when one is attached, otherwise
// through a private per-call pool. Chunk survivor counts land by index
// and are summed in fixed order; integer sums are order-independent, so
// the estimate is bit-identical to the serial sweep.
func (s *Simulator) EstimateWithNoise(adj [][]int, freqs []float64, noise *NoiseMatrix) float64 {
	return s.estimateWithNoiseKeyed("", adj, freqs, noise)
}

// estimateWithNoiseKeyed is EstimateWithNoise with the kernel resolved
// through the optional kernel cache under the caller's canonical
// topology key.
func (s *Simulator) estimateWithNoiseKeyed(topoKey string, adj [][]int, freqs []float64, noise *NoiseMatrix) float64 {
	trials := noise.Trials()
	if trials == 0 {
		return 0
	}
	kern := s.kernel(topoKey, adj)
	cols := noise.Cols()
	total := 0
	for _, c := range s.overTrialChunks(trials, func(lo, hi int) int {
		return kern.CountSurvivors(freqs, cols, lo, hi)
	}) {
		total += c
	}
	return float64(total) / float64(trials)
}

// ReferenceEstimate is the retained scalar reference loop, exactly the
// shape of the paper's §4.3.1 description: per trial, add the noise row to
// the design frequencies and ask the literal per-condition check
// (collision.Params.Collides) whether any collision condition triggers.
// It is deliberately unoptimised (always serial, gathers each row from
// the column-major matrix) and exists as the differential-test oracle
// every fast path must match bit for bit.
func (s *Simulator) ReferenceEstimate(adj [][]int, freqs []float64, noise *NoiseMatrix) float64 {
	trials := noise.Trials()
	if trials == 0 {
		return 0
	}
	n := len(freqs)
	post := make([]float64, n)
	row := make([]float64, n)
	ok := 0
	for t := 0; t < trials; t++ {
		row = noise.RowInto(row, t)
		for q := 0; q < n; q++ {
			post[q] = freqs[q] + row[q]
		}
		if !s.Params.Collides(adj, freqs, post) {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}

// effectiveWorkers resolves the trial-level fan-out width for a batch of
// rows trials: Workers (GOMAXPROCS when unset) clamped to rows.
func (s *Simulator) effectiveWorkers(rows int) int {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forChunks dispatches n chunk bodies through the shared pool, or
// through a private pool of n helpers, one per chunk, when none is
// attached (n is already bounded by the effective worker count). A
// panicking chunk reaches the caller as a *workpool.PanicError. A
// cancelled Ctx stops dispatch; chunks already running finish, so the
// caller observes cancellation within one chunk.
func (s *Simulator) forChunks(n int, fn func(int)) {
	pool := s.Pool
	if pool == nil {
		pool = workpool.New(n)
	}
	// The error is deliberately dropped: cancellation is observed by the
	// caller through Ctx.Err(), and partial chunk results are discarded
	// at that level.
	_ = pool.ForEachCtx(s.Ctx, n, fn)
}
