package yield

import "qproc/internal/memo"

// NoiseCache memoises the Gaussian noise matrices GenNoise draws, keyed
// by everything that determines their content: seed, trial count, σ and
// qubit count. Because GenNoise is a pure function of that key, a cached
// matrix is bit-identical to a freshly generated one — sharing a cache
// across the designs of a series implements the paper's common-random-
// numbers discipline (every candidate is scored under the same simulated
// fabrications) while skipping the dominant allocation of Estimate.
//
// A NoiseCache is safe for concurrent use; concurrent misses on
// different keys generate in parallel, concurrent misses on the same key
// generate once.
//
// Each matrix costs Trials × n × 8 bytes (~2 MB at the paper's 10 000
// trials and 25 qubits), so a long multi-σ sweep holds one matrix per
// distinct (σ, qubit count) pair. SetLimit bounds the footprint: when
// the generated bytes exceed the limit, the least-recently-used matrices
// are dropped (regeneration on a later request is pure, so eviction can
// never change an estimate — it only costs time). Zero limit means
// unbounded; Purge still drops everything eagerly. Stats counts Noise
// calls served from memory (hits) and generations (misses).
type NoiseCache struct {
	memo.Cache[noiseKey, *NoiseMatrix]
}

type noiseKey struct {
	seed   int64
	trials int
	sigma  float64
	n      int
}

// NewNoiseCache returns an empty, unbounded cache.
func NewNoiseCache() *NoiseCache { return &NoiseCache{} }

// Noise returns the matrix s.GenNoise(n) would return, generating it on
// first use and serving the memoised copy afterwards. The matrix is
// immutable and already in the kernel's column-major layout, so every
// consumer — one-shot batch estimates, trial states — shares it without
// copying or re-transposing. Eviction only drops the cache's reference;
// a matrix handed out earlier stays valid (and bit-identical) for as
// long as its holders keep it.
func (c *NoiseCache) Noise(s *Simulator, n int) *NoiseMatrix {
	k := noiseKey{seed: s.Seed, trials: s.Trials, sigma: s.Sigma, n: n}
	return c.Get(k, func() (*NoiseMatrix, int64) {
		return s.GenNoise(n), int64(s.Trials) * int64(n) * 8
	})
}
