package yield

import (
	"fmt"
	"math/bits"

	"qproc/internal/collision"
)

// TrialState is the trial-survivor cache of one Monte-Carlo estimate: for
// a fixed (coupling graph, design frequencies, noise matrix) triple it
// remembers, per simulated fabrication, which edge bundles of the
// collision kernel fail — so when a search move perturbs a few qubits'
// design frequencies, ReEstimate re-checks only the bundles within reach
// of the moved qubits across all trials and updates the survivor count
// exactly. The result is the same bit-identical yield a from-scratch
// EstimateWithNoise would return for the new assignment, at a fraction
// of the condition evaluations (the fraction is the moved qubits'
// dependency footprint over the whole chip, typically 5-10× fewer on the
// paper's lattices).
//
// The bookkeeping is a per-edge bitset over trials (fail[e] bit t set =
// bundle e fails in fabrication t) plus a per-trial failing-bundle count;
// a trial survives iff its count is zero. Bundle verdicts are recomputed
// by the same compiled kernel the one-shot estimate sweeps, with the same
// arithmetic, so incremental and full estimation agree to the last bit
// (enforced by TestReEstimateMatchesFull*).
type TrialState struct {
	kern   *collision.Kernel
	freqs  []float64
	trials int
	// cols are the noise matrix's column-major slices (cols[q][t] =
	// trial t's noise on qubit q), shared with the NoiseMatrix (and, when
	// one is attached, the cache) rather than copied: the incremental
	// update walks one edge across all trials, so the trial axis must be
	// the contiguous one — which is the matrix's native layout.
	cols [][]float64
	// words is the bitset stride: fail[e*words : (e+1)*words] covers all
	// trials of edge e, 64 per word.
	words int
	fail  []uint64
	// failing[t] counts the edge bundles that fail in trial t; ok counts
	// the trials with failing[t] == 0.
	failing []int32
	ok      int
	// checked counts bundle-trial evaluations performed; skipped counts
	// the evaluations a from-scratch loop would have performed that
	// incremental re-estimation avoided.
	checked, skipped uint64
}

// NewTrialState runs one full Monte-Carlo pass for freqs over adj —
// drawing (or reusing, when a cache is attached) the simulator's noise
// matrix — and caches every trial's per-bundle verdicts for later
// incremental re-estimation. The initial Yield equals EstimateFreqs on
// the same inputs bit for bit.
func (s *Simulator) NewTrialState(adj [][]int, freqs []float64) *TrialState {
	return s.NewTrialStateKeyed("", adj, freqs)
}

// NewTrialStateKeyed is NewTrialState with the caller vouching for the
// coupling graph's canonical identity: topoKey must be
// collision.TopoKey(adj) (or ""), so an attached kernel cache can serve
// the compiled kernel of a previously seen topology instead of
// recompiling it. Kernels are stateless per call, so trial states of
// concurrent estimators may share one; the state itself is bit-identical
// to the unkeyed call's.
func (s *Simulator) NewTrialStateKeyed(topoKey string, adj [][]int, freqs []float64) *TrialState {
	noise := s.noise(len(freqs))
	st := &TrialState{
		kern:   s.kernel(topoKey, adj),
		freqs:  append([]float64(nil), freqs...),
		trials: noise.Trials(),
		words:  (noise.Trials() + 63) / 64,
	}
	// The noise matrix is already column-major (structure of arrays), so
	// the state shares its columns directly — no per-instantiation
	// transpose. Sharing is safe: matrices are immutable, and cache
	// eviction only drops the cache's own reference.
	st.cols = noise.Cols()
	st.fail = make([]uint64, st.kern.NumEdges()*st.words)
	st.failing = make([]int32, st.trials)
	edges := make([]int32, st.kern.NumEdges())
	for e := range edges {
		edges[e] = int32(e)
	}
	// The all-clear start state means "every trial survives"; evalEdges
	// returns the net survivor change per chunk, so the build is the same
	// delta accounting as a re-estimate from that baseline.
	st.ok = st.trials
	for _, d := range s.overTrialChunks(st.trials, func(lo, hi int) int {
		return st.evalEdges(edges, lo, hi)
	}) {
		st.ok += d
	}
	st.checked += uint64(len(edges)) * uint64(st.trials)
	return st
}

// Trials returns the number of simulated fabrications cached.
func (st *TrialState) Trials() int { return st.trials }

// Freqs returns a copy of the design assignment the state currently
// reflects.
func (st *TrialState) Freqs() []float64 { return append([]float64(nil), st.freqs...) }

// Yield returns the survivor fraction of the current assignment.
func (st *TrialState) Yield() float64 {
	if st.trials == 0 {
		return 0
	}
	return float64(st.ok) / float64(st.trials)
}

// Stats reports the bundle-trial evaluations performed and the ones
// incremental re-estimation skipped relative to from-scratch loops.
func (st *TrialState) Stats() (checked, skipped uint64) { return st.checked, st.skipped }

// Bytes returns the approximate memory footprint of the cached state:
// the (shared) noise columns, the verdict bitsets and the per-trial
// counts.
func (st *TrialState) Bytes() int64 {
	return int64(len(st.freqs))*int64(st.trials)*8 +
		int64(len(st.fail))*8 + int64(len(st.failing))*4
}

// ReEstimate moves the state to the new design assignment and returns
// its yield, re-checking only the edge bundles whose verdict can depend
// on a moved qubit. moved lists the qubit indices whose frequency
// changed; nil derives the set by comparing newFreqs against the current
// assignment. newFreqs is the complete new assignment and must differ
// from the current one only at the moved qubits when moved is given
// explicitly. The returned yield — and every later query — is
// bit-identical to a from-scratch estimate of newFreqs under the same
// noise matrix.
func (s *Simulator) ReEstimate(st *TrialState, moved []int, newFreqs []float64) float64 {
	if len(newFreqs) != len(st.freqs) {
		panic(fmt.Sprintf("yield: ReEstimate with %d frequencies for a %d-qubit state",
			len(newFreqs), len(st.freqs)))
	}
	if moved == nil {
		for q := range newFreqs {
			if newFreqs[q] != st.freqs[q] {
				moved = append(moved, q)
			}
		}
	}
	if len(moved) == 0 {
		return st.Yield()
	}
	// Mark the dependency footprint, then collect it in ascending edge
	// order so chunked updates walk memory forward.
	marked := make([]bool, st.kern.NumEdges())
	for _, q := range moved {
		st.freqs[q] = newFreqs[q]
		for _, e := range st.kern.Deps(q) {
			marked[e] = true
		}
	}
	var edges []int32
	for e, m := range marked {
		if m {
			edges = append(edges, int32(e))
		}
	}
	deltas := s.overTrialChunks(st.trials, func(lo, hi int) int {
		return st.evalEdges(edges, lo, hi)
	})
	for _, d := range deltas {
		st.ok += d
	}
	st.checked += uint64(len(edges)) * uint64(st.trials)
	st.skipped += uint64(st.kern.NumEdges()-len(edges)) * uint64(st.trials)
	return st.Yield()
}

// evalEdges re-evaluates the given edges over trials [lo, hi) against the
// current assignment, updating the fail bits and per-trial counts, and
// returns the net change in surviving trials (the initial build starts
// from all-clear bits, so the "change" is the survivor count itself).
// lo is always a multiple of 64 (overTrialChunks aligns chunks on word
// boundaries), so the kernel's packed verdict words line up with the
// stored bitset and the merge is a word-wise XOR: unchanged words —
// the overwhelmingly common case for a local move — cost one compare,
// and only flipped trials pay for count bookkeeping.
func (st *TrialState) evalEdges(edges []int32, lo, hi int) int {
	words := (hi - lo + 63) / 64
	scratch := make([]uint64, words)
	w0 := lo >> 6
	delta := 0
	for _, e := range edges {
		st.kern.EdgeFailsBits(int(e), st.freqs, st.cols, lo, hi, scratch)
		row := st.fail[int(e)*st.words : (int(e)+1)*st.words]
		for j, nw := range scratch {
			old := row[w0+j]
			flips := old ^ nw
			if flips == 0 {
				continue
			}
			row[w0+j] = nw
			base := lo + j*64
			for flips != 0 {
				b := bits.TrailingZeros64(flips)
				flips &= flips - 1
				t := base + b
				if nw&(1<<uint(b)) != 0 {
					if st.failing[t]++; st.failing[t] == 1 {
						delta--
					}
				} else {
					if st.failing[t]--; st.failing[t] == 0 {
						delta++
					}
				}
			}
		}
	}
	return delta
}

// overTrialChunks splits [0, trials) into word-aligned chunks — one per
// effective worker — and runs fn on each, returning the per-chunk results
// in chunk order (a single inline call on the serial/small-batch path).
// The word alignment keeps chunks from sharing bitset words or failing[]
// slots, so parallel and serial runs write the same state; the returned
// survivor deltas are integers, and summing integers is
// order-independent, keeping parallel == serial exact.
func (s *Simulator) overTrialChunks(trials int, fn func(lo, hi int) int) []int {
	if trials == 0 {
		return nil
	}
	if !s.Parallel || trials < ParallelThreshold {
		return []int{fn(0, trials)}
	}
	workers := s.effectiveWorkers(trials)
	words := (trials + 63) / 64
	wordsPerChunk := (words + workers - 1) / workers
	chunkTrials := wordsPerChunk * 64
	chunks := (trials + chunkTrials - 1) / chunkTrials
	out := make([]int, chunks)
	s.forChunks(chunks, func(w int) {
		lo := w * chunkTrials
		hi := lo + chunkTrials
		if hi > trials {
			hi = trials
		}
		out[w] = fn(lo, hi)
	})
	return out
}
