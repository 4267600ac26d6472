package collision

import (
	"strconv"
	"strings"

	"qproc/internal/memo"
)

// TopoKey returns the canonical identity of a coupling graph: a string
// two adjacency lists share if and only if they are element-for-element
// equal. It is THE topology key of the engine — the kernel cache, the
// yield estimators and the search evaluator all derive their keys from
// it, so no two layers can ever disagree about whether a compiled
// kernel (or a trial-survivor state) applies to a graph. Derived from
// the adjacency list itself rather than from how the graph was built
// (aux variant, bus sites, benchmark), it is also safe to share across
// unrelated jobs: coincidentally equal construction recipes cannot
// collide two different graphs under one key.
func TopoKey(adj [][]int) string {
	size := 8
	for _, nbrs := range adj {
		size += 1 + 3*len(nbrs)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("g")
	b.WriteString(strconv.Itoa(len(adj)))
	for _, nbrs := range adj {
		b.WriteByte('|')
		for _, n := range nbrs {
			b.WriteString(strconv.Itoa(n))
			b.WriteByte(',')
		}
	}
	return b.String()
}

// Bytes returns the compiled kernel's data footprint: every int32 of the
// edge records (endpoints and spectator offsets), the flattened spectator
// table and the per-qubit dependency lists. Used by KernelCache for
// byte-bounded eviction.
func (k *Kernel) Bytes() int64 {
	n := 5*len(k.edges) + len(k.specs)
	for _, d := range k.deps {
		n += len(d)
	}
	return int64(n) * 4
}

// KernelCache memoises compiled collision kernels, keyed by the
// canonical topology key (TopoKey) plus the collision constants the
// kernel was compiled under. NewKernel is a pure function of that key,
// so a cached kernel is identical to a freshly compiled one — and a
// Kernel keeps no per-call state (CountSurvivors / EdgeFailsBits write
// only caller-owned buffers), so one compiled kernel is safely shared
// by any number of concurrent estimators, trial states and search
// lanes. Sharing a cache across lanes and repeated jobs means each
// distinct topology pays compilation once per process instead of once
// per estimator.
//
// A KernelCache is safe for concurrent use; concurrent misses on
// different keys compile in parallel, concurrent misses on the same key
// compile once.
//
// SetLimit bounds the footprint by LRU eviction over Kernel.Bytes.
// Eviction can never change an estimate — a later request recompiles
// the identical kernel — it only costs time. Zero limit means
// unbounded. Stats counts keyed Kernel calls served from memory (hits)
// and compilations (misses); unkeyed calls move neither counter.
type KernelCache struct {
	memo.Cache[kernelKey, *Kernel]
}

// kernelKey is everything that determines a compiled kernel's content:
// the canonical topology and the collision constants.
type kernelKey struct {
	topo   string
	params Params
}

// NewKernelCache returns an empty, unbounded cache.
func NewKernelCache() *KernelCache { return &KernelCache{} }

// Kernel returns NewKernel(adj, p), compiling on first use of the
// (topo, p) key and serving the memoised kernel afterwards. topo must
// be TopoKey(adj) — or any other key with the same guarantee that equal
// keys imply equal adjacency lists. The empty key means "unkeyed": the
// call bypasses the cache entirely (a fresh compile, no counter
// movement), so passing "" is always correct, merely uncached. Eviction
// only drops the cache's reference; a kernel handed out earlier stays
// valid for as long as its holders keep it.
func (c *KernelCache) Kernel(topo string, adj [][]int, p Params) *Kernel {
	if topo == "" {
		return NewKernel(adj, p)
	}
	return c.Get(kernelKey{topo: topo, params: p}, func() (*Kernel, int64) {
		k := NewKernel(adj, p)
		return k, k.Bytes()
	})
}
