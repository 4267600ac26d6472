package collision

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
// unbounded.
type KernelCache struct {
	mu      sync.Mutex
	entries map[kernelKey]*kernelEntry
	limit   int64
	bytes   int64
	tick    uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
}

// kernelKey is everything that determines a compiled kernel's content:
// the canonical topology and the collision constants.
type kernelKey struct {
	topo   string
	params Params
}

type kernelEntry struct {
	once sync.Once
	kern *Kernel
	// size is the kernel's footprint in bytes, recorded under the cache
	// lock after compilation; 0 while compilation is in flight.
	size int64
	// used is the recency stamp, under the cache lock.
	used uint64
}

// NewKernelCache returns an empty, unbounded cache.
func NewKernelCache() *KernelCache {
	return &KernelCache{entries: map[kernelKey]*kernelEntry{}}
}

// SetLimit bounds the cache's kernel bytes; 0 removes the bound. The
// bound is enforced immediately and after every subsequent compilation.
func (c *KernelCache) SetLimit(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = bytes
	c.evictLocked(nil)
}

// Limit returns the configured byte bound (0 = unbounded).
func (c *KernelCache) Limit() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

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
	k := kernelKey{topo: topo, params: p}
	c.mu.Lock()
	c.tick++
	e, ok := c.entries[k]
	if !ok {
		e = &kernelEntry{}
		c.entries[k] = e
	}
	e.used = c.tick
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	compiled := false
	e.once.Do(func() {
		e.kern = NewKernel(adj, p)
		compiled = true
	})
	if compiled {
		c.mu.Lock()
		// The entry may already have been evicted by a racing SetLimit;
		// only account for it while it is still resident.
		if c.entries[k] == e {
			e.size = e.kern.Bytes()
			c.bytes += e.size
			c.evictLocked(e)
		}
		c.mu.Unlock()
	}
	return e.kern
}

// evictLocked drops compiled kernels, least recently used first, until
// the footprint fits the limit. keep, when non-nil, is never dropped —
// evicting the kernel that was just requested would thrash. In-flight
// compilations (size 0) are skipped; they account for themselves on
// completion. Callers hold c.mu.
func (c *KernelCache) evictLocked(keep *kernelEntry) {
	if c.limit <= 0 {
		return
	}
	for c.bytes > c.limit {
		var victimKey kernelKey
		var victim *kernelEntry
		for k, e := range c.entries {
			if e == keep || e.size == 0 {
				continue
			}
			if victim == nil || e.used < victim.used {
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			return // nothing evictable (only keep and in-flight entries)
		}
		c.bytes -= victim.size
		delete(c.entries, victimKey)
		c.evicted.Add(1)
	}
}

// Stats reports how many keyed Kernel calls were served from memory
// (hits) and how many compiled a fresh kernel (misses). Unkeyed calls
// move neither counter.
func (c *KernelCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many kernels the byte bound has dropped.
func (c *KernelCache) Evictions() uint64 { return c.evicted.Load() }

// Bytes returns the data footprint of the compiled kernels currently
// held (in-flight compilations join the count when they finish).
func (c *KernelCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of distinct kernels held.
func (c *KernelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every cached kernel (the statistics are kept).
func (c *KernelCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[kernelKey]*kernelEntry{}
	c.bytes = 0
}
