// Package memo is the engine's one memoising cache: a single-flight,
// byte-bounded, least-recently-used map for values that are pure
// functions of their key. Because a value can always be rebuilt
// bit-identically from its key, eviction only ever costs time, never
// changes a result. yield.NoiseCache and collision.KernelCache are thin
// keyed wrappers over it.
package memo

import (
	"sync"
	"sync/atomic"
)

// Cache memoises values by key. The zero value is an empty, unbounded
// cache ready for use. A Cache is safe for concurrent use: concurrent
// misses on different keys build in parallel, concurrent misses on the
// same key build once. A Cache must not be copied after first use.
//
// SetLimit bounds the footprint: once the bytes reported by the builds
// exceed the limit, the least recently requested values are dropped.
// The value just requested is never dropped (that would thrash), and
// neither is a build still in flight: it accounts for itself when it
// finishes. Zero limit means unbounded; Purge still drops everything
// eagerly.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	limit   int64
	bytes   int64
	tick    uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
}

type entry[V any] struct {
	once sync.Once
	val  V
	// size is the value's footprint in bytes, recorded under the cache
	// lock after the build; 0 while the build is in flight.
	size int64
	// used is the recency stamp, under the cache lock.
	used uint64
}

// Get returns the value for k, calling build on first use and serving
// the memoised value afterwards. build returns the value and its
// footprint in bytes; it runs outside the cache lock, at most once per
// resident key. Eviction only drops the cache's reference: a value
// handed out earlier stays valid for as long as its holders keep it.
func (c *Cache[K, V]) Get(k K, build func() (V, int64)) V {
	c.mu.Lock()
	c.tick++
	e, ok := c.entries[k]
	if !ok {
		e = &entry[V]{}
		if c.entries == nil {
			c.entries = map[K]*entry[V]{}
		}
		c.entries[k] = e
	}
	e.used = c.tick
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	built := false
	var size int64
	e.once.Do(func() {
		e.val, size = build()
		built = true
	})
	if built {
		c.mu.Lock()
		// The entry may already have been dropped by a racing SetLimit or
		// Purge; only account for it while it is still resident.
		if c.entries[k] == e {
			e.size = size
			c.bytes += size
			c.evictLocked(e)
		}
		c.mu.Unlock()
	}
	return e.val
}

// SetLimit bounds the cache's bytes; 0 removes the bound. The bound is
// enforced immediately and after every subsequent build.
func (c *Cache[K, V]) SetLimit(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = bytes
	c.evictLocked(nil)
}

// evictLocked drops built values, least recently requested first, until
// the footprint fits the limit. keep, when non-nil, is never dropped,
// and in-flight builds (size 0) are skipped. Callers hold c.mu.
func (c *Cache[K, V]) evictLocked(keep *entry[V]) {
	if c.limit <= 0 {
		return
	}
	for c.bytes > c.limit {
		var victimKey K
		var victim *entry[V]
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

// Snapshot is a point-in-time view of a cache's counters and footprint.
type Snapshot struct {
	// Hits and Misses count Get calls served from memory and builds;
	// Evictions counts values the byte bound has dropped.
	Hits, Misses, Evictions uint64
	// Entries and Bytes are the resident keys and the footprint of their
	// built values (an in-flight build joins the count when it
	// finishes); Limit is the byte bound (0 = unbounded).
	Entries      int
	Bytes, Limit int64
}

// Snapshot returns the cache's counters and footprint.
func (c *Cache[K, V]) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evicted.Load(),
		Entries: len(c.entries), Bytes: c.bytes, Limit: c.limit,
	}
}

// Stats reports how many Get calls were served from memory (hits) and
// how many built a fresh value (misses).
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Purge drops every cached value (the statistics are kept).
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = nil
	c.bytes = 0
}
