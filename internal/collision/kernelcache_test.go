package collision_test

import (
	"math/rand"
	"sync"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/collision"
)

// cacheAdjs returns a few distinct coupling graphs with their canonical
// topology keys.
func cacheAdjs() (adjs [][][]int, keys []string) {
	for _, layout := range []arch.Baseline{arch.IBM16Q2Bus, arch.IBM16Q4Bus, arch.IBM20Q4Bus} {
		adj := arch.NewBaseline(layout).AdjList()
		adjs = append(adjs, adj)
		keys = append(keys, collision.TopoKey(adj))
	}
	return adjs, keys
}

func TestTopoKeyCanonical(t *testing.T) {
	adjs, keys := cacheAdjs()
	for i := range adjs {
		// Same adjacency — whatever produced it — must key identically.
		cp := make([][]int, len(adjs[i]))
		for q, row := range adjs[i] {
			cp[q] = append([]int(nil), row...)
		}
		if got := collision.TopoKey(cp); got != keys[i] {
			t.Errorf("copy of adjacency %d keys %q, want %q", i, got, keys[i])
		}
		for j := i + 1; j < len(adjs); j++ {
			if keys[i] == keys[j] {
				t.Errorf("distinct adjacencies %d and %d share key %q", i, j, keys[i])
			}
		}
	}
	if collision.TopoKey(nil) != collision.TopoKey([][]int{}) {
		t.Error("nil and empty adjacency key differently")
	}
}

// TestKernelCacheSharesCompiles: repeated lookups of the same topology
// return the same compiled kernel pointer and count one miss plus hits.
func TestKernelCacheSharesCompiles(t *testing.T) {
	adjs, keys := cacheAdjs()
	c := collision.NewKernelCache()
	p := collision.DefaultParams()
	first := c.Kernel(keys[0], adjs[0], p)
	if first == nil {
		t.Fatal("nil kernel")
	}
	for i := 0; i < 5; i++ {
		if got := c.Kernel(keys[0], adjs[0], p); got != first {
			t.Fatal("same topology returned a different kernel pointer")
		}
	}
	hits, misses := c.Stats()
	if hits != 5 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 5/1", hits, misses)
	}
	if c.Snapshot().Entries != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Snapshot().Entries)
	}
	// The empty key bypasses the cache entirely: fresh compile, no counters.
	if got := c.Kernel("", adjs[0], p); got == first {
		t.Error("empty topo key served the cached kernel")
	}
	if h, m := c.Stats(); h != hits || m != misses {
		t.Error("empty topo key touched the cache counters")
	}
}

// TestKernelCacheHitBitIdentical is the correctness property of serving
// compiled kernels from cache: a cache-hit kernel produces bit-identical
// CountSurvivors verdicts to a freshly compiled one, across topologies
// and random designs.
func TestKernelCacheHitBitIdentical(t *testing.T) {
	adjs, keys := cacheAdjs()
	c := collision.NewKernelCache()
	p := collision.DefaultParams()
	rng := rand.New(rand.NewSource(42))
	for i, adj := range adjs {
		// Prime, then fetch again: the second fetch is the cache hit.
		c.Kernel(keys[i], adj, p)
		cached := c.Kernel(keys[i], adj, p)
		fresh := collision.NewKernel(adj, p)
		n := len(adj)
		for trial := 0; trial < 20; trial++ {
			design := make([]float64, n)
			cols := make([][]float64, n)
			const trials = 130 // deliberately not a multiple of 64
			for q := range design {
				design[q] = 5.0 + rng.Float64()*0.4
				cols[q] = make([]float64, trials)
				for s := range cols[q] {
					cols[q][s] = rng.NormFloat64() * 0.030
				}
			}
			want := fresh.CountSurvivors(design, cols, 0, trials)
			if got := cached.CountSurvivors(design, cols, 0, trials); got != want {
				t.Fatalf("topology %d trial %d: cached kernel counts %d, fresh %d", i, trial, got, want)
			}
		}
	}
}

// TestKernelCacheConcurrentStress hammers one cache from many goroutines
// (run under -race): every goroutine must observe the same pointer per
// topology, each topology compiles exactly once, and the counters add up.
func TestKernelCacheConcurrentStress(t *testing.T) {
	adjs, keys := cacheAdjs()
	c := collision.NewKernelCache()
	p := collision.DefaultParams()
	const workers = 16
	const rounds = 50
	got := make([][]*collision.Kernel, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		got[w] = make([]*collision.Kernel, len(adjs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range adjs {
					k := c.Kernel(keys[i], adjs[i], p)
					if got[w][i] == nil {
						got[w][i] = k
					} else if got[w][i] != k {
						t.Errorf("worker %d saw two kernels for topology %d", w, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := range adjs {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Errorf("workers disagree on topology %d's kernel", i)
			}
		}
	}
	hits, misses := c.Stats()
	if misses != uint64(len(adjs)) {
		t.Errorf("%d misses, want %d (one compile per topology)", misses, len(adjs))
	}
	if want := uint64(workers*rounds*len(adjs)) - misses; hits != want {
		t.Errorf("%d hits, want %d", hits, want)
	}
}

// TestKernelCacheEviction: a byte bound keeps residency at or below the
// limit and counts evictions; evicted topologies recompile on return.
func TestKernelCacheEviction(t *testing.T) {
	adjs, keys := cacheAdjs()
	c := collision.NewKernelCache()
	p := collision.DefaultParams()
	one := c.Kernel(keys[0], adjs[0], p).Bytes()
	c.Purge()
	// Room for roughly one kernel: visiting all topologies must evict.
	c.SetLimit(one + one/2)
	for round := 0; round < 3; round++ {
		for i := range adjs {
			if c.Kernel(keys[i], adjs[i], p) == nil {
				t.Fatal("nil kernel under eviction")
			}
			if snap := c.Snapshot(); snap.Bytes > snap.Limit && snap.Entries > 1 {
				t.Fatalf("cache holds %d bytes beyond the %d bound", snap.Bytes, snap.Limit)
			}
		}
	}
	if c.Snapshot().Evictions == 0 {
		t.Error("no evictions under a one-kernel byte bound")
	}
}

// BenchmarkKernelCache contrasts a cold lookup (compile) with a warm one
// (cache hit) on the densest baseline topology — the per-evaluation cost
// a portfolio lane pays with and without the shared cache.
func BenchmarkKernelCache(b *testing.B) {
	a := arch.NewBaseline(arch.IBM20Q4Bus)
	adj := a.AdjList()
	key := collision.TopoKey(adj)
	p := collision.DefaultParams()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := collision.NewKernelCache()
			if c.Kernel(key, adj, p) == nil {
				b.Fatal("nil kernel")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := collision.NewKernelCache()
		c.Kernel(key, adj, p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c.Kernel(key, adj, p) == nil {
				b.Fatal("nil kernel")
			}
		}
	})
}
