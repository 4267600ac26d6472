package yield

import (
	"sync"
	"testing"
	"time"

	"qproc/internal/arch"
)

// TestCacheBitIdentical is the common-random-numbers contract: attaching
// a cache must not change a single bit of any estimate, across qubit
// counts, σ values and trial budgets.
func TestCacheBitIdentical(t *testing.T) {
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	freqs := []float64{5.05, 5.15, 5.25, 5.07}
	for _, sigma := range []float64{0.01, DefaultSigma, 0.06} {
		for _, trials := range []int{100, 1000} {
			plain := New(11)
			plain.Sigma, plain.Trials = sigma, trials
			cached := New(11)
			cached.Sigma, cached.Trials = sigma, trials
			cached.Cache = NewNoiseCache()
			want := plain.EstimateFreqs(adj, freqs)
			for rep := 0; rep < 3; rep++ {
				if got := cached.EstimateFreqs(adj, freqs); got != want {
					t.Fatalf("sigma=%v trials=%d rep %d: cached %v != uncached %v",
						sigma, trials, rep, got, want)
				}
			}
			if hits, misses := cached.Cache.Stats(); misses != 1 || hits != 2 {
				t.Fatalf("sigma=%v trials=%d: stats hits=%d misses=%d, want 2/1",
					sigma, trials, hits, misses)
			}
		}
	}
}

// TestCacheKeyedByParameters checks that changing any key component
// (σ, trials, seed, n) produces a fresh matrix rather than a stale hit.
func TestCacheKeyedByParameters(t *testing.T) {
	cache := NewNoiseCache()
	base := New(3)
	base.Trials = 50
	base.Cache = cache

	m1 := base.noise(4)
	variants := []func(*Simulator){
		func(s *Simulator) { s.Sigma = 0.06 },
		func(s *Simulator) { s.Trials = 60 },
		func(s *Simulator) { s.Seed = 4 },
	}
	for i, mutate := range variants {
		s := New(3)
		s.Trials = 50
		s.Cache = cache
		mutate(s)
		m := s.noise(4)
		if &m.Col(0)[0] == &m1.Col(0)[0] {
			t.Errorf("variant %d shares the base matrix", i)
		}
		if got := s.GenNoise(4); got.At(0, 0) != m.At(0, 0) {
			t.Errorf("variant %d: cached matrix differs from GenNoise", i)
		}
	}
	if cache.Snapshot().Entries != 4 {
		t.Errorf("cache holds %d matrices, want 4", cache.Snapshot().Entries)
	}
	// Different n under the same parameters is also a distinct matrix.
	if m := base.noise(5); m.Qubits() != 5 {
		t.Errorf("n=5 matrix has %d columns", m.Qubits())
	}
}

// TestCacheConcurrent hammers one key from many goroutines: exactly one
// generation, everyone sees the same matrix (run with -race).
func TestCacheConcurrent(t *testing.T) {
	cache := NewNoiseCache()
	s := New(21)
	s.Trials = 500
	s.Cache = cache
	const goroutines = 16
	mats := make([]*NoiseMatrix, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mats[g] = s.noise(8)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &mats[g].Col(0)[0] != &mats[0].Col(0)[0] {
			t.Fatalf("goroutine %d received a different matrix", g)
		}
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

func TestCachePurge(t *testing.T) {
	cache := NewNoiseCache()
	s := New(1)
	s.Trials = 10
	s.Cache = cache
	s.noise(3)
	if cache.Snapshot().Entries != 1 {
		t.Fatalf("len = %d", cache.Snapshot().Entries)
	}
	cache.Purge()
	if cache.Snapshot().Entries != 0 {
		t.Fatalf("len after purge = %d", cache.Snapshot().Entries)
	}
	// Regenerated content is identical (pure function of the key).
	if got, want := s.noise(3).At(0, 0), s.GenNoise(3).At(0, 0); got != want {
		t.Fatalf("regenerated %v != %v", got, want)
	}
}

// TestCacheBytesAccounting checks Bytes tracks the data footprint of the
// generated matrices: Trials × n × 8 per entry, down to zero after Purge.
func TestCacheBytesAccounting(t *testing.T) {
	cache := NewNoiseCache()
	s := New(2)
	s.Trials = 100
	s.Cache = cache
	if cache.Snapshot().Bytes != 0 {
		t.Fatalf("fresh cache reports %d bytes", cache.Snapshot().Bytes)
	}
	s.noise(4)
	if got, want := cache.Snapshot().Bytes, int64(100*4*8); got != want {
		t.Fatalf("one matrix: %d bytes, want %d", got, want)
	}
	s.noise(6)
	if got, want := cache.Snapshot().Bytes, int64(100*4*8+100*6*8); got != want {
		t.Fatalf("two matrices: %d bytes, want %d", got, want)
	}
	s.noise(4) // hit: no growth
	if got, want := cache.Snapshot().Bytes, int64(100*4*8+100*6*8); got != want {
		t.Fatalf("after hit: %d bytes, want %d", got, want)
	}
	cache.Purge()
	if cache.Snapshot().Bytes != 0 {
		t.Fatalf("purged cache reports %d bytes", cache.Snapshot().Bytes)
	}
}

// TestCacheLRUEviction checks the byte bound drops the least recently
// used matrix first, never the one just requested, and that an evicted
// matrix regenerates bit-identically on the next request.
func TestCacheLRUEviction(t *testing.T) {
	cache := NewNoiseCache()
	perMatrix := int64(100 * 4 * 8)
	cache.SetLimit(2 * perMatrix)
	sim := func(seed int64) *Simulator {
		s := New(seed)
		s.Trials = 100
		s.Cache = cache
		return s
	}
	s1, s2, s3 := sim(1), sim(2), sim(3)
	first := s1.noise(4).At(0, 0)
	s2.noise(4)
	s1.noise(4) // refresh seed 1's recency: seed 2 is now LRU
	s3.noise(4) // exceeds the bound: seed 2 must go
	if cache.Snapshot().Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Snapshot().Entries)
	}
	if cache.Snapshot().Bytes > 2*perMatrix {
		t.Fatalf("cache holds %d bytes beyond the %d limit", cache.Snapshot().Bytes, 2*perMatrix)
	}
	if cache.Snapshot().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", cache.Snapshot().Evictions)
	}
	// Seed 1 must have survived (seed 2 was least recently used).
	hits0, _ := cache.Stats()
	if got := s1.noise(4).At(0, 0); got != first {
		t.Fatalf("surviving matrix changed: %v != %v", got, first)
	}
	if hits, _ := cache.Stats(); hits != hits0+1 {
		t.Fatal("seed 1 was evicted instead of the LRU entry")
	}
	// The evicted matrix regenerates identically (pure function).
	if got, want := s2.noise(4).At(0, 0), s2.GenNoise(4).At(0, 0); got != want {
		t.Fatalf("regenerated entry differs: %v != %v", got, want)
	}
}

// TestCacheLimitKeepsEstimatesIdentical is the eviction-safety contract:
// estimates under a tightly bounded cache are bit-identical to an
// unbounded one, whatever the eviction pattern.
func TestCacheLimitKeepsEstimatesIdentical(t *testing.T) {
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	freqs := []float64{5.05, 5.15, 5.25, 5.07}
	run := func(limit int64) []float64 {
		cache := NewNoiseCache()
		cache.SetLimit(limit)
		var out []float64
		for rep := 0; rep < 3; rep++ {
			for _, sigma := range []float64{0.01, 0.03, 0.06} {
				s := New(5)
				s.Trials = 200
				s.Sigma = sigma
				s.Cache = cache
				out = append(out, s.EstimateFreqs(adj, freqs))
			}
		}
		return out
	}
	unbounded := run(0)
	tiny := run(200 * 4 * 8) // one matrix at a time: every σ switch evicts
	for i := range unbounded {
		if unbounded[i] != tiny[i] {
			t.Fatalf("estimate %d: bounded cache %v != unbounded %v", i, tiny[i], unbounded[i])
		}
	}
}

// BenchmarkEstimateUncached / BenchmarkEstimateCached demonstrate the
// allocations noise reuse saves: uncached, every Estimate re-draws the
// Trials × n Gaussian matrix (the seed changes per iteration, so neither
// the cache nor the simulator's single-entry memo can serve it); cached,
// the steady state allocates nothing for noise. Compare with -benchmem.
func BenchmarkEstimateUncached(b *testing.B) {
	a := arch.NewBaseline(arch.IBM20Q4Bus)
	s := New(1)
	s.Trials = 2000
	s.Parallel = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i)
		s.Estimate(a)
	}
}

func BenchmarkEstimateCached(b *testing.B) {
	a := arch.NewBaseline(arch.IBM20Q4Bus)
	s := New(1)
	s.Trials = 2000
	s.Parallel = false
	s.Cache = NewNoiseCache()
	s.Estimate(a) // warm the single entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate(a)
	}
}

// TestCacheConcurrentLimitPurgeRace pins the race the accounting path at
// Noise's post-generation block documents: concurrent Noise calls on
// overlapping keys while SetLimit shrinks/unshrinks the bound and Purge
// drops everything. Run under -race in CI. The invariants: the byte
// accounting never goes negative, an entry evicted (or purged) while its
// generation was in flight is never re-accounted, and every returned
// matrix is bit-identical to a fresh generation.
func TestCacheConcurrentLimitPurgeRace(t *testing.T) {
	c := NewNoiseCache()
	sims := make([]*Simulator, 0, 6)
	for _, sigma := range []float64{0.02, 0.03, 0.04} {
		for _, trials := range []int{64, 128} {
			s := New(7)
			s.Sigma, s.Trials = sigma, trials
			s.Cache = c
			sims = append(sims, s)
		}
	}
	const n = 9 // qubit count; overlapping keys come from shared sims

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers hammer Noise on overlapping keys and verify the bytes.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := sims[(g+i)%len(sims)]
				mat := c.Noise(s, n)
				if mat.Trials() != s.Trials || mat.Qubits() != n {
					t.Errorf("matrix shape %dx%d, want %dx%d", mat.Trials(), mat.Qubits(), s.Trials, n)
					return
				}
				if b := c.Snapshot().Bytes; b < 0 {
					t.Errorf("cache byte accounting went negative: %d", b)
					return
				}
			}
		}(g)
	}
	// One goroutine flaps the limit (evicting under readers), another
	// purges (dropping in-flight entries).
	wg.Add(2)
	go func() {
		defer wg.Done()
		limits := []int64{0, 1 << 10, 1 << 20, 1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				c.SetLimit(0)
				return
			default:
				c.SetLimit(limits[i%len(limits)])
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Purge()
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if b := c.Snapshot().Bytes; b < 0 {
		t.Fatalf("final byte accounting negative: %d", b)
	}
	// After the dust settles, a purge leaves the books at exactly zero —
	// entries whose generation completed after their eviction must not
	// have been re-accounted.
	c.Purge()
	if b := c.Snapshot().Bytes; b != 0 {
		t.Fatalf("bytes after purge: %d, want 0", b)
	}
	if c.Snapshot().Entries != 0 {
		t.Fatalf("entries after purge: %d, want 0", c.Snapshot().Entries)
	}
	// Served matrices stayed bit-identical through all of it.
	for _, s := range sims {
		got := c.Noise(s, n)
		want := s.GenNoise(n)
		for ti := 0; ti < want.Trials(); ti++ {
			for q := 0; q < want.Qubits(); q++ {
				if got.At(ti, q) != want.At(ti, q) {
					t.Fatalf("matrix for σ=%g trials=%d differs at [%d][%d]", s.Sigma, s.Trials, ti, q)
				}
			}
		}
	}
}
