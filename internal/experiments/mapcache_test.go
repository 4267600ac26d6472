package experiments

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"qproc/internal/search"
)

// jsonBytes renders a sweep result or search outcome the way the store
// and qserve serialise it.
func jsonBytes(t *testing.T, v interface{ WriteJSON(io.Writer) error }) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := v.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// mapCacheSweep spans every configuration of one benchmark at aux 0 and
// 1, at one σ.
func mapCacheSweep(sigma float64) SweepSpec {
	return SweepSpec{Benchmarks: []string{"misex1_241"}, AuxCounts: []int{0, 1}, Sigmas: []float64{sigma}}
}

// TestSweepMapCacheAcrossJobs: a sweep's duplicate topologies hit within
// the job, a second sweep of the same benchmark at another σ routes
// nothing, and its bytes equal the same sweep on a fresh runner.
func TestSweepMapCacheAcrossJobs(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(tinyOptions())
	if _, err := r.Sweep(ctx, mapCacheSweep(0.03), nil); err != nil {
		t.Fatal(err)
	}
	first := r.MapCache().Snapshot()
	if first.Misses == 0 || first.Hits == 0 {
		t.Errorf("first sweep: %+v; want misses, and hits on shared topologies", first)
	}
	warm, err := r.Sweep(ctx, mapCacheSweep(0.04), nil)
	if err != nil {
		t.Fatal(err)
	}
	second := r.MapCache().Snapshot()
	if second.Misses != first.Misses {
		t.Errorf("second sweep routed %d designs; want 0", second.Misses-first.Misses)
	}
	if second.Hits-first.Hits != first.Hits+first.Misses {
		t.Errorf("second sweep made %d lookups; want the first's %d", second.Hits-first.Hits, first.Hits+first.Misses)
	}
	cold, err := NewRunner(tinyOptions()).Sweep(ctx, mapCacheSweep(0.04), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonBytes(t, warm), jsonBytes(t, cold)) {
		t.Error("sweep on a warm map cache differs from a fresh runner's")
	}
}

// mapCacheSearch maps every evaluated design (PerfWeight > 0).
func mapCacheSearch() SearchSpec {
	return SearchSpec{Benchmark: "misex1_241", Strategy: search.Anneal, AuxCounts: []int{0, 1},
		Steps: 6, Proposals: 4, MaxEvals: 6, PerfWeight: 1}
}

// TestMapCacheConcurrentJobs runs two sweeps and a search concurrently
// on one runner, all reading and filling one map cache (CI repeats it
// under the race detector), and checks each against the same job alone
// on a fresh runner.
func TestMapCacheConcurrentJobs(t *testing.T) {
	ctx := context.Background()
	want := make([][]byte, 3)
	{
		s1, err := NewRunner(tinyOptions()).Sweep(ctx, mapCacheSweep(0.03), nil)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewRunner(tinyOptions()).Sweep(ctx, mapCacheSweep(0.04), nil)
		if err != nil {
			t.Fatal(err)
		}
		se, err := NewRunner(tinyOptions()).Search(ctx, mapCacheSearch(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[0], want[1], want[2] = jsonBytes(t, s1), jsonBytes(t, s2), jsonBytes(t, se)
	}

	r := NewRunner(tinyOptions())
	got := make([][]byte, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var b bytes.Buffer
			switch i {
			case 0, 1:
				var res *SweepResult
				if res, errs[i] = r.Sweep(ctx, mapCacheSweep([]float64{0.03, 0.04}[i]), nil); errs[i] == nil {
					errs[i] = res.WriteJSON(&b)
				}
			case 2:
				var res *SearchOutcome
				if res, errs[i] = r.Search(ctx, mapCacheSearch(), nil); errs[i] == nil {
					errs[i] = res.WriteJSON(&b)
				}
			}
			got[i] = b.Bytes()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("job %d on a shared map cache differs from a fresh runner's", i)
		}
	}
	if s := r.MapCache().Snapshot(); s.Hits == 0 {
		t.Errorf("concurrent jobs of one benchmark never shared a routing: %+v", s)
	}
}
