package freq_test

import (
	"math"
	"sync"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/collision"
	"qproc/internal/core"
	"qproc/internal/freq"
	"qproc/internal/gen"
)

// baseLayouts returns the bus-free layout of every built-in benchmark,
// the layout the k=0 design of each series and each search seed
// allocation start from.
func baseLayouts(t *testing.T) map[string]*arch.Architecture {
	t.Helper()
	out := map[string]*arch.Architecture{}
	for _, b := range gen.Suite() {
		base, _, err := core.NewFlow(1).BaseLayout(b.Build(), 0)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		out[b.Name] = base
	}
	return out
}

// sameBits reports whether two assignments are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAllocateSharedTableConcurrent has 8 goroutines allocate every
// benchmark's bus-free layout at once through the process-wide table,
// each starting at a different layout so that fills and reads of the
// same slots race. Every assignment must equal, bit for bit, a serial
// run's over a table of its own. CI runs it under -race -count=5.
func TestAllocateSharedTableConcurrent(t *testing.T) {
	layouts := baseLayouts(t)
	names := make([]string, 0, len(layouts))
	for _, b := range gen.Suite() {
		names = append(names, b.Name)
	}
	freq.ResetShared()
	want := map[string][]float64{}
	for _, name := range names {
		want[name] = freq.NewAllocator(1).Allocate(layouts[name])
	}

	freq.ResetShared()
	const workers = 8
	got := make([][][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([][]float64, len(names))
			for i := range names {
				k := (w + i) % len(names)
				got[w][k] = freq.NewAllocator(1).Allocate(layouts[names[k]])
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for k, name := range names {
			if !sameBits(got[w][k], want[name]) {
				t.Fatalf("goroutine %d, %s: %v, serial %v", w, name, got[w][k], want[name])
			}
		}
	}
}

// TestAllocateOtherPairSkipsSharedTable: an allocator at another σ or
// other Params must not read the table of the default pair. At σ = 0.05
// every benchmark's bus-free layout gets another assignment than at the
// default σ, and so does one with a wider condition-1 threshold; an
// allocator that read the default table would reproduce the default
// assignment.
func TestAllocateOtherPairSkipsSharedTable(t *testing.T) {
	wide := collision.DefaultParams()
	wide.T1 *= 2
	for name, base := range baseLayouts(t) {
		def := freq.NewAllocator(1).Allocate(base)
		sigma := freq.NewAllocator(1)
		sigma.Sigma = 0.05
		if got := sigma.Allocate(base); sameBits(got, def) {
			t.Errorf("%s: σ = 0.05 allocates the default σ's assignment %v", name, got)
		}
		params := freq.NewAllocator(1)
		params.Params = wide
		if got := params.Allocate(base); sameBits(got, def) {
			t.Errorf("%s: a doubled condition-1 threshold allocates the default assignment %v", name, got)
		}
	}
}
