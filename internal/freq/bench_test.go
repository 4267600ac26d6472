package freq_test

import (
	"testing"

	"qproc/internal/core"
	"qproc/internal/gen"
)

// allocated keeps BenchmarkAllocate's result live.
var allocated []float64

// BenchmarkAllocate runs Algorithm 3 on the qft_16 eff-full designs with
// k = 0..5 buses, reading the process-wide table warmed by the series
// that built them: the allocation every design series repeats.
func BenchmarkAllocate(b *testing.B) {
	c, err := gen.Get("qft_16")
	if err != nil {
		b.Fatal(err)
	}
	flow := core.NewFlow(1)
	designs, err := flow.Series(c.Build(), 5)
	if err != nil {
		b.Fatal(err)
	}
	if len(designs) != 6 {
		b.Fatalf("qft_16 series has %d designs, want k = 0..5", len(designs))
	}
	al := flow.Allocator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			allocated = al.Allocate(d.Arch)
		}
	}
}
