package metrics

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkMetricsAppend measures the per-point append cost on the
// event layer's hot path — what a progress callback pays per step —
// including chunk rolls and byte-bound retention checks.
func BenchmarkMetricsAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Retention{MaxBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	t0 := time.Unix(1_700_000_000, 0).UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append("job:bench/yield", Point{
			T: t0.Add(time.Duration(i) * time.Millisecond), Step: int64(i), V: float64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsWindowQuery measures a windowed aggregation over a
// multi-chunk series — the /v1/jobs/{id}/metrics serving path.
func BenchmarkMetricsWindowQuery(b *testing.B) {
	s, err := Open(b.TempDir(), Retention{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	t0 := time.Unix(1_700_000_000, 0).UTC()
	const points = 4096
	for i := 0; i < points; i++ {
		if err := s.Append("job:bench/yield", Point{
			T: t0.Add(time.Duration(i) * 100 * time.Millisecond), Step: int64(i), V: float64(i % 251),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs, err := s.Query("job:bench/yield", Query{StepWindow: 100})
		if err != nil {
			b.Fatal(err)
		}
		if len(aggs) != points/100+1 {
			b.Fatal(fmt.Errorf("got %d buckets", len(aggs)))
		}
	}
}

// BenchmarkMetricsAppendManyJobs measures the append cost once many
// jobs have recorded progress. Each sub-benchmark first fills a store
// under a 1 MiB byte bound with that many search jobs' series (three
// per job, 120 points each, interleaved step by step as the server
// records them), then times the appends of the jobs that follow; ns/op
// is per append. The store outlives the sub-benchmark's calls, so the
// fill runs once and each larger b.N continues where the last call
// stopped. The cost should not grow with the number of jobs the store
// has seen.
func BenchmarkMetricsAppendManyJobs(b *testing.B) {
	const steps = 120
	for _, jobs := range []int{100, 4000} {
		s, err := Open(b.TempDir(), Retention{MaxBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		next := -1 // index of the next append; -1 until the store is filled
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			if next < 0 {
				for next = 0; next < jobs*len(jobMetrics)*steps; next++ {
					if err := appendJobPoint(s, next, steps); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := appendJobPoint(s, next, steps); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}
