package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if _, err := percentile(seq(39), 0.75); err == nil {
		t.Error("p75 of 39 samples accepted: fewer than 10 lie beyond it")
	}
	got, err := percentile(seq(40), 0.75)
	if err != nil {
		t.Fatalf("p75 of 40 samples: %v", err)
	}
	// Samples 1..40: position 0.75·39 = 29.25 between 30 and 31.
	if math.Abs(got-30.25) > 1e-12 {
		t.Errorf("p75 of 1..40 = %v, want 30.25", got)
	}
	if m, err := median(seq(1)); err != nil || m != 1 {
		t.Errorf("median of one sample = %v, %v", m, err)
	}
	if m, _ := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
	if _, err := median(nil); err == nil {
		t.Error("median of no samples accepted")
	}
}
