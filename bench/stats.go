package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// above the median, so that a tail figure never rests on a handful of
// requests.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics. Above the median it refuses
// samples too small to leave minBeyond values beyond the percentile:
// p75 needs at least 40.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p=%g of %d samples: undefined", p, len(xs))
	}
	if p > 0.5 && float64(len(xs))*(1-p) < minBeyond {
		return 0, fmt.Errorf("percentile p=%g needs %d samples beyond it, have %d samples in all",
			p, minBeyond, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is the 0.5-quantile; it only needs one sample.
func median(xs []float64) (float64, error) { return percentile(xs, 0.5) }

// ratio returns num/den, 0 when den is 0: a layer that saw no work
// reports a zero share rather than NaN, which JSON cannot carry.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
