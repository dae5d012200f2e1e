package workload

import "sort"

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks: rank p/100·(n−1) over the sorted
// values. xs is not modified; an empty slice yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }
