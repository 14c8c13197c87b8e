package main

import (
	"fmt"
	"math"
	"sort"
)

// tailPercentiles are the percentiles a timing may be reported at, lowest
// first. A timing is reported as its median and the highest of these that
// still has at least minBeyond samples above it.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highestTail returns the highest percentile in tailPercentiles that has at
// least minBeyond of n samples beyond it, and false when even the median
// has too few.
func highestTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// nearestRank is the 1-based rank of the p-th percentile of n sorted
// samples. The tolerance keeps float error in p·n/100 from pushing an exact
// rank up by one.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// samples is one timing series, in the unit it is reported in.
type samples []float64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[nearestRank(p, len(sorted))-1]
}

func (s samples) median() float64 { return s.percentile(50) }

// tail returns the p-th percentile after checking the percentile rule: a
// series too short to carry p is an error, not a number.
func (s samples) tail(p float64) (float64, error) {
	hi, ok := highestTail(len(s))
	if !ok || hi < p {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples carry at most p%g", p, minBeyond, len(s), hi)
	}
	return s.percentile(p), nil
}

func (s samples) sum() float64 {
	total := 0.0
	for _, v := range s {
		total += v
	}
	return total
}
