package harness

import (
	"errors"
	"math"
	"sort"

	"repro/internal/stats"
)

// MinBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer slow samples than this is one outlier away
// from a different number.
const MinBeyond = 10

// Quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// the spreads this package reports match the ones a reader recomputes from
// the raw values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	// statistics.quantiles, method="exclusive": m = n+1, the i-th cut
	// point (i = 1..3) interpolates at rank i*m/4, with the lower index
	// clamped to 1..n-1 exactly as Python clamps it.
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ErrTooFewSamples reports a percentile that has fewer than MinBeyond
// samples above it.
var ErrTooFewSamples = errors.New("too few samples beyond the percentile")

// TailPercentile returns the q-quantile of xs, interpolated between
// closest ranks as stats.Sample.Percentile does, together with the number
// of samples above it. It fails with ErrTooFewSamples when fewer than
// MinBeyond samples lie above it, e.g. for a p90 of fewer than 100
// samples.
func TailPercentile(xs []float64, q float64) (float64, int, error) {
	v := stats.NewSample(xs).Percentile(q * 100)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < MinBeyond {
		return v, beyond, ErrTooFewSamples
	}
	return v, beyond, nil
}
