package harness

import (
	"errors"
	"math"
	"testing"
)

// The expected values are Python's statistics.quantiles(xs, n=4)[0] and
// [2] for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 5}, 5, 5},
		{[]float64{1.5, 2.5, 10, 11, 12, 13, 100}, 2.5, 13},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond, err := TailPercentile(xs, 0.9)
	if err != nil || beyond != 10 {
		t.Fatalf("p90 of 100 samples: beyond %d, err %v; want 10 beyond, no error", beyond, err)
	}
	if math.Abs(v-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, want 90.1", v)
	}
	if med, beyond, err := TailPercentile(xs, 0.5); med != 50.5 || beyond != 50 || err != nil {
		t.Fatalf("median of 1..100 = %v with %d beyond (err %v), want 50.5 with 50", med, beyond, err)
	}
	_, beyond, err = TailPercentile(xs[:90], 0.9)
	if !errors.Is(err, ErrTooFewSamples) || beyond != 9 {
		t.Fatalf("p90 of 90 samples: beyond %d, err %v; want 9 beyond and ErrTooFewSamples", beyond, err)
	}
	if _, _, err := TailPercentile(xs, 0.99); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("p99 of 100 samples should have too few beyond, got %v", err)
	}
}
