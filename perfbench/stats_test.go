package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		p, want float64
	}{
		{1, 1}, {10, 1}, {10.5, 2}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {100, 10},
	} {
		if got := percentile(append([]float64(nil), ten...), tc.p); got != tc.want {
			t.Errorf("p%v of 1..10 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3}, 90); got != 3 {
		t.Errorf("p90 of one sample = %v, want 3", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
	// Failed operations enter as +Inf: they miss every limit, and they
	// reach p90 once more than a tenth of the operations failed.
	withFailures := []float64{1, 2, 3, 4, 5, 6, 7, 8, math.Inf(1), math.Inf(1)}
	if got := percentile(append([]float64(nil), withFailures...), 80); got != 8 {
		t.Errorf("p80 with two failures = %v, want 8", got)
	}
	if got := percentile(withFailures, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with two failures in ten = %v, want +Inf", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSegmentsCoverRangeOnce(t *testing.T) {
	for _, n := range []int{9, 10, 84, 1000} {
		next := 0
		for _, r := range segments(n, measuredSegments) {
			if r[0] != next || r[1] < r[0] {
				t.Fatalf("segments(%d): range %v after %d", n, r, next)
			}
			if d := r[1] - r[0]; d < n/measuredSegments || d > n/measuredSegments+1 {
				t.Errorf("segments(%d): range %v has %d items", n, r, d)
			}
			next = r[1]
		}
		if next != n {
			t.Errorf("segments(%d) ends at %d", n, next)
		}
	}
}
