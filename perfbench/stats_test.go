package main

import (
	"math"
	"strings"
	"testing"
)

// TestPercentileCeilNearestRank pins the same cases internal/service
// pins for its latency window: the q-quantile is the smallest sample
// with at least a q fraction of the samples at or below it.
func TestPercentileCeilNearestRank(t *testing.T) {
	fill := func(n int) []float64 {
		xs := make([]float64, 0, n)
		// Descending: percentile must sort, not trust arrival order.
		for i := n; i >= 1; i-- {
			xs = append(xs, float64(i))
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		n    int
		qs   []float64
		want []float64
	}{
		{"1024 samples", 1024, []float64{0.50, 0.99, 1.0}, []float64{512, 1014, 1024}},
		{"hundred", 100, []float64{0, 0.50, 0.90, 0.99, 1.0}, []float64{1, 50, 90, 99, 100}},
		// n=4: p99 is the max (rank ceil(3.96)=4).
		{"four", 4, []float64{0.50, 0.99}, []float64{2, 4}},
		{"single", 1, []float64{0.50, 0.99}, []float64{1, 1}},
		// n=10: p90 is rank 9, p50 rank 5.
		{"ten", 10, []float64{0.50, 0.90}, []float64{5, 9}},
	} {
		xs := fill(tc.n)
		for i, q := range tc.qs {
			if got := percentile(xs, q); got != tc.want[i] {
				t.Errorf("%s: q=%g → %g, want %g", tc.name, q, got, tc.want[i])
			}
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("%s: percentile reordered its input", tc.name)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %g, want 0", got)
	}
}

func TestMetricCharset(t *testing.T) {
	for _, name := range []string{"setup_s", "query_p90_ms", "kernel.priors_lane_ms", "obs.overhead_ratio", "9lives", "a-b.c_d", strings.Repeat("x", 64)} {
		if !metricName.MatchString(name) {
			t.Errorf("name %q rejected", name)
		}
	}
	for _, name := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/no", "ü", strings.Repeat("x", 65)} {
		if metricName.MatchString(name) {
			t.Errorf("name %q accepted", name)
		}
	}
	for _, unit := range []string{"ms", "s", "op/s", "1/op", "%", "MB", "count", "x", "ratio"} {
		if !metricUnit.MatchString(unit) {
			t.Errorf("unit %q rejected", unit)
		}
	}
	for _, unit := range []string{"", "m s", "µs", strings.Repeat("u", 17)} {
		if metricUnit.MatchString(unit) {
			t.Errorf("unit %q accepted", unit)
		}
	}
}

func TestReportValidate(t *testing.T) {
	ok := &report{}
	ok.add("setup_s", 0.5, "s", 3)
	ok.add("kernel.passes_per_op", 3, "1/op", 10)
	if err := ok.validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		m    []metric
	}{
		{"bad name", []metric{{Name: "bad name", Unit: "ms"}}},
		{"bad unit", []metric{{Name: "x_ms", Unit: "milli seconds"}}},
		{"duplicate", []metric{{Name: "x_ms", Unit: "ms"}, {Name: "x_ms", Unit: "ms"}}},
		{"NaN", []metric{{Name: "x_ms", Unit: "ms", Value: math.NaN()}}},
		{"Inf", []metric{{Name: "x_ms", Unit: "ms", Value: math.Inf(1)}}},
	} {
		r := &report{Metrics: tc.m}
		if err := r.validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
