package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentile returns the q-quantile (q in [0,1]) of xs by ceil
// nearest-rank — the smallest sample with at least a q fraction of the
// samples at or below it, the rule internal/service's latency window
// uses — so a p90 printed here and a p90 on /metrics mean the same
// thing. xs is not modified; an empty sample is 0.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	buf := append([]float64(nil), xs...)
	sort.Float64s(buf)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}

// median is the 0.5 percentile under the same rule.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// metricName and metricUnit are the result-line charsets: a name starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.'
// and '-'; a unit holds at most 16 letters, digits, '_', '/', '%', '.'
// and '-'.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metric is one reported number: its value, unit and how many samples
// it was computed from (1 for a single reading).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// report is a run's outcome: the correctness verdict, the operation
// accounting and the metrics in print order.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Classes is the per-class operation accounting of the window.
	Classes []classRow
	// Notes explain a false Correct: guard violations, answer
	// mismatches, failed requests.
	Notes []string
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// validate checks every metric against the result-line charsets and
// rejects duplicates and non-finite values, so a malformed name is a
// benchmark bug caught before the result is printed.
func (r *report) validate() error {
	seen := map[string]bool{}
	for _, m := range r.Metrics {
		if !metricName.MatchString(m.Name) {
			return fmt.Errorf("metric name %q outside the charset", m.Name)
		}
		if !metricUnit.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q outside the charset", m.Name, m.Unit)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		seen[m.Name] = true
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	return nil
}
