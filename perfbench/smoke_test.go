package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/service"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// inProcess boots the workload's server configuration as an in-process
// service behind a loopback listener; /proc readings come from the
// test process itself.
func inProcess(cfg serveConfig) (*target, error) {
	srv, err := service.New(service.Config{
		DisableTracing: !cfg.tracing,
		ReleaseCap:     cfg.releaseCap,
		DatasetCap:     cfg.datasetCap,
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv)
	return &target{base: hs.URL, pid: os.Getpid(), stop: func() error { hs.Close(); return nil }}, nil
}

// declared reads the metric names BENCHMARK.json declares for one
// list (end_to_end or per_layer), with their units.
func declared(t *testing.T, list string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[list], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkMetrics asserts a run printed exactly the declared metrics, with
// the declared units, and passed its own checks.
func checkMetrics(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	if err := rep.validate(); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
	}
	got := map[string]bool{}
	for _, m := range rep.Metrics {
		got[m.Name] = true
		unit, ok := want[m.Name]
		if !ok {
			t.Errorf("%s reported but not declared", m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s in %s, declared %s", m.Name, m.Unit, unit)
		}
	}
	var missing []string
	for name := range want {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("declared but not reported: %v", missing)
	}
}

func value(rep *report, name string) float64 {
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// smokeWindows are per-workload end-to-end and traced run lengths,
// long enough that the fixed seed's deal covers every request class.
var smokeWindows = map[string][2]time.Duration{
	"audit":   {300 * time.Millisecond, time.Second},
	"publish": {300 * time.Millisecond, time.Second},
	"certify": {1500 * time.Millisecond, 4 * time.Second},
}

// TestWorkloadSmoke runs each workload end to end and traced, briefly,
// against in-process servers: setup, window, steady-state guards and
// the answer check all pass, and the metric sets match BENCHMARK.json.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and builds Adult releases")
	}
	if raceEnabled {
		// The instrumented service is ~10x slower, so the windows would
		// not cover the request mix, and /proc reads the instrumented
		// test process. TestWindowTwoClients covers the concurrency.
		t.Skip("too slow under the race detector")
	}
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			win := smokeWindows[w.name]
			rep, err := runE2E(w, inProcess, 3, win[0])
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, e2e)
			for _, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %g, want > 0", m.Name, m.Value)
				}
			}
			rep, err = runTrace(w, inProcess, 3, win[1])
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, layers)
			if got := value(rep, "kernel.passes_per_op"); got != w.passesPerOp {
				t.Errorf("kernel.passes_per_op = %g, want %g", got, w.passesPerOp)
			}
		})
	}
}

// TestWindowTwoClients drives the closed loop with two clients against
// a trivial server, with the RSS sampler running, so -race sees every
// goroutine a window starts and the state they share.
func TestWindowTwoClients(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "{}") // an empty /metrics snapshot, or any reply
	}))
	defer hs.Close()
	w := &workload{name: "echo", clients: 2, op: func(c *client, st *state, _ deal, rec *recorder) error {
		st.chains.Add(1)
		return rec.do(classQuery, func() error { _, err := c.post("/", struct{}{}); return err })
	}}
	s := &session{
		tgt: &target{base: hs.URL, pid: os.Getpid(), stop: func() error { return nil }},
		c:   newClient(hs.URL),
		st:  &state{seed: 1},
	}
	defer s.close()
	m, err := measure(w, s, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ops := m.rec.attempted[classOp]
	if m.ops != ops || m.rec.failed[classOp] != 0 || m.rec.attempted[classQuery] != ops || int64(ops) != s.st.chains.Load() {
		t.Errorf("ops=%d attempted=%d failed=%d queries=%d chains=%d", m.ops, ops, m.rec.failed[classOp], m.rec.attempted[classQuery], s.st.chains.Load())
	}
	if len(m.rss) == 0 {
		t.Error("no RSS samples")
	}
}
