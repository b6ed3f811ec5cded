package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

// Setup boots. An end-to-end run boots fresh servers and brings each to
// steady state until setupBudget has passed or setupBoots are done;
// setup_s is their median and the last one serves the window. A read
// workload sets up in 0.1–0.2 s, and one boot's reading spread 0.58
// (interquartile range over median, five audit runs), so it boots five
// times; publish's warm-up chains take seconds, so it boots once.
const (
	setupBoots  = 5
	setupBudget = time.Second
)

// rssGrowthBound is how far publish's late-window RSS may exceed its
// early-window level before the run counts as out of steady state:
// the bound BENCHMARK.json gives server_rss_mb.
const rssGrowthBound = 0.10

// rssEvery is the window's RSS sampling period.
const rssEvery = 100 * time.Millisecond

// booter starts a server for a workload: a cmd/serve process in the
// benchmark proper, an in-process service in its tests.
type booter func(serveConfig) (*target, error)

// session is a booted, set-up server with its client.
type session struct {
	tgt *target
	c   *client
	st  *state
}

func (s *session) close() error {
	s.c.close()
	return s.tgt.stop()
}

// boot starts a fresh server and runs the workload's setup on it,
// returning the session and the seconds from process start to steady
// state.
func boot(w *workload, b booter, cfg serveConfig, seed int64) (*session, float64, error) {
	t0 := time.Now()
	tgt, err := b(cfg)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(tgt.base)
	st, err := w.setup(c, seed)
	if err != nil {
		c.close()
		return nil, 0, fmt.Errorf("%s setup: %w (stop: %v)", w.name, err, tgt.stop())
	}
	return &session{tgt: tgt, c: c, st: st}, time.Since(t0).Seconds(), nil
}

func snapshot(c *client) (service.Snapshot, error) {
	var s service.Snapshot
	b, err := c.get("/metrics")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// measured is one window's outcome, read from both sides.
type measured struct {
	rec     *recorder
	elapsed time.Duration
	ops     int // operations that succeeded
	cpu     time.Duration
	before  service.Snapshot
	after   service.Snapshot
	// rss samples VmRSS (MiB) through the window, in order.
	rss []float64
}

// measure runs one window against a set-up session, reading the
// server's CPU from /proc and its counters from /metrics on either
// side, and sampling its RSS throughout.
func measure(w *workload, s *session, d time.Duration) (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = snapshot(s.c); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.tgt.pid)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := procMemMB(s.tgt.pid, "VmRSS"); err == nil {
				m.rss = append(m.rss, mb)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	m.rec, m.elapsed = window(w, s.c, s.st, d)
	close(stop)
	wg.Wait()
	cpu1, err := procCPU(s.tgt.pid)
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.after, err = snapshot(s.c); err != nil {
		return nil, err
	}
	m.ops = len(m.rec.lat[classOp])
	if m.ops == 0 {
		return nil, fmt.Errorf("no operation completed in %v (%v)", d, m.rec.errs)
	}
	return m, nil
}

// steadyGuard fails the report when the window left steady state:
// reads that ran a pipeline or built a dataset, or publish memory
// still climbing late in the window.
func steadyGuard(w *workload, m *measured, rep *report) {
	if w.steadyReads {
		if d := m.after.PipelineRuns - m.before.PipelineRuns; d != 0 {
			rep.fail("steady state: %d pipeline runs in the %s window", d, w.name)
		}
		if d := m.after.DatasetBuilds - m.before.DatasetBuilds; d != 0 {
			rep.fail("steady state: %d dataset builds in the %s window", d, w.name)
		}
	}
	if w.name == "publish" && len(m.rss) >= 8 {
		q := len(m.rss) / 4
		early, late := maxOf(m.rss[:q]), maxOf(m.rss[len(m.rss)-q:])
		if late > early*(1+rssGrowthBound) {
			rep.fail("steady state: publish RSS rose from %.1f MB early in the window to %.1f MB late", early, late)
		}
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// runE2E is one end-to-end run: fresh servers brought to steady state
// (see setupBoots), a closed-loop window on the last, the steady-state
// guard and the answer check.
func runE2E(w *workload, b booter, seed int64, d time.Duration) (*report, error) {
	rep := &report{Correct: true}
	var setups []float64
	var s *session
	for spent := 0.0; len(setups) < setupBoots && spent < setupBudget.Seconds(); {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var secs float64
		var err error
		if s, secs, err = boot(w, b, w.serve, seed); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		spent += secs
	}
	m, err := measure(w, s, d)
	if err != nil {
		return nil, fmt.Errorf("%v (stop: %v)", err, s.close())
	}
	steadyGuard(w, m, rep)
	checked, fails := answerCheck(w, s.c, s.st)
	if err := s.close(); err != nil {
		return nil, err
	}

	rep.Attempted = m.rec.attempted[classOp] + checked
	rep.Failed = m.rec.failed[classOp] + len(fails)
	m.rec.attempted[classProbe] = checked
	m.rec.failed[classProbe] = len(fails)
	if m.rec.failed[classOp] > 0 {
		rep.fail("%d of %d operations failed: %v", m.rec.failed[classOp], m.rec.attempted[classOp], m.rec.errs)
	}
	for _, f := range fails {
		rep.fail("answer check: %s", f)
	}
	lat := func(class string) []float64 { return millis(m.rec.lat[class]) }
	rep.add("setup_s", median(setups), "s", len(setups))
	rep.add("throughput_ops_s", float64(m.ops)/m.elapsed.Seconds(), "op/s", m.ops)
	for _, class := range []string{classOp, classQuery, classSweep} {
		xs := lat(class)
		rep.add(class+"_p50_ms", percentile(xs, 0.5), "ms", len(xs))
		rep.add(class+"_p90_ms", percentile(xs, 0.9), "ms", len(xs))
	}
	rep.add("server_cpu_ms_per_op", float64(m.cpu)/float64(time.Millisecond)/float64(m.ops), "ms", m.ops)
	rep.add("server_rss_mb", median(m.rss), "MB", len(m.rss))
	rep.Classes = classRows(m.rec)
	return rep, nil
}

// classRow is one operation class's accounting line.
type classRow struct {
	Class                        string
	Attempted, Succeeded, Failed int
}

func classRows(r *recorder) []classRow {
	var names []string
	for k := range r.attempted {
		names = append(names, k)
	}
	sort.Strings(names)
	rows := make([]classRow, len(names))
	for i, k := range names {
		rows[i] = classRow{Class: k, Attempted: r.attempted[k], Succeeded: r.attempted[k] - r.failed[k], Failed: r.failed[k]}
	}
	return rows
}
