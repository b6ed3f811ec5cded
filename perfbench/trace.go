package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/adult"
	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/privacy"
	"repro/internal/prob"
	"repro/internal/schema"
	"repro/internal/service"
)

// ladderShare is the part of a traced run's window the in-process
// ladder gets; the traced and the untraced server windows split the
// rest.
const ladderShare = 0.4

// Ladder round bounds: at least minRounds samples per step even on a
// slow host, at most maxRounds on a fast one.
const (
	minRounds = 3
	maxRounds = 200
)

const mib = 1 << 20

// timedReq wraps the requirement Mondrian checks, counting and timing
// its Satisfied calls. It is safe for concurrent use, as Mondrian
// requires; the ladder runs it sequentially, so its time nests inside
// the partition's.
type timedReq struct {
	inner   privacy.Requirement
	calls   atomic.Int64
	accepts atomic.Int64
	ns      atomic.Int64
}

func (t *timedReq) Name() string { return t.inner.Name() }

func (t *timedReq) Satisfied(rows []int) bool {
	t0 := time.Now()
	ok := t.inner.Satisfied(rows)
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	if ok {
		t.accepts.Add(1)
	}
	return ok
}

// samples collects one value per ladder round under each metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) ms(name string, d time.Duration) {
	s.add(name, float64(d)/float64(time.Millisecond))
}

// timeIt runs fn once and returns its wall time.
func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// ladder holds the fixed inputs of the in-process per-layer run: the
// readSeed Adult table, a warm sequential engine, and its (B,t)
// release at para1 — ROADMAP item 1's ladder workload (n=2000, seed
// 42, bt, b'=0.3).
type ladder struct {
	w     *workload
	spec  *schema.Spec
	hiers map[string]*hierarchy.Hierarchy
	table *dataset.Table
	eng   *core.Engine // WithWorkers(-1): child times nest in parents
	p     core.Params
	res   *anonymize.Result
	b03   []float64
	b005  []float64
	grid  [][]float64 // the warm grid
	risk  [][]float64 // publish's risk sweep
	// Per-group inputs of the release at b'=0.3, built once so the
	// inference steps time only the posterior computation.
	groupPriors [][]prob.Dist
	groupCounts [][]int
	// speed1 and speed2 are warm engines at one and two workers on the
	// same table, for parallel.speedup.
	speed1, speed2 *core.Engine
	// svc is an in-process server holding the same release, for the
	// service steps; query is the workload's single-b' request to it.
	svc   *service.Server
	http  *httptest.Server
	query []byte
	// queryMethod and queryB are the core call behind query.
	queryMethod inference.Method
	queryB      []float64
}

func uniform(d int, bs []float64) [][]float64 {
	out := make([][]float64, len(bs))
	for i, b := range bs {
		out[i] = kernel.UniformBandwidth(d, b)
	}
	return out
}

func newLadder(w *workload) (*ladder, error) {
	l := &ladder{w: w, spec: adult.Spec(), p: core.Table5()[0]}
	l.hiers = l.spec.Hierarchies()
	var err error
	if l.table, err = schema.Synthesize(l.spec, datasetN, readSeed); err != nil {
		return nil, err
	}
	d := l.table.Schema.D()
	l.b03, l.b005 = kernel.UniformBandwidth(d, 0.3), kernel.UniformBandwidth(d, publishBPrime)
	l.grid, l.risk = uniform(d, grid), uniform(d, riskGrid)
	engine := func(workers int) (*core.Engine, error) {
		e, err := core.New(l.table, l.hiers, nil, nil, core.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		if _, err := e.PriorsBatch(append(append([][]float64{l.b005}, l.grid...), l.risk...)); err != nil {
			return nil, err
		}
		return e, nil
	}
	if l.eng, err = engine(-1); err != nil {
		return nil, err
	}
	if l.speed1, err = engine(1); err != nil {
		return nil, err
	}
	if l.speed2, err = engine(2); err != nil {
		return nil, err
	}
	if l.res, _, err = l.eng.RunAlgorithmWith(context.Background(), nil, "mondrian", "bt", l.p); err != nil {
		return nil, err
	}
	priors, err := l.eng.Priors(l.b03)
	if err != nil {
		return nil, err
	}
	for _, g := range l.res.Groups {
		gp := make([]prob.Dist, g.Size())
		svals := make([]int, g.Size())
		for i, ri := range g.Rows {
			gp[i] = priors[ri]
			svals[i] = l.table.Records[ri].S
		}
		l.groupPriors = append(l.groupPriors, gp)
		l.groupCounts = append(l.groupCounts, inference.GroupCounts(svals, l.table.Schema.M()))
	}
	return l, l.startService()
}

// startService boots the in-process server (sequential engines,
// tracing off), creates the release on it and fixes the workload's
// single-b' query.
func (l *ladder) startService() error {
	var err error
	if l.svc, err = service.New(service.Config{Workers: -1, DisableTracing: true}); err != nil {
		return err
	}
	l.http = httptest.NewServer(l.svc)
	c := newClient(l.http.URL)
	defer c.close()
	dsID, err := ingest(c, readSeed)
	if err != nil {
		return err
	}
	var resp service.AnonymizeResponse
	if _, err := c.postInto("/v1/anonymize", anonymizeReq(dsID, "bt", l.p), &resp); err != nil {
		return err
	}
	q := service.AttackRequest{Release: resp.Release, BPrime: f64(0.3)}
	l.queryMethod, l.queryB = inference.Omega{}, l.b03
	switch l.w.name {
	case "certify":
		q.Inference = "adaptive"
		l.queryMethod = inference.Adaptive{}
	case "publish":
		q.BPrime = f64(publishBPrime)
		l.queryB = l.b005
	}
	if l.query, err = json.Marshal(q); err != nil {
		return err
	}
	// Warm the server's priors for the query's b'.
	_, err = c.post("/v1/attack", q)
	return err
}

func (l *ladder) close() { l.http.Close() }

// round runs every ladder step once, adding one sample per metric.
func (l *ladder) round(s samples, hc *http.Client) error {
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats

	// dataset → kernel → core build, then the three cold prior passes
	// of a publish chain on the fresh engine, with their allocation.
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	base := ms0.HeapAlloc
	var t *dataset.Table
	d, err := timeIt(func() (err error) { t, err = schema.Synthesize(l.spec, datasetN, readSeed); return err })
	if err != nil {
		return err
	}
	s.ms("dataset.synth_ms", d)
	if d, err = timeIt(func() error { _, err := kernel.NewEstimator(t, l.hiers, nil); return err }); err != nil {
		return err
	}
	s.ms("kernel.estimator_build_ms", d)
	var e *core.Engine
	if d, err = timeIt(func() (err error) { e, err = core.New(t, l.hiers, nil, nil, core.WithWorkers(-1)); return err }); err != nil {
		return err
	}
	s.ms("core.engine_build_ms", d)
	runtime.ReadMemStats(&ms0)
	if d, err = timeIt(func() error { _, err := e.Priors(l.b03); return err }); err != nil {
		return err
	}
	s.ms("kernel.priors_lane_ms", d)
	if d, err = timeIt(func() error { _, err := e.Priors(l.b005); return err }); err != nil {
		return err
	}
	s.ms("kernel.priors_csr_ms", d)
	if d, err = timeIt(func() error { _, err := e.PriorsBatch(l.risk); return err }); err != nil {
		return err
	}
	s.ms("kernel.priors_batch_ms", d)
	runtime.ReadMemStats(&ms1)
	s.add("kernel.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/mib)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	s.add("kernel.retained_mb_per_engine", (float64(ms1.HeapAlloc)-float64(base))/mib)

	// Mondrian under (B,t) on the fresh engine, its b priors warm.
	if d, err = timeIt(func() error {
		_, _, err := e.RunAlgorithmWith(ctx, nil, "mondrian", "bt", l.p)
		return err
	}); err != nil {
		return err
	}
	s.ms("core.run_algorithm_ms", d)
	req, err := e.Requirement(core.BTPrivacy, l.p)
	if err != nil {
		return err
	}
	tr := &timedReq{inner: req}
	d, _ = timeIt(func() error { e.Anonymize(tr); return nil })
	sat := time.Duration(tr.ns.Load())
	s.ms("mondrian.partition_ms", d)
	s.ms("mondrian.self_ms", d-sat)
	s.ms("privacy.satisfied_ms", sat)
	s.add("privacy.satisfied_calls", float64(tr.calls.Load()))
	s.add("privacy.accept_ratio", float64(tr.accepts.Load())/float64(tr.calls.Load()))
	runtime.KeepAlive(e)

	// The warm Ω attack and its children.
	attack, err := timeIt(func() error { _, err := l.eng.AttackWith(ctx, nil, l.res, l.b03, l.p.T, nil); return err })
	if err != nil {
		return err
	}
	s.ms("core.attack_ms", attack)
	const hits = 100
	hit, err := timeIt(func() error {
		for i := 0; i < hits; i++ {
			if _, err := l.eng.Priors(l.b03); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.add("core.priors_hit_us", float64(hit)/float64(time.Microsecond)/hits)
	posts := make([][]prob.Dist, len(l.groupPriors))
	omega, err := timeIt(func() error {
		for gi, gp := range l.groupPriors {
			post, err := inference.TryPosteriors(inference.Omega{}, gp, l.groupCounts[gi])
			if err != nil {
				return err
			}
			posts[gi] = post
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.ms("inference.omega_ms", omega)
	measure, _ := timeIt(func() error {
		for gi, gp := range l.groupPriors {
			for i := range gp {
				l.eng.Measure.Distance(gp[i], posts[gi][i])
			}
		}
		return nil
	})
	s.ms("distance.measure_ms", measure)
	s.ms("core.attack_self_ms", attack-omega-measure-hit/hits)
	if d, err = timeIt(func() error {
		_, err := l.eng.AttackSweepWith(ctx, nil, l.res, l.grid, l.p.T, nil)
		return err
	}); err != nil {
		return err
	}
	s.ms("core.sweep_ms", d)

	// Exact inference under the adaptive bound, with its allocation.
	runtime.ReadMemStats(&ms0)
	d, err = timeIt(func() error {
		for gi, gp := range l.groupPriors {
			if _, err := inference.TryPosteriors(inference.Adaptive{}, gp, l.groupCounts[gi]); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	s.ms("inference.adaptive_ms", d)
	s.add("inference.adaptive_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/mib)
	s.add("inference.adaptive_allocs", float64(ms1.Mallocs-ms0.Mallocs))

	// The service ladder on the workload's query: loopback HTTP, the
	// handler alone, and the core call it makes.
	httpD, err := timeIt(func() error {
		resp, err := hc.Post(l.http.URL+"/v1/attack", "application/json", bytes.NewReader(l.query))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loopback attack: status %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return err
	}
	handler, err := timeIt(func() error {
		rec := httptest.NewRecorder()
		l.svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/attack", bytes.NewReader(l.query)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler attack: status %d: %s", rec.Code, rec.Body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	call, err := timeIt(func() error {
		_, err := l.eng.AttackWith(ctx, l.queryMethod, l.res, l.queryB, l.p.T, nil)
		return err
	})
	if err != nil {
		return err
	}
	s.ms("service.http_ms", httpD)
	s.ms("service.handler_ms", handler)
	s.ms("service.transport_ms", httpD-handler)
	s.ms("service.handler_self_ms", handler-call)

	// The workload's main call at one and at two workers.
	one, err := timeIt(func() error { return l.mainCall(l.speed1) })
	if err != nil {
		return err
	}
	two, err := timeIt(func() error { return l.mainCall(l.speed2) })
	if err != nil {
		return err
	}
	s.add("parallel.speedup", float64(one)/float64(two))
	return nil
}

// mainCall is the call parallel.speedup times for the workload: the
// (B,t) Mondrian run for publish, the warm attack otherwise (adaptive
// for certify).
func (l *ladder) mainCall(e *core.Engine) error {
	switch l.w.name {
	case "publish":
		_, _, err := e.RunAlgorithmWith(context.Background(), nil, "mondrian", "bt", l.p)
		return err
	case "certify":
		_, err := e.AttackWith(context.Background(), inference.Adaptive{}, l.res, l.b03, l.p.T, nil)
		return err
	default:
		_, err := e.AttackWith(context.Background(), nil, l.res, l.b03, l.p.T, nil)
		return err
	}
}

// exactShare is the share of the release's groups small enough for
// exact inference: Π(c+1) over the group's present values within
// inference.MaxExactStates, the adaptive method's own test.
func (l *ladder) exactShare() float64 {
	exact := 0
	for _, counts := range l.groupCounts {
		states := 1
		for _, c := range counts {
			if c > 0 && states <= inference.MaxExactStates {
				states *= c + 1
			}
		}
		if states <= inference.MaxExactStates {
			exact++
		}
	}
	return float64(exact) / float64(len(l.groupCounts))
}

// runLadder runs ladder rounds for budget (within the round bounds)
// and adds each step's median to the report.
func runLadder(w *workload, budget time.Duration, rep *report) error {
	l, err := newLadder(w)
	if err != nil {
		return fmt.Errorf("ladder setup: %w", err)
	}
	defer l.close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	s := samples{}
	start := time.Now()
	for r := 0; r < maxRounds && (r < minRounds || time.Since(start) < budget); r++ {
		if err := l.round(s, hc); err != nil {
			return fmt.Errorf("ladder round %d: %w", r, err)
		}
	}
	for _, name := range ladderMetrics {
		xs, ok := s[name.name]
		if !ok {
			return fmt.Errorf("ladder step %s recorded nothing", name.name)
		}
		rep.add(name.name, median(xs), name.unit, len(xs))
	}
	rep.add("inference.groups_per_attack", float64(len(l.res.Groups)), "count", 1)
	rep.add("inference.exact_group_share", l.exactShare(), "ratio", 1)
	return nil
}

// ladderMetrics are the per-round ladder samples, in report order.
var ladderMetrics = []struct{ name, unit string }{
	{"service.http_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.transport_ms", "ms"},
	{"service.handler_self_ms", "ms"},
	{"core.attack_ms", "ms"},
	{"core.attack_self_ms", "ms"},
	{"core.priors_hit_us", "us"},
	{"core.sweep_ms", "ms"},
	{"core.engine_build_ms", "ms"},
	{"kernel.estimator_build_ms", "ms"},
	{"dataset.synth_ms", "ms"},
	{"kernel.priors_lane_ms", "ms"},
	{"kernel.priors_csr_ms", "ms"},
	{"kernel.priors_batch_ms", "ms"},
	{"kernel.alloc_mb_per_op", "MB"},
	{"kernel.retained_mb_per_engine", "MB"},
	{"core.run_algorithm_ms", "ms"},
	{"mondrian.partition_ms", "ms"},
	{"mondrian.self_ms", "ms"},
	{"privacy.satisfied_calls", "count"},
	{"privacy.satisfied_ms", "ms"},
	{"privacy.accept_ratio", "ratio"},
	{"inference.omega_ms", "ms"},
	{"distance.measure_ms", "ms"},
	{"inference.adaptive_ms", "ms"},
	{"inference.adaptive_alloc_mb", "MB"},
	{"inference.adaptive_allocs", "count"},
	{"parallel.speedup", "x"},
}

// promValue reads one unlabeled sample from OpenMetrics text.
func promValue(text, name string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no %s sample in /metrics?format=prom", name)
}

// serverPass is one window against a fresh server, tracing on or off.
type serverPass struct {
	m          *measured
	gcCycles   float64 // completed GC cycles during the window
	heapLiveMB float64 // live heap after the window
	rssPeakMB  float64 // VmHWM after the window
}

func runServerPass(w *workload, b booter, seed int64, d time.Duration, tracing bool) (*serverPass, error) {
	cfg := w.serve
	cfg.tracing = tracing
	s, _, err := boot(w, b, cfg, seed)
	if err != nil {
		return nil, err
	}
	p, err := func() (*serverPass, error) {
		prom := func() (string, error) {
			b, err := s.c.get("/metrics?format=prom")
			return string(b), err
		}
		before, err := prom()
		if err != nil {
			return nil, err
		}
		p := &serverPass{}
		if p.m, err = measure(w, s, d); err != nil {
			return nil, err
		}
		after, err := prom()
		if err != nil {
			return nil, err
		}
		gc0, err := promValue(before, "repro_process_gc_cycles_total")
		if err != nil {
			return nil, err
		}
		gc1, err := promValue(after, "repro_process_gc_cycles_total")
		if err != nil {
			return nil, err
		}
		heap, err := promValue(after, "repro_process_heap_bytes")
		if err != nil {
			return nil, err
		}
		p.gcCycles, p.heapLiveMB = gc1-gc0, heap/mib
		p.rssPeakMB, err = procMemMB(s.tgt.pid, "VmHWM")
		return p, err
	}()
	if cerr := s.close(); err == nil && cerr != nil {
		err = cerr
	}
	return p, err
}

// runTrace is the per-layer run: the in-process ladder, then the
// workload against a traced server — whose /metrics ledger gives the
// cache, kernel-pass and GC figures — and against an untraced one, for
// the tracing overhead.
func runTrace(w *workload, b booter, seed int64, d time.Duration) (*report, error) {
	rep := &report{Correct: true}
	ladderBudget := time.Duration(float64(d) * ladderShare)
	if err := runLadder(w, ladderBudget, rep); err != nil {
		return nil, err
	}
	win := (d - ladderBudget) / 2
	traced, err := runServerPass(w, b, seed, win, true)
	if err != nil {
		return nil, err
	}
	untraced, err := runServerPass(w, b, seed, win, false)
	if err != nil {
		return nil, err
	}
	for _, p := range []*serverPass{traced, untraced} {
		rep.Attempted += p.m.rec.attempted[classOp]
		rep.Failed += p.m.rec.failed[classOp]
		if p.m.rec.failed[classOp] > 0 {
			rep.fail("%d operations failed: %v", p.m.rec.failed[classOp], p.m.rec.errs)
		}
		steadyGuard(w, p.m, rep)
	}
	m := traced.m
	ops := float64(m.ops)
	// The store serves anonymize requests only, which audit and certify
	// windows do not send: with no lookup, none missed, and the ratio
	// reads 1. Their cache evidence is the steady-state guard.
	hits := m.after.Store.Hits - m.before.Store.Hits
	lookups := hits + m.after.Store.Misses - m.before.Store.Misses + m.after.Store.Shared - m.before.Store.Shared
	hitRatio := 1.0
	if lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	passes := m.after.Stages["priors"].Count - m.before.Stages["priors"].Count
	if want := w.passesPerOp * ops; float64(passes) != want {
		rep.fail("steady state: %d kernel prior passes in %d operations, want %g per operation", passes, m.ops, w.passesPerOp)
	}
	rep.add("service.store_hit_ratio", hitRatio, "ratio", int(lookups))
	rep.add("service.evictions_per_op", float64(m.after.Store.Evictions-m.before.Store.Evictions)/ops, "1/op", m.ops)
	rep.add("kernel.passes_per_op", float64(passes)/ops, "1/op", m.ops)
	rep.add("runtime.gc_cycles_per_op", traced.gcCycles/ops, "1/op", m.ops)
	rep.add("runtime.heap_live_mb", traced.heapLiveMB, "MB", 1)
	rep.add("runtime.rss_peak_mb", traced.rssPeakMB, "MB", 1)
	tput := func(p *serverPass) float64 { return float64(p.m.ops) / p.m.elapsed.Seconds() }
	rep.add("obs.overhead_ratio", (tput(untraced)-tput(traced))/tput(untraced), "ratio", m.ops+untraced.m.ops)
	return rep, nil
}
