package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// datasetN is the Adult table size of every workload.
const datasetN = 2000

// readSeed is the dataset seed of audit and certify: ROADMAP item 1's
// ladder table (Adult, n=2000, seed 42). Their per-operation cost is
// set by the table's group structure — across dataset seeds 1–16 one
// adaptive attack on a (B,t) para2 release takes 23 ms to 2.6 s — so a
// table drawn from the run's seed would measure the draw, not the
// code. The run's seed drives their request streams and probes;
// publish, which ingests a new table per chain, derives every table
// from it.
const readSeed = 42

// grid is the adversary-bandwidth grid audit and certify warm at setup
// and then draw every b' from.
var grid = []float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}

// publishBPrime is the single-b' attack of a publish chain: far below
// the release's b=0.3, so its prior pass is cold and takes the CSR path.
const publishBPrime = 0.05

// riskGrid is the risk sweep of a publish chain. Its 0.3 point is the
// release's own b, already cached by the anonymize step, so the sweep
// runs one fused batch pass over the other four.
var riskGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5}

// publishWarmChains is how many chains publish runs at setup: four
// times publishReleaseCap, so the release store is evicting and the
// server's RSS is flat before the window opens.
const publishWarmChains = 64

// Serve-side LRU caps of publish. Each resident n=2000 release pins
// its dataset's engine (~10 MB), so the caps bound the server's
// memory; the default caps (128 releases) let RSS climb past 1 GB
// within a 15 s window.
const (
	publishReleaseCap = 16
	publishDatasetCap = 4
)

// serveConfig is how a workload's server is started.
type serveConfig struct {
	tracing    bool
	releaseCap int // 0 = serve's default
	datasetCap int // 0 = serve's default
}

func (s serveConfig) flags() []string {
	var f []string
	if !s.tracing {
		f = append(f, "-no-tracing")
	}
	if s.releaseCap > 0 {
		f = append(f, "-releases", strconv.Itoa(s.releaseCap))
	}
	if s.datasetCap > 0 {
		f = append(f, "-datasets", strconv.Itoa(s.datasetCap))
	}
	return f
}

// release is one anonymized release the workload holds a handle to.
type release struct {
	req service.AnonymizeRequest
	id  string
}

// state is what setup leaves for the window and the answer check.
type state struct {
	seed     int64 // the run's seed
	releases []release
	// chains counts publish chains started, warm-up included; chain i
	// ingests the dataset of chainSeed(seed, i).
	chains atomic.Int64
}

// chainSeed is the dataset seed of publish chain i: distinct for every
// chain of a run, and derived from the run's seed.
func chainSeed(seed, i int64) int64 { return seed*1_000_003 + 1 + i }

// recorder is one client's per-class accounting: latencies of the
// requests that succeeded, and how many were attempted and failed.
type recorder struct {
	lat       map[string][]time.Duration
	attempted map[string]int
	failed    map[string]int
	errs      []string
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]time.Duration{}, attempted: map[string]int{}, failed: map[string]int{}}
}

// maxErrs bounds the error messages a recorder keeps.
const maxErrs = 5

// do times fn as one operation of the class.
func (r *recorder) do(class string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.attempted[class]++
	if err != nil {
		r.failed[class]++
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, class+": "+err.Error())
		}
		return err
	}
	r.lat[class] = append(r.lat[class], d)
	return nil
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	for k, v := range o.attempted {
		r.attempted[k] += v
	}
	for k, v := range o.failed {
		r.failed[k] += v
	}
	for _, e := range o.errs {
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, e)
		}
	}
}

// Operation classes. Every workload reports "op" (its unit of work: a
// request, or a whole chain in publish), "query" (single-b' attack or
// risk requests) and "sweep" (multi-b' requests).
const (
	classOp        = "op"
	classQuery     = "query"
	classSweep     = "sweep"
	classIngest    = "ingest"
	classAnonymize = "anonymize"
	classProbe     = "probe"
)

// readClients is the client count of audit and certify. Two read
// clients would join each other's identical requests in the server's
// singleflight: in an interleaved A/B on certify, two clients cut the
// server CPU per operation from 53.7 to 42.2 ms, so the window would
// measure how often two decks collide rather than the read path.
const readClients = 1

// workload is one named traffic mix.
type workload struct {
	name  string
	why   string
	serve serveConfig
	// clients is how many closed-loop clients the window runs.
	clients int
	// setup brings a fresh server to the workload's steady state.
	setup func(c *client, seed int64) (*state, error)
	// op runs one operation, recording each request under its class.
	op func(c *client, st *state, d deal, rec *recorder) error
	// passesPerOp is how many kernel prior passes one operation runs
	// in steady state — the traced run's guard.
	passesPerOp float64
	// steadyReads marks workloads whose window must run no pipeline
	// and build no dataset (every key was warmed at setup).
	steadyReads bool
}

var workloads = []*workload{
	{
		name:        "audit",
		why:         "warm Ω reads: attack and risk, single-b' and 7-point sweeps, on four warmed releases; every cache hits",
		serve:       serveConfig{},
		clients:     readClients,
		setup:       setupAudit,
		op:          readOp(""),
		steadyReads: true,
	},
	{
		name:        "publish",
		why:         "cold writes: ingest, (B,t) Mondrian, cold attack and risk sweep per chain; every cache misses",
		serve:       serveConfig{releaseCap: publishReleaseCap, datasetCap: publishDatasetCap},
		clients:     maxClients,
		setup:       setupPublish,
		op:          opPublish,
		passesPerOp: 3,
	},
	{
		name:        "certify",
		why:         "exact-inference reads: audit's mix with adaptive inference on the warmed (B,t) para1 release; exact DP dominates",
		serve:       serveConfig{},
		clients:     readClients,
		setup:       setupCertify,
		op:          readOp("adaptive"),
		steadyReads: true,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// anonymizeReq is the request for a Mondrian release at one of Table
// 5's parameter sets.
func anonymizeReq(dataset, model string, p core.Params) service.AnonymizeRequest {
	return service.AnonymizeRequest{Dataset: dataset, Algo: "mondrian", Model: model, K: p.K, L: p.L, T: p.T, B: p.B}
}

// ingest synthesizes the Adult dataset of one seed on the server.
func ingest(c *client, seed int64) (string, error) {
	var ds service.DatasetResponse
	if _, err := c.postInto("/v1/datasets", service.DatasetRequest{N: datasetN, Seed: seed}, &ds); err != nil {
		return "", err
	}
	if ds.Records != datasetN {
		return "", fmt.Errorf("dataset %s: %d records, want %d", ds.ID, ds.Records, datasetN)
	}
	return ds.ID, nil
}

// warmReleases ingests the readSeed dataset, anonymizes it under each
// (model, parameter set) and runs one Ω sweep over grid per release,
// so every prior the window can ask for is resident.
func warmReleases(c *client, seed int64, models []string, paras []core.Params) (*state, error) {
	st := &state{seed: seed}
	id, err := ingest(c, readSeed)
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		for _, p := range paras {
			req := anonymizeReq(id, m, p)
			var resp service.AnonymizeResponse
			if _, err := c.postInto("/v1/anonymize", req, &resp); err != nil {
				return nil, err
			}
			st.releases = append(st.releases, release{req: req, id: resp.Release})
		}
	}
	for _, r := range st.releases {
		if _, err := c.post("/v1/attack", service.AttackRequest{Release: r.id, BPrimes: grid}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// setupAudit warms the four releases cmd/loadgen warms by default:
// distinct and (B,t) at Table 5's para1 and para2.
func setupAudit(c *client, seed int64) (*state, error) {
	return warmReleases(c, seed, []string{"distinct", "bt"}, core.Table5()[:2])
}

// setupCertify warms the (B,t) release at para1, the ladder's release.
// The para2 release is left out: exact inference on it costs about
// twice as much, and two releases made every latency distribution
// bimodal, with the medians on the edge between the modes. t-closeness
// releases are left out too: one adaptive attack on an n=2000 one
// takes seconds.
func setupCertify(c *client, seed int64) (*state, error) {
	return warmReleases(c, seed, []string{"bt"}, core.Table5()[:1])
}

// setupPublish runs warm-up chains, on as many clients as the window
// uses, until the server's memory has reached its plateau: the release
// store starts evicting after publishReleaseCap chains, but RSS keeps
// climbing for about three times as many.
func setupPublish(c *client, seed int64) (*state, error) {
	st := &state{seed: seed}
	errs := make([]error, maxClients)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := newRecorder()
			for errs[i] == nil && st.chains.Load() < publishWarmChains {
				errs[i] = opPublish(c, st, deal{}, rec)
			}
		}(i)
	}
	wg.Wait()
	return st, errors.Join(errs...)
}

func f64(v float64) *float64 { return &v }

// Request mix of audit and certify. cmd/loadgen's default traffic is
// -mix anonymize:1,attack:4,risk:2, sent either as single-b' requests
// at a grid point or, with -sweep, as whole-grid sweeps. The read
// windows keep its attack:risk weights and send both forms, each
// carrying the same number of b' points: one 7-point sweep for every
// seven single-b' requests. They leave out its anonymize entry: after
// setup every anonymize is a release-store hit, and the windows' cache
// evidence is the steady-state guard (no pipeline run, no dataset
// build, no kernel prior pass).
const (
	mixAttack = 4
	mixRisk   = 2
)

// sweepPoint is the grid point of a deal that sends the whole grid.
const sweepPoint = -1

// deal is one operation's draw: a release (by index), a grid point
// (or sweepPoint) and a slot of the attack:risk weights.
type deal struct{ release, point, slot int }

// deck deals every (release, grid point or sweep, slot) combination
// once per shuffled pass. Every pass holds the mix in exact
// proportion, so a run's latency quantiles do not depend on how a
// random draw happened to split it; the seed only orders the pass.
type deck struct {
	rng   *rand.Rand
	cards []deal
	next  int
}

func newDeck(rng *rand.Rand, releases int) *deck {
	var cards []deal
	for r := 0; r < releases; r++ {
		for p := sweepPoint; p < len(grid); p++ {
			for s := 0; s < mixAttack+mixRisk; s++ {
				cards = append(cards, deal{r, p, s})
			}
		}
	}
	return &deck{rng: rng, cards: cards, next: len(cards)}
}

func (d *deck) draw() deal {
	if len(d.cards) == 0 {
		return deal{} // publish: every operation is the same chain
	}
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// readOp returns the operation of a read workload under one inference
// method ("" for the server's default, Ω): an attack or risk request,
// at the dealt grid point or over the whole grid.
func readOp(method string) func(*client, *state, deal, *recorder) error {
	return func(c *client, st *state, d deal, rec *recorder) error {
		body := service.AttackRequest{Release: st.releases[d.release].id, Inference: method}
		class := classQuery
		if d.point == sweepPoint {
			body.BPrimes, class = grid, classSweep
		} else {
			body.BPrime = f64(grid[d.point])
		}
		path := "/v1/attack"
		if d.slot >= mixAttack {
			path = "/v1/risk"
		}
		return rec.do(class, func() error { _, err := c.post(path, body); return err })
	}
}

// opPublish runs one publish chain on a new dataset: ingest, (B,t)
// Mondrian at para1, a cold single-b' attack and a cold risk sweep.
func opPublish(c *client, st *state, _ deal, rec *recorder) error {
	seed := chainSeed(st.seed, st.chains.Add(1)-1)
	var dsID string
	err := rec.do(classIngest, func() (err error) { dsID, err = ingest(c, seed); return err })
	if err != nil {
		return err
	}
	var resp service.AnonymizeResponse
	req := anonymizeReq(dsID, "bt", core.Table5()[0])
	if err := rec.do(classAnonymize, func() error {
		_, err := c.postInto("/v1/anonymize", req, &resp)
		if err == nil && resp.Cached {
			err = fmt.Errorf("release %s of a new dataset was cached", resp.Release)
		}
		return err
	}); err != nil {
		return err
	}
	attack := service.AttackRequest{Release: resp.Release, BPrime: f64(publishBPrime)}
	if err := rec.do(classQuery, func() error { _, err := c.post("/v1/attack", attack); return err }); err != nil {
		return err
	}
	risk := service.AttackRequest{Release: resp.Release, BPrimes: riskGrid}
	return rec.do(classSweep, func() error { _, err := c.post("/v1/risk", risk); return err })
}

// window runs the closed loop: w.clients clients, each sending its
// next operation only when the previous one has completed, until d has
// passed. It returns the merged accounting and the wall time from the
// start to the last client's return.
func window(w *workload, c *client, st *state, d time.Duration) (*recorder, time.Duration) {
	recs := make([]*recorder, w.clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dk := newDeck(rand.New(rand.NewSource(st.seed*7919+int64(i))), len(st.releases))
			rec := recs[i]
			for time.Now().Before(deadline) {
				d := dk.draw()
				_ = rec.do(classOp, func() error { return w.op(c, st, d, rec) }) // recorded per class
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := newRecorder()
	for _, r := range recs {
		all.merge(r)
	}
	return all, elapsed
}
