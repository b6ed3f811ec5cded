package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/adult"
	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/schema"
	"repro/internal/service"
)

// reference computes the answers the server must give, in-process on
// core.Engine: the same Adult synthesis, the same Mondrian release,
// the same attack. Engines and releases are built once per key.
type reference struct {
	engines  map[int64]*core.Engine
	releases map[string]*anonymize.Result
}

func newReference() *reference {
	return &reference{engines: map[int64]*core.Engine{}, releases: map[string]*anonymize.Result{}}
}

func (r *reference) engine(seed int64) (*core.Engine, error) {
	if e, ok := r.engines[seed]; ok {
		return e, nil
	}
	spec := adult.Spec()
	t, err := schema.Synthesize(spec, datasetN, seed)
	if err != nil {
		return nil, err
	}
	e, err := core.New(t, spec.Hierarchies(), nil, nil)
	if err != nil {
		return nil, err
	}
	r.engines[seed] = e
	return e, nil
}

func params(req service.AnonymizeRequest) core.Params {
	return core.Params{K: req.K, L: req.L, T: req.T, B: req.B}
}

func (r *reference) release(seed int64, req service.AnonymizeRequest) (*core.Engine, *anonymize.Result, error) {
	e, err := r.engine(seed)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%d|%s|%+v", seed, req.Model, params(req))
	if res, ok := r.releases[key]; ok {
		return e, res, nil
	}
	res, _, err := e.RunAlgorithmWith(context.Background(), nil, req.Algo, req.Model, params(req))
	if err != nil {
		return nil, nil, err
	}
	r.releases[key] = res
	return e, res, nil
}

// attack returns the reports for each b' of one attack or sweep.
func (r *reference) attack(seed int64, req service.AnonymizeRequest, bprimes []float64, method string) ([]*core.AttackReport, error) {
	e, res, err := r.release(seed, req)
	if err != nil {
		return nil, err
	}
	m, err := inference.ByName(method, 0)
	if err != nil {
		return nil, err
	}
	model, ok := core.ParseModel(req.Model)
	if !ok {
		return nil, fmt.Errorf("model %q", req.Model)
	}
	p := params(req)
	bvecs := make([][]float64, len(bprimes))
	for i, bp := range bprimes {
		bvecs[i] = kernel.UniformBandwidth(e.Table.Schema.D(), bp)
	}
	return e.AttackSweepWith(context.Background(), m, res, bvecs, p.T, e.BreachTest(model, p))
}

// probe is one answer-check request. It is sent three times: every
// answer must match the reference bit for bit, and the repeats must be
// byte-identical — all three for a read, the second and third for a
// request that creates state (its first answer says "cached": false).
type probe struct {
	name  string
	path  string
	body  any
	read  bool
	check func(ref *reference, body []byte) error
}

func sameFloat(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s = %v, reference %v", what, got, want)
	}
	return nil
}

func sameInt(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s = %d, reference %d", what, got, want)
	}
	return nil
}

// attackProbe checks a single-b' attack or risk, or a sweep of either.
func attackProbe(seed int64, r release, path string, bprimes []float64, sweep bool, method string) probe {
	body := service.AttackRequest{Release: r.id, Inference: method}
	if sweep {
		body.BPrimes = bprimes
	} else {
		body.BPrime = f64(bprimes[0])
	}
	return probe{
		name: fmt.Sprintf("%s %s b'=%v %s", path, r.req.Model, bprimes, method),
		path: path, body: body, read: true,
		check: func(ref *reference, b []byte) error {
			reps, err := ref.attack(seed, r.req, bprimes, method)
			if err != nil {
				return err
			}
			var got []service.AttackResponse
			if sweep {
				var sw service.AttackSweepResponse
				if err := json.Unmarshal(b, &sw); err != nil {
					return err
				}
				got = sw.Sweep
			} else {
				got = make([]service.AttackResponse, 1)
				if err := json.Unmarshal(b, &got[0]); err != nil {
					return err
				}
			}
			if len(got) != len(reps) {
				return fmt.Errorf("%d results, want %d", len(got), len(reps))
			}
			for i, rep := range reps {
				if err := sameFloat("worst_risk", got[i].WorstRisk, rep.WorstRisk); err != nil {
					return err
				}
				if path == "/v1/risk" {
					continue
				}
				if err := sameInt("records", got[i].Records, len(rep.Risks)); err != nil {
					return err
				}
				if err := sameInt("vulnerable", got[i].Vulnerable, rep.Vulnerable); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// releaseProbe checks an anonymize answer: its group and record counts.
func releaseProbe(seed int64, req service.AnonymizeRequest, read bool) probe {
	return probe{
		name: fmt.Sprintf("anonymize %s k=%d seed=%d", req.Model, req.K, seed),
		path: "/v1/anonymize", body: req, read: read,
		check: func(ref *reference, b []byte) error {
			_, res, err := ref.release(seed, req)
			if err != nil {
				return err
			}
			var got service.AnonymizeResponse
			if err := json.Unmarshal(b, &got); err != nil {
				return err
			}
			if err := sameInt("groups", got.Groups, len(res.Groups)); err != nil {
				return err
			}
			return sameInt("records", got.Records, res.Table.N())
		},
	}
}

// probes derives the answer-check set of a run from its seed, covering
// every operation class the workload sends.
func probes(w *workload, c *client, st *state) ([]probe, error) {
	rng := rand.New(rand.NewSource(st.seed ^ 0x5eed))
	pick := func() release { return st.releases[rng.Intn(len(st.releases))] }
	point := func() []float64 { return []float64{grid[rng.Intn(len(grid))]} }
	var ps []probe
	switch w.name {
	case "audit", "certify":
		method := ""
		if w.name == "certify" {
			method = "adaptive"
		}
		for _, r := range st.releases {
			ps = append(ps, releaseProbe(readSeed, r.req, true))
		}
		for _, path := range []string{"/v1/attack", "/v1/risk"} {
			ps = append(ps,
				attackProbe(readSeed, pick(), path, point(), false, method),
				attackProbe(readSeed, pick(), path, grid, true, method))
		}
	case "publish":
		// A chain on a dataset no window chain used: the next seed.
		seed := chainSeed(st.seed, st.chains.Add(1)-1)
		id, err := ingest(c, seed)
		if err != nil {
			return nil, err
		}
		req := anonymizeReq(id, "bt", core.Table5()[0])
		var resp service.AnonymizeResponse
		if _, err := c.postInto("/v1/anonymize", req, &resp); err != nil {
			return nil, err
		}
		r := release{req: req, id: resp.Release}
		ps = append(ps,
			releaseProbe(seed, req, false),
			attackProbe(seed, r, "/v1/attack", []float64{publishBPrime}, false, ""),
			attackProbe(seed, r, "/v1/risk", riskGrid, true, ""))
	}
	return ps, nil
}

// answerCheck sends every probe three times and compares. It returns
// the number of probes run and a message per failed one.
func answerCheck(w *workload, c *client, st *state) (int, []string) {
	ps, err := probes(w, c, st)
	if err != nil {
		return 1, []string{"building probes: " + err.Error()}
	}
	ref := newReference()
	var fails []string
	for _, p := range ps {
		if err := runProbe(c, ref, p); err != nil {
			fails = append(fails, p.name+": "+err.Error())
		}
	}
	return len(ps), fails
}

func runProbe(c *client, ref *reference, p probe) error {
	var bodies [3][]byte
	for i := range bodies {
		b, err := c.post(p.path, p.body)
		if err != nil {
			return err
		}
		if err := p.check(ref, b); err != nil {
			return err
		}
		bodies[i] = b
	}
	if p.read && !bytes.Equal(bodies[0], bodies[1]) {
		return fmt.Errorf("repeated read differs:\n%s\n%s", bodies[0], bodies[1])
	}
	if !bytes.Equal(bodies[1], bodies[2]) {
		return fmt.Errorf("repeated request differs:\n%s\n%s", bodies[1], bodies[2])
	}
	return nil
}
