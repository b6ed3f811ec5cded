package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/adult"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/prob"
)

// sweepGrid is the bandwidth grid the sweep tests exercise — mixed
// order on purpose, so nothing relies on the grid being sorted.
func sweepGrid(d int) [][]float64 {
	grid := [][]float64{}
	for _, b := range []float64{0.3, 0.2, 0.45, 0.25} {
		grid = append(grid, kernel.UniformBandwidth(d, b))
	}
	return grid
}

// TestAttackSweepMatchesIndependentAttacks pins the amortized sweep to
// N independent Attack calls, bitwise: shared prior passes, hoisted
// breach construction, and the fused dispatch must not change a single
// float.
func TestAttackSweepMatchesIndependentAttacks(t *testing.T) {
	table := adult.Generate(400, 5)
	p := Table5()[0]
	grid := sweepGrid(table.Schema.D())

	// Independent attacks on their own engine, so the sweep engine's
	// prior cache cannot leak into the reference.
	ref, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.AnonymizeModel(BTPrivacy, p)
	if err != nil {
		t.Fatal(err)
	}
	breach := ref.BreachTest(BTPrivacy, p)
	want := make([]*AttackReport, len(grid))
	for i, bvec := range grid {
		if want[i], err = ref.Attack(res, bvec, p.T, breach); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{-1, 2, 0} {
		e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(parallel.Resolve(workers)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.AttackSweep(res, grid, p.T, e.BreachTest(BTPrivacy, p))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(grid) {
			t.Fatalf("workers=%d: %d reports for %d bandwidths", workers, len(got), len(grid))
		}
		for i := range grid {
			if got[i].Vulnerable != want[i].Vulnerable || got[i].WorstRisk != want[i].WorstRisk {
				t.Fatalf("workers=%d bandwidth %d: sweep summary (%d, %v) != independent (%d, %v)",
					workers, i, got[i].Vulnerable, got[i].WorstRisk, want[i].Vulnerable, want[i].WorstRisk)
			}
			if !reflect.DeepEqual(got[i].Risks, want[i].Risks) {
				t.Fatalf("workers=%d bandwidth %d: sweep risks differ from independent attack", workers, i)
			}
		}
	}
}

// TestAttackSweepWarmCache checks a sweep over bandwidths the engine
// has already cached (plus fresh ones) still matches — the cache-hit
// and batch-computed halves of PriorsBatch must agree.
func TestAttackSweepWarmCache(t *testing.T) {
	table := adult.Generate(300, 9)
	p := Table5()[0]
	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AnonymizeModel(DistinctLDiversity, p)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweepGrid(table.Schema.D())
	// Warm two of the four bandwidths through the single-path cache.
	if _, err := e.Priors(grid[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Priors(grid[3]); err != nil {
		t.Fatal(err)
	}
	breach := e.BreachTest(DistinctLDiversity, p)
	got, err := e.AttackSweep(res, grid, p.T, breach)
	if err != nil {
		t.Fatal(err)
	}
	for i, bvec := range grid {
		want, err := e.Attack(res, bvec, p.T, breach)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Risks, want.Risks) || got[i].Vulnerable != want.Vulnerable {
			t.Fatalf("bandwidth %d: warm-cache sweep differs from single attack", i)
		}
	}
}

// TestWorstCaseRiskSweep pins the sweep form of Figure 3's quantity to
// per-bandwidth WorstCaseRisk calls.
func TestWorstCaseRiskSweep(t *testing.T) {
	table := adult.Generate(300, 9)
	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AnonymizeModel(BTPrivacy, Table5()[0])
	if err != nil {
		t.Fatal(err)
	}
	grid := sweepGrid(table.Schema.D())
	got, err := e.WorstCaseRiskSweep(res, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, bvec := range grid {
		want, err := e.WorstCaseRisk(res, bvec)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("bandwidth %d: sweep risk %v != single %v", i, got[i], want)
		}
	}
}

// TestPriorsBatchSharesCache checks PriorsBatch populates the same
// cache Priors reads: a following single call must return the
// identical slices without recomputing.
func TestPriorsBatchSharesCache(t *testing.T) {
	table := adult.Generate(200, 3)
	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	grid := sweepGrid(table.Schema.D())
	batch, err := e.PriorsBatch(grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, bvec := range grid {
		single, err := e.Priors(bvec)
		if err != nil {
			t.Fatal(err)
		}
		if &single[0][0] != &batch[i][0][0] {
			t.Fatalf("bandwidth %d: Priors recomputed instead of hitting the batch-filled cache", i)
		}
	}
}

// TestPriorsConcurrentOverlappingGrids runs Priors and PriorsBatch
// from many goroutines on overlapping grids. Every answer must equal a
// sequential engine's bit for bit, and the shared cache must run each
// bandwidth's table build and prior pass exactly once: the priors
// spans' lanes sum to the number of distinct bandwidths.
func TestPriorsConcurrentOverlappingGrids(t *testing.T) {
	table := adult.Generate(200, 3)
	d := table.Schema.D()
	bws := []float64{0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45}
	grids := make([][][]float64, 6)
	for g := range grids {
		for j := 0; j < 4; j++ {
			grids[g] = append(grids[g], kernel.UniformBandwidth(d, bws[(g+2*j)%len(bws)]))
		}
	}
	seq, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]prob.Dist{}
	for _, bw := range bws {
		b := kernel.UniformBandwidth(d, bw)
		if want[kernel.BandwidthKey(b)], err = seq.Priors(b); err != nil {
			t.Fatal(err)
		}
	}

	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(1)
	check := func(b []float64, got []prob.Dist) {
		if !reflect.DeepEqual(got, want[kernel.BandwidthKey(b)]) {
			t.Errorf("b=%v: priors differ from the sequential engine", b)
		}
	}
	var wg sync.WaitGroup
	for g, grid := range grids {
		wg.Add(2)
		go func(grid [][]float64) {
			defer wg.Done()
			got, err := e.priorsBatchSpan(tracer.Start("batch").Root(), grid)
			if err != nil {
				t.Error(err)
				return
			}
			for i, b := range grid {
				check(b, got[i])
			}
		}(grid)
		go func(b []float64) {
			defer wg.Done()
			got, err := e.priorsSpan(tracer.Start("single").Root(), b)
			if err != nil {
				t.Error(err)
				return
			}
			check(b, got)
		}(grid[g%len(grid)])
	}
	wg.Wait()
	lanes := 0
	for _, s := range tracer.Stages().Samples(obs.StagePriors) {
		lanes += s.Shape.Lanes
	}
	if lanes != len(bws) {
		t.Errorf("prior passes covered %d bandwidths, want each of %d exactly once", lanes, len(bws))
	}
	if got := len(tracer.Stages().Samples(obs.StageKernelTable)); got != len(bws) {
		t.Errorf("%d weight-table builds, want %d", got, len(bws))
	}
}

// TestPriorsBatchInvalidBandwidth checks that a grid holding one
// invalid bandwidth fails as a whole without caching the failure: its
// valid members stay computable, and equal to a fresh engine's.
func TestPriorsBatchInvalidBandwidth(t *testing.T) {
	table := adult.Generate(200, 3)
	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	d := table.Schema.D()
	valid := kernel.UniformBandwidth(d, 0.3)
	if _, err := e.PriorsBatch([][]float64{valid, kernel.UniformBandwidth(d, -1)}); err == nil {
		t.Fatal("grid with a negative bandwidth did not fail")
	}
	got, err := e.Priors(valid)
	if err != nil {
		t.Fatalf("valid member of a failed grid: %v", err)
	}
	fresh, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Priors(valid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("priors after a failed grid differ from a fresh engine's")
	}
}
