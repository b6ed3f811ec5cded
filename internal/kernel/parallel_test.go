package kernel

import (
	"reflect"
	"testing"

	"repro/internal/adult"
	"repro/internal/prob"
)

// TestProfilePriorsDeterministicAcrossWorkers checks prior estimation
// is bit-identical at any pool size — each profile's Nadaraya–Watson
// sum is self-contained, so no float reassociation can occur.
func TestProfilePriorsDeterministicAcrossWorkers(t *testing.T) {
	tab := adult.Generate(300, 11)
	b := UniformBandwidth(tab.Schema.D(), 0.3)
	mk := func(workers int) *Estimator {
		e, err := NewEstimator(tab, adult.Hierarchies(), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = workers
		return e
	}
	want, err := mk(-1).ProfilePriors(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := mk(workers).ProfilePriors(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: profile priors differ from sequential", workers)
		}
	}
}

// TestProfilePriorsBatchDeterministic checks the fused sweep pass is
// bit-identical to independent single-bandwidth passes, at any pool
// size: the batch shares loads and indexing across the grid but keeps
// each (bandwidth, profile) accumulation in the fixed sequential order.
func TestProfilePriorsBatchDeterministic(t *testing.T) {
	tab := adult.Generate(300, 11)
	d := tab.Schema.D()
	bvecs := [][]float64{
		UniformBandwidth(d, 0.2),
		UniformBandwidth(d, 0.3),
		UniformBandwidth(d, 0.45),
	}
	seq, err := NewEstimator(tab, adult.Hierarchies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seq.Workers = -1
	want := make([][]prob.Dist, len(bvecs))
	for k, b := range bvecs {
		if want[k], err = seq.ProfilePriors(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{-1, 2, 0} {
		e, err := NewEstimator(tab, adult.Hierarchies(), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = workers
		got, err := e.ProfilePriorsBatch(bvecs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(bvecs) {
			t.Fatalf("workers=%d: %d results for %d bandwidths", workers, len(got), len(bvecs))
		}
		for k := range bvecs {
			for pi := range got[k] {
				for si, v := range got[k][pi] {
					if v != want[k][pi][si] {
						t.Fatalf("workers=%d bandwidth %d profile %d component %d: batch %v != single %v",
							workers, k, pi, si, v, want[k][pi][si])
					}
				}
			}
		}
	}
}

// TestWeightTablesConcurrentFirstUse runs the first passes of one
// cold estimator from many goroutines at once: each builds its own
// weight tables and candidate lists while all share the scratch pool,
// and every result must equal a sequential estimator's bit for bit.
func TestWeightTablesConcurrentFirstUse(t *testing.T) {
	tab := adult.Generate(100, 11)
	b := UniformBandwidth(tab.Schema.D(), 0.4)
	seq, err := NewEstimator(tab, adult.Hierarchies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	seq.Workers = -1
	want, err := seq.ProfilePriors(b)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(tab, adult.Hierarchies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 2
	done := make(chan []prob.Dist, 16)
	for i := 0; i < 16; i++ {
		go func() {
			got, err := e.ProfilePriors(b)
			if err != nil {
				t.Error(err)
			}
			done <- got
		}()
	}
	for i := 0; i < 16; i++ {
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Fatal("a concurrent first pass differs from the sequential estimator")
		}
	}
}
