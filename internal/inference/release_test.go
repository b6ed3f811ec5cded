package inference_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/adult"
	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/kernel"
	"repro/internal/prob"
)

// TestExactBitIdenticalOnRelease runs the walk and the dense reference
// on every group of the seed-42 Adult (n = 2000) (B,t) release at
// Table 5's para1, at each adversary bandwidth of the grid the serving
// benchmark warms, and requires bit-identical posteriors and
// likelihoods — the release whose adaptive attacks the walk serves.
func TestExactBitIdenticalOnRelease(t *testing.T) {
	table := adult.Generate(2000, 42)
	e, err := core.New(table, adult.Hierarchies(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AnonymizeModel(core.BTPrivacy, core.Table5()[0])
	if err != nil {
		t.Fatal(err)
	}
	m := table.Schema.M()
	for _, bp := range []float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5} {
		priors, err := e.Priors(kernel.UniformBandwidth(table.Schema.D(), bp))
		if err != nil {
			t.Fatal(err)
		}
		exact := 0
		for gi, g := range res.Groups {
			gp := make([]prob.Dist, g.Size())
			svals := make([]int, g.Size())
			for i, ri := range g.Rows {
				gp[i] = priors[ri]
				svals[i] = table.Records[ri].S
			}
			counts := inference.GroupCounts(svals, m)
			got, gerr := inference.ExactPosteriors(gp, counts)
			want, werr := inference.DenseExactPosteriors(gp, counts)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("b′=%g group %d: err %v, dense reference err %v", bp, gi, gerr, werr)
			}
			if gerr != nil {
				if !errors.Is(gerr, inference.ErrTooLarge) {
					t.Fatalf("b′=%g group %d: %v", bp, gi, gerr)
				}
				continue
			}
			exact++
			for j := range want {
				for i := range want[j] {
					if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
						t.Fatalf("b′=%g group %d tuple %d: %v, dense reference %v", bp, gi, j, got[j], want[j])
					}
				}
			}
			gl, _ := inference.GroupLikelihood(gp, counts)
			wl, _ := inference.DenseGroupLikelihood(gp, counts)
			if math.Float64bits(gl) != math.Float64bits(wl) {
				t.Fatalf("b′=%g group %d: likelihood %v, dense reference %v", bp, gi, gl, wl)
			}
		}
		if exact < len(res.Groups)*9/10 {
			t.Fatalf("b′=%g: only %d of %d groups were exact-feasible", bp, exact, len(res.Groups))
		}
		if bp == 0.3 {
			t.Logf("%d groups, %d exact-feasible", len(res.Groups), exact)
		}
	}
}
