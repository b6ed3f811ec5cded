package kernel

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/prob"
	"repro/internal/schema"
)

// randomSpec builds a small random schema: one to four QI attributes,
// each numeric (2–12 stepped values) or categorical (1–8 values, half of
// them under a two-level hierarchy), plus a flat categorical sensitive
// attribute of 2–5 values.
func randomSpec(rng *rand.Rand) *schema.Spec {
	spec := &schema.Spec{Name: "fuzz"}
	d := 1 + rng.Intn(4)
	for i := 0; i < d; i++ {
		name := "q" + strconv.Itoa(i)
		if rng.Intn(2) == 0 {
			r := 2 + rng.Intn(11)
			spec.Attributes = append(spec.Attributes, schema.Attr{
				Name: name, Kind: "numeric",
				Range: &schema.NumericRange{Min: 0, Max: float64(r - 1)},
			})
			continue
		}
		r := 1 + rng.Intn(8)
		vals := make([]string, r)
		for v := range vals {
			vals[v] = name + "v" + strconv.Itoa(v)
		}
		a := schema.Attr{Name: name, Kind: "categorical", Values: vals}
		if rng.Intn(2) == 0 {
			// Leaves in value order under consecutive groups of 1–3.
			root := &hierarchy.Tree{Label: "*"}
			for v := 0; v < r; {
				g := &hierarchy.Tree{Label: name + "g" + strconv.Itoa(len(root.Children))}
				for k := 1 + rng.Intn(3); k > 0 && v < r; k-- {
					g.Children = append(g.Children, &hierarchy.Tree{Label: vals[v]})
					v++
				}
				root.Children = append(root.Children, g)
			}
			a.Hierarchy = root
		}
		spec.Attributes = append(spec.Attributes, a)
	}
	m := 2 + rng.Intn(4)
	svals := make([]string, m)
	for v := range svals {
		svals[v] = "s" + strconv.Itoa(v)
	}
	spec.Attributes = append(spec.Attributes, schema.Attr{Name: "s", Kind: "categorical", Sensitive: true, Values: svals})
	return spec
}

// randomBandwidth draws a d-vector mixing sparse (≤ 0.1), moderate and
// wide (> 1) components, so a grid spans empty, partial and full
// kernel supports.
func randomBandwidth(rng *rand.Rand, d int) []float64 {
	b := make([]float64, d)
	for i := range b {
		switch rng.Intn(3) {
		case 0:
			b[i] = 0.01 + 0.09*rng.Float64()
		case 1:
			b[i] = 0.1 + 0.6*rng.Float64()
		default:
			b[i] = 0.7 + 0.8*rng.Float64()
		}
	}
	return b
}

// sameDist reports whether two distributions agree bit for bit.
func sameDist(a, b prob.Dist) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzPriorsPaths is the differential oracle over every prior-pass
// path: on a random schema, table, kernel and bandwidth grid, the lane
// pass pinned to width 4 and to width 8 (scalar tails included), each
// lane of the fused batch at grid sizes 1, 4, 5 and 9 (both interleave
// widths plus chunking), and PriorAt at each profile's own QI point
// must all equal the reference loop (referencePriors) bit for bit, at
// one worker and at two.
func FuzzPriorsPaths(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0))
	f.Add(int64(7), uint16(260), uint8(0))
	f.Add(int64(42), uint16(1), uint8(4))
	f.Add(int64(3), uint16(120), uint8(2))
	// Gaussian weights whose product underflows to zero in the fused
	// pass's break lane while another lane's survives.
	f.Add(int64(23), uint16(19), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, kernelRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generated spec invalid: %v", err)
		}
		tab, err := schema.Synthesize(spec, 1+int(nRaw)%400, seed)
		if err != nil {
			t.Fatal(err)
		}
		kernels := []Func{Epanechnikov{}, Uniform{}, Triangular{}, Biweight{}, Gaussian{}}
		k := kernels[int(kernelRaw)%len(kernels)]
		d := tab.Schema.D()
		grid := make([][]float64, 9)
		for i := range grid {
			grid[i] = randomBandwidth(rng, d)
		}
		e, err := NewEstimator(tab, spec.Hierarchies(), k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]prob.Dist, len(grid))
		for i, b := range grid {
			want[i] = referencePriors(e, b)
		}
		n, m := e.packed.N, e.packed.M
		for _, workers := range []int{-1, 2} {
			e.Workers = workers
			for i, b := range grid {
				ft := e.weightTables(nil, b)
				for _, lanes := range []int{4, 8} {
					ft.lanes = lanes
					out := make([]float64, n*m)
					e.priorPass(ft, out)
					for p, got := range sliceDists(out, n, m) {
						if !sameDist(got, want[i][p]) {
							t.Fatalf("workers=%d lanes=%d b=%v profile %d: lane pass %v, reference %v",
								workers, lanes, b, p, got, want[i][p])
						}
					}
				}
			}
			for _, size := range []int{1, 4, 5, 9} {
				batch, err := e.ProfilePriorsBatch(grid[:size])
				if err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					for p, got := range batch[i] {
						if !sameDist(got, want[i][p]) {
							t.Fatalf("workers=%d grid=%d lane %d b=%v profile %d: batch %v, reference %v",
								workers, size, i, grid[i], p, got, want[i][p])
						}
					}
				}
			}
		}
		for i, b := range grid {
			for p, prof := range e.profiles {
				got, err := e.PriorAt(prof.QI, b)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDist(got, want[i][p]) {
					t.Fatalf("b=%v profile %d: PriorAt %v, reference %v", b, p, got, want[i][p])
				}
			}
		}
	})
}
