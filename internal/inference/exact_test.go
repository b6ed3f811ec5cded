package inference

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/prob"
)

// DenseExactPosteriors and DenseGroupLikelihood export the dense
// reference DP to the external test package.
var (
	DenseExactPosteriors = denseExactPosteriors
	DenseGroupLikelihood = denseGroupLikelihood
)

// denseExactPosteriors is ExactPosteriors as dense (k+1)×states forward
// and backward tables scanned in full at every level, with each state's
// digits decoded by division. It is the bit-identity reference for the
// level-compressed walk.
func denseExactPosteriors(priors []prob.Dist, counts []int) ([]prob.Dist, error) {
	k := len(priors)
	if k == 0 {
		return nil, nil
	}
	m := len(counts)

	// Compress to the values present in the group.
	vals := make([]int, 0, m) // sensitive domain indexes present
	n := make([]int, 0, m)    // their counts
	total := 0
	for i, c := range counts {
		if c > 0 {
			vals = append(vals, i)
			n = append(n, c)
			total += c
		}
	}
	if total != k {
		return nil, fmt.Errorf("inference: counts sum to %d but group has %d tuples", total, k)
	}
	r := len(vals)

	// Mixed-radix encoding of remaining-count vectors.
	radix := make([]int, r)
	states := 1
	for i, ni := range n {
		radix[i] = states
		states *= ni + 1
		if states > MaxExactStates {
			return nil, fmt.Errorf("%w: %d tuples, %d distinct values", ErrTooLarge, k, r)
		}
	}
	full := 0
	for i, ni := range n {
		full += ni * radix[i]
	}

	// Scratch is carved from three backing arrays — the prior matrix,
	// the k+1 forward and backward state rows, and one digits buffer —
	// instead of allocating per tuple-step; every row starts zeroed, so
	// the arithmetic is untouched.
	prBack := make([]float64, k*r)
	pr := make([][]float64, k) // pr[j][i] = prior of tuple j on present value i
	for j, p := range priors {
		pr[j] = prBack[j*r : (j+1)*r]
		for i, v := range vals {
			pr[j][i] = p[v]
		}
	}
	fBack := make([]float64, (k+1)*states)
	bBack := make([]float64, (k+1)*states)
	digits := make([]int, r)

	// Forward: f[j] maps state -> weight of assigning tuples 0..j-1
	// starting from full counts. States unreachable stay 0.
	f := make([][]float64, k+1)
	for j := range f {
		f[j] = fBack[j*states : (j+1)*states]
	}
	f[0][full] = 1
	for j := 0; j < k; j++ {
		cur, nxt := f[j], f[j+1]
		for s, w := range cur {
			if w == 0 {
				continue
			}
			decode(s, radix, n, digits)
			for i := 0; i < r; i++ {
				if digits[i] > 0 && pr[j][i] > 0 {
					nxt[s-radix[i]] += w * pr[j][i]
				}
			}
		}
	}
	totalWeight := f[k][0]
	if totalWeight == 0 {
		return nil, fmt.Errorf("inference: zero likelihood — priors are inconsistent with the group's sensitive values")
	}

	// Backward: b[j] maps state -> weight of tuples j..k-1 consuming
	// exactly that state's counts.
	b := make([][]float64, k+1)
	for j := range b {
		b[j] = bBack[j*states : (j+1)*states]
	}
	b[k][0] = 1
	for j := k - 1; j >= 0; j-- {
		cur, prv := b[j], b[j+1]
		for s, w := range prv {
			if w == 0 {
				continue
			}
			decode(s, radix, n, digits)
			for i := 0; i < r; i++ {
				if digits[i] < n[i] && pr[j][i] > 0 {
					cur[s+radix[i]] += w * pr[j][i]
				}
			}
		}
	}

	out := make([]prob.Dist, k)
	for j := 0; j < k; j++ {
		post := make(prob.Dist, m)
		for s, wf := range f[j] {
			if wf == 0 {
				continue
			}
			decode(s, radix, n, digits)
			for i := 0; i < r; i++ {
				if digits[i] > 0 && pr[j][i] > 0 {
					post[vals[i]] += wf * pr[j][i] * b[j+1][s-radix[i]]
				}
			}
		}
		for i := range post {
			post[i] /= totalWeight
		}
		out[j] = post.Normalize()
	}
	return out, nil
}

// decode writes the mixed-radix digits of state s into out.
func decode(s int, radix, n []int, out []int) {
	for i := len(radix) - 1; i >= 0; i-- {
		out[i] = s / radix[i] % (n[i] + 1)
	}
}

// denseGroupLikelihood is GroupLikelihood as a dense two-row forward
// pass over every state: the reference for its bit-identity.
func denseGroupLikelihood(priors []prob.Dist, counts []int) (float64, error) {
	k := len(priors)
	if k == 0 {
		return 1, nil
	}
	vals := make([]int, 0, len(counts))
	n := make([]int, 0, len(counts))
	total := 0
	for i, c := range counts {
		if c > 0 {
			vals = append(vals, i)
			n = append(n, c)
			total += c
		}
	}
	if total != k {
		return 0, fmt.Errorf("inference: counts sum to %d but group has %d tuples", total, k)
	}
	r := len(vals)
	radix := make([]int, r)
	states := 1
	for i, ni := range n {
		radix[i] = states
		states *= ni + 1
		if states > MaxExactStates {
			return 0, fmt.Errorf("%w: %d tuples, %d distinct values", ErrTooLarge, k, r)
		}
	}
	full := 0
	for i, ni := range n {
		full += ni * radix[i]
	}
	// Two state rows, swapped and re-zeroed per tuple-step, replace the
	// per-step allocation; zeroing writes the same starting state the
	// fresh slice had.
	cur := make([]float64, states)
	nxt := make([]float64, states)
	cur[full] = 1
	digits := make([]int, r)
	for j := 0; j < k; j++ {
		for s, w := range cur {
			if w == 0 {
				continue
			}
			decode(s, radix, n, digits)
			for i := 0; i < r; i++ {
				if digits[i] > 0 {
					p := priors[j][vals[i]]
					if p > 0 {
						nxt[s-radix[i]] += w * p
					}
				}
			}
		}
		cur, nxt = nxt, cur
		for i := range nxt {
			nxt[i] = 0
		}
	}
	return cur[0], nil
}

// sameBits reports whether two posterior sets are bit-identical.
func sameBits(a, b []prob.Dist) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return false
		}
		for i := range a[j] {
			if math.Float64bits(a[j][i]) != math.Float64bits(b[j][i]) {
				return false
			}
		}
	}
	return true
}

// sameErr reports whether two calls failed alike: both succeeded, or
// both failed with the same message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// randomGroup draws a k-tuple group over an m-value domain whose priors
// hold exact zeros with probability zeroFrac per entry.
func randomGroup(rng *rand.Rand, k, m int, zeroFrac float64) ([]prob.Dist, []int) {
	priors := make([]prob.Dist, k)
	svals := make([]int, k)
	for j := range priors {
		priors[j] = randomDist(rng, m)
		for i := range priors[j] {
			if rng.Float64() < zeroFrac {
				priors[j][i] = 0
			}
		}
		svals[j] = rng.Intn(m)
	}
	return priors, svals
}

// checkAgainstDense fails t unless ExactPosteriors and GroupLikelihood
// are bit-identical to the dense reference on one group, errors
// included, and returns the posteriors (nil when both refused).
func checkAgainstDense(t *testing.T, label string, priors []prob.Dist, counts []int) []prob.Dist {
	t.Helper()
	got, gerr := ExactPosteriors(priors, counts)
	want, werr := denseExactPosteriors(priors, counts)
	if !sameErr(gerr, werr) {
		t.Fatalf("%s: ExactPosteriors err %v, dense reference err %v", label, gerr, werr)
	}
	if !sameBits(got, want) {
		t.Fatalf("%s: ExactPosteriors %v, dense reference %v", label, got, want)
	}
	gl, gerr := GroupLikelihood(priors, counts)
	wl, werr := denseGroupLikelihood(priors, counts)
	if !sameErr(gerr, werr) || math.Float64bits(gl) != math.Float64bits(wl) {
		t.Fatalf("%s: GroupLikelihood (%v, %v), dense reference (%v, %v)", label, gl, gerr, wl, werr)
	}
	return got
}

func TestExactBitIdenticalToDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(14)
		m := 1 + rng.Intn(6)
		zeroFrac := []float64{0, 0.2, 0.5}[trial%3]
		priors, svals := randomGroup(rng, k, m, zeroFrac)
		checkAgainstDense(t, fmt.Sprintf("trial %d (k=%d m=%d)", trial, k, m), priors, GroupCounts(svals, m))
	}
	// Refusals: mismatched counts, and a group past MaxExactStates.
	checkAgainstDense(t, "mismatched counts", paperPriors(), []int{1, 1})
	wide := make([]prob.Dist, 40)
	svals := make([]int, 40)
	for j := range wide {
		wide[j] = prob.Uniform(40)
		svals[j] = j
	}
	checkAgainstDense(t, "too large", wide, GroupCounts(svals, 40))
}

// FuzzExactPosteriors checks the walk on groups of k ≤ 8 tuples over
// m ≤ 5 values, with the zero bits of zeros knocking out prior
// entries: bit-identical to the dense reference, and within 1e-9 of
// explicit enumeration and of Ryser's permanent.
func FuzzExactPosteriors(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint64(0))
	f.Add(int64(7), uint8(8), uint8(5), uint64(0x8421_0842_1084_2108))
	f.Add(int64(42), uint8(6), uint8(3), uint64(0xffff_0000_ffff_0000))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, mRaw uint8, zeros uint64) {
		k := 1 + int(kRaw)%8
		m := 1 + int(mRaw)%5
		rng := rand.New(rand.NewSource(seed))
		priors, svals := randomGroup(rng, k, m, 0)
		for j := range priors {
			for i := range priors[j] {
				if zeros>>uint((j*m+i)%64)&1 == 1 {
					priors[j][i] = 0
				}
			}
		}
		counts := GroupCounts(svals, m)
		got := checkAgainstDense(t, "fuzz", priors, counts)
		if got == nil {
			return // zero likelihood: the dense reference refused alike
		}
		want := bruteForcePosteriors(priors, svals, m)
		for j := range got {
			if !prob.Equal(got[j], want[j], 1e-9) {
				t.Fatalf("tuple %d: DP %v, brute force %v", j, got[j], want[j])
			}
		}

		like, _ := GroupLikelihood(priors, counts)
		factor := 1.0
		for _, c := range counts {
			factor *= Factorial(c)
		}
		rows := make([][]float64, k)
		scale := 1.0 // Ryser's largest term: the product of row sums
		for j := range rows {
			rows[j] = priors[j]
			sum := 0.0
			for _, s := range svals {
				sum += priors[j][s]
			}
			scale *= sum
		}
		perm := PermanentFromGroup(rows, svals)
		// Ryser's inclusion–exclusion cancels, so its own rounding
		// error scales with its largest term, not with the permanent.
		tol := 1e-9*math.Max(perm, like*factor) + 1e-12*scale
		if math.Abs(perm-like*factor) > tol {
			t.Fatalf("perm %g, likelihood %g × %g = %g", perm, like, factor, like*factor)
		}
	})
}

// scratchShape is one group shape of the scratch-reuse tests.
type scratchShape struct {
	name   string
	priors []prob.Dist
	counts []int
}

// scratchShapes covers a large state space, a small one, a different
// number of present values, a zero-likelihood group (which takes
// scratch and then fails) and an oversized one (refused before).
func scratchShapes() []scratchShape {
	rng := rand.New(rand.NewSource(5))
	group := func(name string, m int, svals []int, zeroFrac float64) scratchShape {
		priors, _ := randomGroup(rng, len(svals), m, zeroFrac)
		return scratchShape{name, priors, GroupCounts(svals, m)}
	}
	var large, wide []int
	for v := 0; v < 6; v++ {
		large = append(large, v, v, v) // 4^6 = 4096 states, k = 18
	}
	for v := 0; v < 40; v++ {
		wide = append(wide, v)
	}
	inconsistent := scratchShape{"zero likelihood", []prob.Dist{{0, 1}, {0, 1}}, []int{2, 0}}
	tooLarge := scratchShape{"too large", make([]prob.Dist, len(wide)), GroupCounts(wide, 40)}
	for j := range tooLarge.priors {
		tooLarge.priors[j] = prob.Uniform(40)
	}
	return []scratchShape{
		group("large", 7, large, 0.1),
		group("small", 3, []int{0, 2, 2}, 0),
		group("five values", 6, []int{5, 1, 2, 3, 4, 1, 2, 3, 4, 5}, 0.2),
		inconsistent,
		tooLarge,
		group("one value", 2, []int{1, 1, 1, 1}, 0),
	}
}

// exactResult is one call's full outcome.
type exactResult struct {
	posts []prob.Dist
	like  float64
	err   error
}

func runExact(s scratchShape) exactResult {
	posts, err := ExactPosteriors(s.priors, s.counts)
	like, _ := GroupLikelihood(s.priors, s.counts)
	return exactResult{posts, like, err}
}

func (a exactResult) same(b exactResult) bool {
	return sameBits(a.posts, b.posts) && math.Float64bits(a.like) == math.Float64bits(b.like) && sameErr(a.err, b.err)
}

// freshResults runs every shape on an empty pool, so no call can see
// another's scratch.
func freshResults(shapes []scratchShape) []exactResult {
	out := make([]exactResult, len(shapes))
	for i, s := range shapes {
		walkPool = sync.Pool{}
		out[i] = runExact(s)
	}
	walkPool = sync.Pool{}
	return out
}

// fillCap overwrites all of s's capacity with v.
func fillCap[T any](s []T, v T) []T {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
	return s
}

// poisonPool fills a pooled walk's scratch, to capacity, with garbage,
// so a call that trusts any stale byte diverges.
func poisonPool() {
	w, _ := walkPool.Get().(*walk)
	if w == nil {
		return
	}
	nan := math.NaN()
	w.k, w.r, w.states = -1, -1, -1
	w.vals, w.n, w.radix, w.digit = fillCap(w.vals, -7), fillCap(w.n, -7), fillCap(w.radix, -7), fillCap(w.digit, -7)
	w.start, w.next = fillCap(w.start, -7), fillCap(w.next, -7)
	w.pr, w.f, w.b = fillCap(w.pr, nan), fillCap(w.f, nan), fillCap(w.b, nan)
	w.live, w.nonzero, w.notFull = fillCap(w.live, ^uint64(0)), fillCap(w.nonzero, ^uint64(0)), fillCap(w.notFull, ^uint64(0))
	w.lvl, w.order = fillCap(w.lvl, -7), fillCap(w.order, -7)
	walkPool.Put(w)
}

func TestExactScratchReuse(t *testing.T) {
	shapes := scratchShapes()
	want := freshResults(shapes)
	for i, w := range want {
		if shapes[i].name == "too large" && !errors.Is(w.err, ErrTooLarge) {
			t.Fatalf("too-large shape was not refused: %v", w.err)
		}
	}
	// Every order of shapes on one goroutine: each call inherits the
	// previous call's scratch, then a poisoned one.
	for _, poison := range []bool{false, true} {
		for rep := 0; rep < 3; rep++ {
			for i := range shapes {
				for j := range shapes {
					runExact(shapes[i])
					if poison {
						poisonPool()
					}
					if got := runExact(shapes[j]); !got.same(want[j]) {
						t.Fatalf("%s after %s (poison=%v): result differs from fresh scratch", shapes[j].name, shapes[i].name, poison)
					}
				}
			}
		}
	}
}

func TestExactScratchConcurrent(t *testing.T) {
	shapes := scratchShapes()
	want := freshResults(shapes)
	const goroutines, iters = 4, 60
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g*7 + it*3) % len(shapes)
				if got := runExact(shapes[i]); !got.same(want[i]) {
					errs <- fmt.Sprintf("goroutine %d iteration %d: %s differs from fresh scratch", g, it, shapes[i].name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
