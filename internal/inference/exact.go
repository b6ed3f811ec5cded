// The whole file is inference's allocation-audited region: hotalloc
// flags per-iteration allocation in every function here.
//
//detlint:hotpath

package inference

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/prob"
)

// MaxExactStates bounds the forward/backward DP state space. A group of
// k tuples with r distinct sensitive values has at most Π(n_i+1) ≤ 2^k
// states; the default bound admits k well past the paper's N = 15
// experiments while refusing degenerate inputs that would thrash memory.
// The walk indexes states with int32 and keeps one bit per present
// value in a uint64 (r ≤ log2 states), so the bound must stay below
// 2^31.
const MaxExactStates = 1 << 22

// ErrTooLarge reports a group whose exact posterior computation would
// exceed MaxExactStates.
var ErrTooLarge = errors.New("inference: group too large for exact inference")

// Exact computes exact posteriors by Bayesian inference over all
// assignments between the group's tuples and its sensitive multiset
// (Eq. 3/4). The likelihood P(S|E) is a permanent; we evaluate it and
// every leave-one-out permanent with a forward/backward DP over
// remaining-value counts:
//
//	f[j][c] = weight of assigning tuples 0..j-1, leaving counts c
//	b[j][c] = weight of assigning tuples j..k-1, consuming exactly c
//	P*(s_i|t_j) ∝ Σ_{c: c_i>0} f[j][c] · P(s_i|t_j) · b[j+1][c−e_i]
//
// Both f[j] and b[j] are nonzero only on states whose digits sum to
// k−j, so a state's digit sum fixes its level and each table is one
// row of length states holding every level at once. Cost is
// O(states · r) time per pass and O(states) space.
type Exact struct{}

// Name implements Method.
func (Exact) Name() string { return "exact" }

// Posteriors implements Method. It panics if the group exceeds
// MaxExactStates; callers choosing between methods should use
// ExactPosteriors and handle ErrTooLarge.
func (Exact) Posteriors(priors []prob.Dist, counts []int) []prob.Dist {
	out, err := ExactPosteriors(priors, counts)
	if err != nil {
		panic(err)
	}
	return out
}

// ExactPosteriors is Exact.Posteriors with explicit error reporting.
func ExactPosteriors(priors []prob.Dist, counts []int) ([]prob.Dist, error) {
	k := len(priors)
	if k == 0 {
		return nil, nil
	}
	w, err := newWalk(priors, counts)
	if err != nil {
		return nil, err
	}
	defer walkPool.Put(w)
	totalWeight := w.forward()
	if totalWeight == 0 {
		return nil, fmt.Errorf("inference: zero likelihood — priors are inconsistent with the group's sensitive values")
	}
	w.backward()

	m := len(counts)
	backing := make([]float64, k*m)
	out := make([]prob.Dist, k)
	for j := range out {
		post := prob.Dist(backing[j*m : (j+1)*m : (j+1)*m])
		w.posterior(j, post)
		for i := range post {
			post[i] /= totalWeight
		}
		out[j] = post.Normalize()
	}
	return out, nil
}

// GroupLikelihood returns P(S|E): the total weight of all assignments
// between tuples and the sensitive multiset, each distinct value
// mapping counted once. It is perm(M)/Π n_i! for the k×k prior matrix,
// and the forward half of ExactPosteriors' walk.
func GroupLikelihood(priors []prob.Dist, counts []int) (float64, error) {
	if len(priors) == 0 {
		return 1, nil
	}
	w, err := newWalk(priors, counts)
	if err != nil {
		return 0, err
	}
	defer walkPool.Put(w)
	return w.forward(), nil
}

// walkPool recycles walk scratch across groups and calls.
var walkPool sync.Pool

// walk is one group's level-compressed DP. States are remaining-count
// (forward) or consumed-count (backward) vectors over the r present
// values, encoded mixed-radix with digit i in base n_i+1. Every level
// is walked in ascending state order: the order in which the dense
// (k+1)×states tables met their nonzero entries, so every multiply and
// add happens in the same sequence and the results are bit-identical.
type walk struct {
	k, r, states int

	vals  []int // sensitive domain index of each present value
	n     []int // its count in the group
	radix []int // its mixed-radix place value
	digit []int // odometer digits while indexing

	pr   []float64 // k×r: pr[j*r+i] = prior of tuple j on present value i
	live []uint64  // per tuple: bit i set when pr[j*r+i] > 0

	lvl     []int32  // per state: its digit sum
	order   []int32  // states by level, ascending within a level
	start   []int    // level L is order[start[L]:start[L+1]]
	next    []int    // per-level placement cursor of the counting sort
	nonzero []uint64 // per state: bit i set when digit i > 0
	notFull []uint64 // per state: bit i set when digit i < n_i

	f, b []float64 // forward and backward weights, one row each
}

// newWalk validates the group, then draws pooled scratch and indexes
// its states. Refused groups never touch the pool.
func newWalk(priors []prob.Dist, counts []int) (*walk, error) {
	k := len(priors)
	total, r := 0, 0
	for _, c := range counts {
		if c > 0 {
			total += c
			r++
		}
	}
	if total != k {
		return nil, fmt.Errorf("inference: counts sum to %d but group has %d tuples", total, k)
	}
	states := 1
	for _, c := range counts {
		if c > 0 {
			states *= c + 1
			if states > MaxExactStates {
				return nil, fmt.Errorf("%w: %d tuples, %d distinct values", ErrTooLarge, k, r)
			}
		}
	}

	w, _ := walkPool.Get().(*walk)
	if w == nil {
		w = &walk{}
	}
	w.k, w.r, w.states = k, r, states
	w.vals, w.n, w.radix = grow(w.vals, r), grow(w.n, r), grow(w.radix, r)
	w.digit = grow(w.digit, r)
	w.pr, w.live = grow(w.pr, k*r), grow(w.live, k)
	w.lvl, w.order = grow(w.lvl, states), grow(w.order, states)
	w.start, w.next = grow(w.start, k+2), grow(w.next, k+1)
	w.nonzero, w.notFull = grow(w.nonzero, states), grow(w.notFull, states)
	w.f, w.b = grow(w.f, states), grow(w.b, states)
	clear(w.f)
	clear(w.b)

	x, place := 0, 1
	for v, c := range counts {
		if c > 0 {
			w.vals[x], w.n[x], w.radix[x] = v, c, place
			place *= c + 1
			x++
		}
	}
	for j, p := range priors {
		row := w.pr[j*r : (j+1)*r]
		var live uint64
		for i, v := range w.vals {
			row[i] = p[v]
			if row[i] > 0 {
				live |= 1 << i
			}
		}
		w.live[j] = live
	}
	w.index()
	return w, nil
}

// index runs an odometer over every state once, recording its digit
// masks and level, then counting-sorts the states by level. The sort
// is stable, so each level lists its states in ascending order.
func (w *walk) index() {
	r, n, d := w.r, w.n, w.digit
	clear(d)
	clear(w.start)
	var nonzero uint64
	notFull := uint64(1)<<r - 1 // every n_i ≥ 1, so the zero state is below all
	sum := 0
	for s := 0; s < w.states; s++ {
		w.nonzero[s], w.notFull[s] = nonzero, notFull
		w.lvl[s] = int32(sum)
		w.start[sum+1]++
		for i := 0; i < r; i++ {
			if d[i] < n[i] {
				d[i]++
				sum++
				nonzero |= 1 << i
				if d[i] == n[i] {
					notFull &^= 1 << i
				}
				break
			}
			sum -= d[i]
			d[i] = 0
			nonzero &^= 1 << i
			notFull |= 1 << i
		}
	}
	for L := 1; L < len(w.start); L++ {
		w.start[L] += w.start[L-1]
	}
	copy(w.next, w.start)
	for s, L := range w.lvl {
		w.order[w.next[L]] = int32(s)
		w.next[L]++
	}
}

// level returns the states whose digits sum to L, ascending.
func (w *walk) level(L int) []int32 { return w.order[w.start[L]:w.start[L+1]] }

// forward fills f from the full-count state (states−1) down to the
// empty one and returns f at the empty state: P(S|E).
func (w *walk) forward() float64 {
	r, f := w.r, w.f
	f[w.states-1] = 1
	for j := 0; j < w.k; j++ {
		prj := w.pr[j*r : (j+1)*r]
		for _, s := range w.level(w.k - j) {
			wt := f[s]
			if wt == 0 {
				continue
			}
			for bit := w.nonzero[s] & w.live[j]; bit != 0; bit &= bit - 1 {
				i := bits.TrailingZeros64(bit)
				f[int(s)-w.radix[i]] += wt * prj[i]
			}
		}
	}
	return f[0]
}

// backward fills b from the empty consumed state up to the full one.
func (w *walk) backward() {
	r, b := w.r, w.b
	b[0] = 1
	for j := w.k - 1; j >= 0; j-- {
		prj := w.pr[j*r : (j+1)*r]
		for _, s := range w.level(w.k - 1 - j) {
			wt := b[s]
			if wt == 0 {
				continue
			}
			for bit := w.notFull[s] & w.live[j]; bit != 0; bit &= bit - 1 {
				i := bits.TrailingZeros64(bit)
				b[int(s)+w.radix[i]] += wt * prj[i]
			}
		}
	}
}

// posterior accumulates tuple j's unnormalised posterior into post.
func (w *walk) posterior(j int, post prob.Dist) {
	r, f, b := w.r, w.f, w.b
	prj := w.pr[j*r : (j+1)*r]
	for _, s := range w.level(w.k - j) {
		wf := f[s]
		if wf == 0 {
			continue
		}
		for bit := w.nonzero[s] & w.live[j]; bit != 0; bit &= bit - 1 {
			i := bits.TrailingZeros64(bit)
			post[w.vals[i]] += wf * prj[i] * b[int(s)-w.radix[i]]
		}
	}
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short. Callers overwrite or clear what they use.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
