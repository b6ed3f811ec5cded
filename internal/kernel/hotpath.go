// The whole file is the kernel's allocation-audited region: hotalloc
// flags per-iteration allocation in every function here.
//
//detlint:hotpath
package kernel

import (
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/prob"
)

// The Nadaraya–Watson pass is the framework's dominant cost (the
// paper's Figure 4(b)): O(profiles² · d) kernel products plus an
// O(profiles² · m) accumulation. This file is the flat, cache-blocked
// form of that pass. The profile set is packed once into a
// struct-of-arrays layout (dataset.PackedProfiles) and the
// per-attribute weight tables are flattened into one stride-indexed
// vector, so the inner loop is sequential loads and d multiplies with
// no pointer chasing; the profile×profile iteration space is tiled so
// the streamed operand block stays in L1/L2 across a tile of query
// profiles; scratch accumulators come from a pool, reused across
// calls; and compact-support kernels zero most pair weights, so each
// pass indexes its tables' candidate lists — the profiles with a
// nonzero weight against each query value — and every query profile
// streams only the candidates of its most selective attribute instead
// of testing all n pairs.
//
// Skipping a pair whose product is provably zero does not touch the
// arithmetic, and per-profile accumulation order is fixed — candidate
// lists are ascending, so profile u still runs in increasing order for
// every query profile p regardless of tile size or worker count. The
// results are therefore bit-identical to the sequential,
// pre-flattening implementation (pinned by golden_test.go).

// Tile sizes for the blocked profile×profile iteration. uTile bounds
// the streamed block (QI rows, weights, histogram rows: roughly
// uTile·(4d + 8 + 8m) bytes — ~28 KiB for the Adult schema), which is
// reused by every one of the pTile query profiles before the pass
// moves on; both tiles target L1 with room for the weight tables.
const (
	pTile = 64
	uTile = 192
)

// flatTables is one bandwidth's weight-table set, flattened: attribute
// i's table occupies w[off[i] : off[i]+stride[i]²] row-major, so the
// weight for query value v against data value u is
// w[off[i] + v·stride[i] + u]. All tables for one estimator share
// off/stride (they depend only on the schema), which is what lets a
// bandwidth sweep concatenate its tables and index them with a single
// shared offset per (profile pair, attribute).
type flatTables struct {
	w      []float64
	off    []int
	stride []int
	size   int

	// lanes is the block width of the lane pass (4 or 8), chosen at
	// table build from the table's nonzero density (laneWidthFor).
	lanes int
}

// candSet holds the candidate lists the pass iterates instead of all n
// pairs: for each query profile, the ascending profile indexes whose
// weight on the profile's most selective attribute is nonzero — any
// pair outside that list has a zero product. Only the lists of winning
// (attribute, value) pairs are materialized, and a value whose support
// is a single partner value — every categorical attribute under a
// sub-sibling bandwidth — shares its estimator bucket outright, so
// construction is output-proportional rather than O(Σᵢ rᵢ·n).
type candSet struct {
	winner []int32     // per profile: the chosen attribute
	lists  [][][]int32 // [attribute][value] → ascending candidates (nil unless chosen)
}

// buildFlat evaluates the kernel over the distance matrices at
// bandwidth vector b, in flat layout, and indexes its candidates.
func (e *Estimator) buildFlat(b []float64) *flatTables {
	d := len(e.Matrices)
	ft := &flatTables{off: make([]int, d), stride: make([]int, d)}
	for i, m := range e.Matrices {
		ft.off[i] = ft.size
		ft.stride[i] = len(m)
		ft.size += len(m) * len(m)
	}
	ft.w = make([]float64, ft.size)
	for i, m := range e.Matrices {
		base := ft.off[i]
		for v, row := range m {
			fillWeights(ft.w[base+v*ft.stride[i]:], e.Kernel, row, b[i])
		}
	}
	nnz := 0
	for _, w := range ft.w {
		if w != 0 {
			nnz++
		}
	}
	ft.lanes = laneWidthFor(nnz, ft.size)
	return ft
}

// fillWeights evaluates one table row, devirtualizing the default
// kernel: the concrete Epanechnikov call inlines into the loop, where
// the interface dispatch cannot.
func fillWeights(dst []float64, k Func, xs []float64, b float64) {
	if ep, ok := k.(Epanechnikov); ok {
		for u, x := range xs {
			dst[u] = ep.Weight(x, b)
		}
		return
	}
	for u, x := range xs {
		dst[u] = k.Weight(x, b)
	}
}

// buildCands indexes the packed profiles by weight-table support:
// nonzero reports whether the flat table index idx holds a usable
// weight. The same builder serves a single bandwidth (its own table)
// and a sweep (the OR of the grid's tables). Construction is three
// cheap passes: per-(attribute, value) support sets over the domain
// (O(Σᵢ rᵢ²)), candidate-count tables from the bucket sizes (no
// profile scan), a winner per profile (O(n·d)) — then only the winning
// lists materialize.
func (e *Estimator) buildCands(nonzero func(idx int) bool) candSet {
	pp := e.packed
	d, n := pp.D, pp.N
	// Support sets and list lengths per (attribute, value).
	support := make([][][]int32, d) // [attribute][value] → partner values with weight
	lens := make([][]int32, d)      // [attribute][value] → candidate count
	off := 0
	for i, m := range e.Matrices {
		r := len(m)
		support[i] = make([][]int32, r)
		lens[i] = make([]int32, r)
		boff := e.bucketOff[i]
		for v := 0; v < r; v++ {
			rowIdx := off + v*r
			for dv := 0; dv < r; dv++ {
				if nonzero(rowIdx + dv) {
					//lint:ignore hotalloc construction path, once per table set per pass; support size is data-dependent and output-proportional
					support[i][v] = append(support[i][v], int32(dv))
					lens[i][v] += boff[dv+1] - boff[dv]
				}
			}
		}
		off += r * r
	}
	cs := candSet{winner: make([]int32, n), lists: make([][][]int32, d)}
	for i := range cs.lists {
		cs.lists[i] = make([][]int32, len(e.Matrices[i]))
	}
	for p := 0; p < n; p++ {
		best, bestLen := 0, int32(-1)
		for i := 0; i < d; i++ {
			if l := lens[i][pp.QI[p*d+i]]; bestLen < 0 || l < bestLen {
				best, bestLen = i, l
			}
		}
		cs.winner[p] = int32(best)
		v := int(pp.QI[p*d+best])
		if cs.lists[best][v] == nil && bestLen > 0 {
			cs.lists[best][v] = e.materializeList(best, v, support[best][v])
		}
	}
	return cs
}

// materializeList builds the ascending candidate list for one winning
// (attribute, value) pair. A single-value support shares the
// estimator's bucket; anything wider merges by scanning the attribute
// column once with the support marked.
func (e *Estimator) materializeList(i, v int, support []int32) []int32 {
	boff := e.bucketOff[i]
	if len(support) == 1 {
		dv := support[0]
		return e.buckets[i][boff[dv]:boff[dv+1]]
	}
	pp := e.packed
	d, n := pp.D, pp.N
	mark := make([]bool, len(e.Matrices[i]))
	total := int32(0)
	for _, dv := range support {
		mark[dv] = true
		total += boff[dv+1] - boff[dv]
	}
	out := make([]int32, 0, total)
	for u := 0; u < n; u++ {
		if mark[pp.QI[u*d+i]] {
			out = append(out, int32(u))
		}
	}
	return out
}

// bestList returns query profile p's candidate list — its most
// selective attribute's — as an ascending slice of profile indexes.
func (cs *candSet) bestList(pp *dataset.PackedProfiles, p int) []int32 {
	i := cs.winner[p]
	return cs.lists[i][pp.QI[p*pp.D+int(i)]]
}

// passScratch is one worker's reusable tile state: per-profile
// denominators, precomputed weight-row bases, and candidate cursors
// and list headers.
type passScratch struct {
	denom []float64
	base  []int
	cur   []int
	lists [][]int32
}

// getScratch returns pooled scratch with the requested capacities.
func (e *Estimator) getScratch(denomLen, baseLen int) *passScratch {
	sc, _ := e.pool.Get().(*passScratch)
	if sc == nil {
		sc = &passScratch{}
	}
	if cap(sc.denom) < denomLen {
		sc.denom = make([]float64, denomLen)
	}
	if cap(sc.base) < baseLen {
		sc.base = make([]int, baseLen)
	}
	if cap(sc.cur) < pTile {
		sc.cur = make([]int, pTile)
		sc.lists = make([][]int32, pTile)
	}
	return sc
}

// sliceDists carves one prob.Dist per profile out of a flat backing
// array — the only steady-state allocation a warm pass performs.
func sliceDists(backing []float64, n, m int) []prob.Dist {
	dists := make([]prob.Dist, n)
	for p := 0; p < n; p++ {
		dists[p] = prob.Dist(backing[p*m : (p+1)*m : (p+1)*m])
	}
	return dists
}

// fillBases precomputes, for each query profile of a tile, the flat
// index of its weight-table row per attribute: the inner loop then
// finds the pair weight with one add per attribute.
func fillBases(pp *dataset.PackedProfiles, ft *flatTables, base []int, p0, p1 int) {
	d := pp.D
	for p := p0; p < p1; p++ {
		for i := 0; i < d; i++ {
			base[(p-p0)*d+i] = ft.off[i] + int(pp.QI[p*d+i])*ft.stride[i]
		}
	}
}

// batchChunk is the fused pass's grid width: bandwidths are processed
// up to batchChunk at a time so the per-pair working products live in
// one fixed-size stack array, the inner loops run branchless over a
// compiler-known bound, and each chunk's candidate union stays tight.
const batchChunk = 8

// mulLane8 multiplies one interleaved width-8 table row into the
// chunk's working products — a fixed bound the compiler keeps
// bounds-check-free and inlines into the fused pass.
func mulLane8(wk *[batchChunk]float64, row *[8]float64) {
	for k := 0; k < 8; k++ {
		wk[k] *= row[k]
	}
}

// mulLane4 is mulLane8 at interleave width four; lanes past the
// chunk's width are untouched (and unread: the fold loops stop at nb).
func mulLane4(wk *[batchChunk]float64, row *[4]float64) {
	for k := 0; k < 4; k++ {
		wk[k] *= row[k]
	}
}

// priorPassBatch is the fused multi-bandwidth pass over one chunk
// (len(fts) ≤ batchChunk): one sweep of the profile×profile space
// computes every bandwidth's prior at once. The grid's tables are
// interleaved — entry idx holds its nb bandwidths contiguously — so a
// pair's weights for the whole chunk are nb sequential loads, and the
// nb independent multiply chains interleave where the single-bandwidth
// pass serializes on one. That is the sweep amortization AttackSweep
// and the service's bprimes form ride on. Each (bandwidth, profile)
// accumulation runs in the same fixed order as the single-bandwidth
// pass — a zero factor keeps the product zero with or without the
// single pass's early break — so outs[k] is bit-identical to priorPass
// with fts[k].
func (e *Estimator) priorPassBatch(fts []*flatTables, outs [][]float64) {
	pp := e.packed
	n, d, m := pp.N, pp.D, pp.M
	nb := len(fts)
	tlen := fts[0].size
	// The interleaved table carries a fixed lane count chosen at build
	// — width 4 for chunks of up to four bandwidths, width 8 above —
	// so a narrow chunk halves its table footprint and multiply work
	// instead of dragging spare all-zero lanes. A chunk narrower than
	// its width leaves the spare lanes all-zero: their products die at
	// the first multiply and never reach the accumulation phase. Fixed
	// widths let the multiply helpers run over compiler-known bounds —
	// no bounds checks in the inner loop.
	lw := 8
	if nb <= 4 {
		lw = 4
	}
	big := make([]float64, lw*tlen)
	for k, ft := range fts {
		for idx, w := range ft.w {
			big[idx*lw+k] = w
		}
	}
	// Candidates of the chunk's union support: a pair outside it is
	// zero under every bandwidth of the chunk.
	union := e.buildCands(func(idx int) bool {
		for _, ft := range fts {
			if ft.w[idx] != 0 {
				return true
			}
		}
		return false
	})
	// A lane whose support equals the union's dominates the chunk: its
	// running product goes zero only when every lane's has — unless it
	// underflowed, so a zero there is confirmed by the interleave
	// width's lane sum (products are nonnegative, and spare lanes die at
	// the first multiply) before the pair is dropped. Any uniform b' grid under a compact
	// kernel has one (the widest bandwidth), and it gives the fused
	// loop the early break the single pass enjoys. Verified from the
	// tables, not assumed from kernel shape.
	breakLane := -1
	laneNZ := make([]int, nb)
	unionNZ := 0
	for idx := 0; idx < tlen; idx++ {
		any := false
		for k, ft := range fts {
			if ft.w[idx] != 0 {
				laneNZ[k]++
				any = true
			}
		}
		if any {
			unionNZ++
		}
	}
	for k, nz := range laneNZ {
		if nz == unionNZ {
			breakLane = k
			break
		}
	}
	ft0 := fts[0]
	tiles := (n + pTile - 1) / pTile
	parallel.For(e.Workers, tiles, func(ti int) {
		p0 := ti * pTile
		p1 := p0 + pTile
		if p1 > n {
			p1 = n
		}
		sc := e.getScratch((p1-p0)*nb, (p1-p0)*d)
		denom := sc.denom[:(p1-p0)*nb]
		for i := range denom {
			denom[i] = 0
		}
		base := sc.base[:(p1-p0)*d]
		fillBases(pp, ft0, base, p0, p1)
		for pl := 0; pl < p1-p0; pl++ {
			sc.lists[pl] = union.bestList(pp, p0+pl)
			sc.cur[pl] = 0
		}
		var wk [batchChunk]float64
		// blp watches the dominating lane's running product; with no
		// such lane it watches a sentinel that never reads zero.
		sentinel := 1.0
		blp := &sentinel
		if breakLane >= 0 {
			blp = &wk[breakLane]
		}
		for u0 := 0; u0 < n; u0 += uTile {
			u1 := u0 + uTile
			if u1 > n {
				u1 = n
			}
			for p := p0; p < p1; p++ {
				pl := p - p0
				bs := base[pl*d : pl*d+d]
				dn := denom[pl*nb : pl*nb+nb]
				list := sc.lists[pl]
				c := sc.cur[pl]
				for ; c < len(list) && int(list[c]) < u1; c++ {
					u := int(list[c])
					wu := pp.Weights[u]
					for k := 0; k < batchChunk; k++ {
						wk[k] = wu
					}
					uq := pp.QI[u*d : u*d+d]
					dead := false
					if lw == 4 {
						for i, b := range bs {
							mulLane4(&wk, (*[4]float64)(big[(b+int(uq[i]))*4:]))
							if *blp == 0 && wk[0]+wk[1]+wk[2]+wk[3] == 0 {
								dead = true
								break
							}
						}
					} else {
						for i, b := range bs {
							mulLane8(&wk, (*[8]float64)(big[(b+int(uq[i]))*8:]))
							if *blp == 0 && wk[0]+wk[1]+wk[2]+wk[3]+wk[4]+wk[5]+wk[6]+wk[7] == 0 {
								dead = true
								break
							}
						}
					}
					if dead {
						continue
					}
					// Fold the surviving products into the chunk's
					// denominators and scales, then stream the pair's
					// (few) populated sensitive values once for all
					// bandwidths.
					var scale [batchChunk]float64
					any := false
					for k := 0; k < nb; k++ {
						if w := wk[k]; w != 0 {
							dn[k] += w
							if wu != 1 {
								scale[k] = w / wu
							} else {
								scale[k] = w
							}
							any = true
						} else {
							scale[k] = 0
						}
					}
					if !any {
						continue
					}
					for _, si := range pp.NZIdx[pp.NZOff[u]:pp.NZOff[u+1]] {
						cnt := pp.Counts[u*m+int(si)]
						row := p*m + int(si)
						for k := 0; k < nb; k++ {
							if scale[k] != 0 {
								outs[k][row] += scale[k] * cnt
							}
						}
					}
				}
				sc.cur[pl] = c
			}
		}
		for p := p0; p < p1; p++ {
			for k := 0; k < nb; k++ {
				e.finish(outs[k][p*m:p*m+m], denom[(p-p0)*nb+k])
			}
		}
		e.pool.Put(sc)
	})
}

// finish normalizes one accumulated prior row in place, falling back
// to the whole-table distribution when every kernel weight vanished —
// the weakest consistent prior, as in the unflattened implementation.
func (e *Estimator) finish(acc []float64, denom float64) {
	if denom == 0 {
		copy(acc, e.whole)
		return
	}
	for i := range acc {
		acc[i] /= denom
	}
}

// priorAtPoint runs the Nadaraya–Watson sum for one arbitrary QI point
// q (value indexes), which need not occur in the table, with the
// pass's own scalar product and accumulation.
func (e *Estimator) priorAtPoint(q []int, ft *flatTables) prob.Dist {
	pp := e.packed
	n, d, m := pp.N, pp.D, pp.M
	acc := make(prob.Dist, m)
	base := make([]int, d)
	for i := 0; i < d; i++ {
		base[i] = ft.off[i] + q[i]*ft.stride[i]
	}
	denom := 0.0
	for u := 0; u < n; u++ {
		if w := e.scalarProduct(ft, base, u); w != 0 {
			accumulate(pp, acc, &denom, u, w)
		}
	}
	e.finish(acc, denom)
	return acc
}
