// Column-sharded kernels for the bounded-tableau simplex solvers.
//
// The per-iteration dominant costs of [DualWarm] and [Bounded] —
// entering-column pricing, the dual ratio test, repricing the reduced
// costs, and the row-eta tableau update — are all column-parallel:
// every column's work is independent of every other column's. They fan
// out here over contiguous column shards on the engine's par.Group,
// exactly like the graph kernels.
//
// # Determinism contract
//
// Results are bit-identical to the sequential path for every worker
// count:
//
//   - Element-wise updates (the tableau elimination and the reduced-cost
//     update) perform the identical float64 operations per element —
//     sharding only changes which worker executes a column, never the
//     operation sequence a column sees.
//
//   - Column accumulations (repricing d = c − c_B·B⁻¹A) iterate basis
//     rows in ascending order per column, the exact operation sequence
//     of the sequential row-major loop under loop interchange.
//
//   - Argmin/argmax selections merge per-worker candidates in shard
//     order under a total order: the dual ratio test is a two-pass rule
//     (exact minimum ratio — a float min, order-free — then the largest
//     |α| within the tolerance band above it, ties to the smallest
//     column), and the primal entering scan keeps Dantzig's
//     (violation desc, column asc) order, which a strict per-shard `>`
//     plus an ascending shard merge reproduces exactly. Bland's rule
//     takes the first eligible column: per-shard first, merged as the
//     first shard with a candidate.
//
// The sequential path (workers ≤ 1, or a region below its fork
// threshold) runs the very same kernel code over one full-range shard,
// so bit-identity holds by construction, not by luck;
// FuzzLPParallelEquivalence locks it in.
package lp

import (
	"math"

	"repro/internal/par"
)

// Fork thresholds, per kernel region rather than per solve: a fork-join
// round trip costs a goroutine spawn per extra worker (microseconds), so
// each region must carry enough float-ops to amortize its own fork.
//
//   - parLPRowMin gates the O(rows·columns) tableau kernels (elimination
//     and repricing) by their measured work — for the elimination that is
//     the count of rows with a nonzero pivot-column multiplier times the
//     column count, so a sparse pivot column correctly stays inline even
//     on a wide tableau.
//
//   - parLPColMin gates the O(columns) selection scans (pricing and the
//     two ratio-test passes) by the column count alone. These regions do
//     ~1ns of work per column; below tens of thousands of columns the
//     fork costs more than the whole scan, so they stay inline while the
//     elimination in the same pivot forks.
//
// The gate reads tableau *values* (the pivot column's sparsity), so which
// path runs is data-dependent — harmless, because the inline path runs
// the very same kernels over one full-range shard and both paths are
// bit-identical by construction (FuzzLPParallelEquivalence locks this).
// The fork width work/threshold+1 keeps every worker's share at least
// one threshold of work, so a region just over the line forks narrow.
const (
	parLPRowMin = 16384
	parLPColMin = 32768
)

// ParallelSolver is implemented by session solvers whose inner simplex
// kernels can shard over a worker group. SetWorkers installs the group
// and the worker count (≤ 1 disables forking); ParallelSolves reports
// how many solves so far actually forked at least one kernel region
// (crossed a per-region work threshold), which the engine surfaces as
// Stats.LPParallel.
type ParallelSolver interface {
	Solver
	SetWorkers(grp *par.Group, workers int)
	ParallelSolves() int
}

// A SessionOption configures the private solver instance returned by
// [Session].
type SessionOption func(Solver)

// WithWorkers shards the session's solve kernels over grp with up to
// the given worker count, when the solver supports it ([ParallelSolver];
// other solvers ignore the option). The group must outlive the session
// and must not be running another region during a Solve — the engine
// passes its own fork-join group, which satisfies both.
func WithWorkers(grp *par.Group, workers int) SessionOption {
	return func(s Solver) {
		if ps, ok := s.(ParallelSolver); ok {
			ps.SetWorkers(grp, workers)
		}
	}
}

// lpPar is the per-solver parallel state: the installed worker group,
// the current solve's shard plan, the parameters of the active kernel
// region, and per-worker selection slots. All slices are arenas grown
// to the largest solve seen, so a warm solve allocates nothing.
type lpPar struct {
	grp   *par.Group
	procs int
	// minWork overrides both region thresholds when nonzero; equivalence
	// tests set it to 1 to push every kernel of tiny LPs across the
	// forked path.
	minWork int

	canFork bool // group installed and procs > 1 (set per solve)
	forked  bool // some region of the current solve forked
	shards  []par.Range
	solves  int // solves that forked at least one region (ParallelSolves)
	task    lpTask

	// Parameters of the current solve, bound once per solve.
	m       int
	rows    [][]float64
	d       []float64
	cost    []float64
	upper   []float64
	inBasis []bool
	atUpper []bool

	// Parameters of the current kernel region, set immediately before
	// each run* call and read-only inside the region.
	kind     int
	rowL     []float64
	fvec     []float64 // per-row multipliers, copied before the region
	cbv      []float64 // cost of each basis column (reprice)
	skip     int       // the pivot row (it IS rowL; elim leaves it alone)
	inv      float64
	fd       float64
	withD    bool
	dir      float64
	minRatio float64
	bland    bool
	limit    int

	// Per-worker selection slots, merged in shard order after the join.
	wVal []float64
	wIdx []int
}

// Kernel region kinds dispatched by lpTask.Do.
const (
	lpElim = iota
	lpReprice
	lpRatioMin
	lpRatioPick
	lpPrice
)

// lpTask adapts the current region to par.Task. It is stored by value
// in lpPar so passing &pp.task to Group.Run never allocates.
type lpTask struct{ pp *lpPar }

func (t *lpTask) Do(w int) {
	pp := t.pp
	sh := pp.shards[w]
	switch pp.kind {
	case lpElim:
		pp.elim(sh.Lo, sh.Hi)
	case lpReprice:
		pp.reprice(sh.Lo, sh.Hi)
	case lpRatioMin:
		pp.wVal[w] = pp.ratioMin(sh.Lo, sh.Hi)
	case lpRatioPick:
		pp.wIdx[w], pp.wVal[w] = pp.ratioPick(sh.Lo, sh.Hi)
	case lpPrice:
		pp.wIdx[w], pp.wVal[w] = pp.price(sh.Lo, sh.Hi)
	}
}

// begin binds one solve's tableau views and resets the solve's fork
// state. Fork decisions are made per kernel region (see the thresholds
// above), not here: a pivot's elimination may fork while its selection
// scans stay inline.
func (pp *lpPar) begin(m, nCols int, rows [][]float64, d, upper []float64, inBasis, atUpper []bool) {
	pp.m = m
	pp.rows = rows
	pp.d = d
	pp.upper = upper
	pp.inBasis = inBasis
	pp.atUpper = atUpper
	pp.fvec = Grow(pp.fvec, m)
	pp.cbv = Grow(pp.cbv, m)
	pp.task.pp = pp

	pp.forked = false
	pp.canFork = pp.grp != nil && pp.procs > 1
	if pp.canFork {
		pp.wVal = Grow(pp.wVal, pp.procs)
		pp.wIdx = Grow(pp.wIdx, pp.procs)
	}
}

// width plans one kernel region: the fork width for a region costing
// `work` units against a threshold (minWork when the tests override it).
// 1 means run inline; otherwise min(procs, work/threshold+1) keeps each
// worker's share at least one threshold of work.
func (pp *lpPar) width(work, threshold int) int {
	if pp.minWork > 0 {
		threshold = pp.minWork
	}
	if work < threshold {
		return 1
	}
	wk := work/threshold + 1
	if wk > pp.procs {
		wk = pp.procs
	}
	return wk
}

// run shards [0, n) over wk workers and executes the kernel region on
// the group. Returns false (region not run) when n is too small to
// yield two shards; the caller then runs inline.
func (pp *lpPar) run(kind, n, wk int) bool {
	pp.shards = par.Split(pp.shards[:0], n, wk)
	if len(pp.shards) < 2 {
		return false
	}
	pp.kind = kind
	if !pp.forked {
		pp.forked = true
		pp.solves++
	}
	pp.grp.Run(len(pp.shards), &pp.task)
	return true
}

// runElim applies the current pivot's row-eta update over all columns.
// The region's work is measured, not assumed: one column-width pass for
// the pivot-row scale, one per row with a nonzero multiplier, one for
// the reduced-cost fold — so a sparse pivot column stays inline.
func (pp *lpPar) runElim(nCols int) {
	if pp.canFork {
		rows := 1
		for i := 0; i < pp.m; i++ {
			if i != pp.skip && pp.fvec[i] != 0 {
				rows++
			}
		}
		if pp.withD && pp.fd != 0 {
			rows++
		}
		if wk := pp.width(rows*nCols, parLPRowMin); wk > 1 && pp.run(lpElim, nCols, wk) {
			return
		}
	}
	pp.elim(0, nCols)
}

// runReprice computes d = cost − cbv·B⁻¹A over all columns; its work is
// one column-width pass per nonzero-cost basis row.
func (pp *lpPar) runReprice(nCols int) {
	if pp.canFork {
		rows := 1
		for i := 0; i < pp.m; i++ {
			if pp.cbv[i] != 0 {
				rows++
			}
		}
		if wk := pp.width(rows*nCols, parLPRowMin); wk > 1 && pp.run(lpReprice, nCols, wk) {
			return
		}
	}
	pp.reprice(0, nCols)
}

// runRatioMin is pass 1 of the dual ratio test: the exact minimum ratio
// over all eligible columns (+Inf when none is eligible). Per-shard
// minima merge by float min, which is order-independent.
func (pp *lpPar) runRatioMin(nCols int) float64 {
	if pp.canFork {
		if wk := pp.width(nCols, parLPColMin); wk > 1 && pp.run(lpRatioMin, nCols, wk) {
			minR := math.Inf(1)
			for w := range pp.shards {
				if pp.wVal[w] < minR {
					minR = pp.wVal[w]
				}
			}
			return minR
		}
	}
	return pp.ratioMin(0, nCols)
}

// runRatioPick is pass 2: the entering column among those within the
// tolerance band above pp.minRatio. The shard-order merge replays the
// sequential ascending scan exactly: Bland takes the first shard with a
// candidate, Dantzig the strictly largest |α| with earlier shards
// winning ties.
func (pp *lpPar) runRatioPick(nCols int) int {
	if pp.canFork {
		if wk := pp.width(nCols, parLPColMin); wk > 1 && pp.run(lpRatioPick, nCols, wk) {
			enter, bestAbs := -1, 0.0
			for w := range pp.shards {
				j := pp.wIdx[w]
				if j < 0 {
					continue
				}
				if enter < 0 {
					enter, bestAbs = j, pp.wVal[w]
					if pp.bland {
						break
					}
				} else if !pp.bland && pp.wVal[w] > bestAbs {
					enter, bestAbs = j, pp.wVal[w]
				}
			}
			return enter
		}
	}
	enter, _ := pp.ratioPick(0, nCols)
	return enter
}

// runPrice is the primal entering scan over [0, pp.limit), preserving
// the sequential Dantzig/Bland order through the same shard-order merge
// as runRatioPick (here the merged value is the violation).
func (pp *lpPar) runPrice() int {
	if pp.canFork {
		if wk := pp.width(pp.limit, parLPColMin); wk > 1 && pp.run(lpPrice, pp.limit, wk) {
			enter, best := -1, 0.0
			for w := range pp.shards {
				j := pp.wIdx[w]
				if j < 0 {
					continue
				}
				if enter < 0 {
					enter, best = j, pp.wVal[w]
					if pp.bland {
						break
					}
				} else if !pp.bland && pp.wVal[w] > best {
					enter, best = j, pp.wVal[w]
				}
			}
			return enter
		}
	}
	enter, _ := pp.price(0, pp.limit)
	return enter
}

// elim applies one pivot's row-eta update to the column range [lo, hi):
// scale the pivot row by inv, eliminate the pivot column's multiplier
// from every other row, and fold in the reduced-cost update when withD.
// fvec holds the per-row multipliers, copied by the caller before the
// region so no worker reads a column another worker is rewriting. Per
// element this is exactly the sequential update; the caller patches the
// pivot column (rowL[enter]=1, eliminated rows' entry 0, d[enter]=0)
// after the join, as the sequential code does after its loops.
func (pp *lpPar) elim(lo, hi int) {
	rowL := pp.rowL
	inv := pp.inv
	for j := lo; j < hi; j++ {
		rowL[j] *= inv
	}
	for i := 0; i < pp.m; i++ {
		if i == pp.skip {
			continue
		}
		f := pp.fvec[i]
		if f == 0 {
			continue
		}
		ri := pp.rows[i]
		for j := lo; j < hi; j++ {
			ri[j] -= f * rowL[j]
		}
	}
	if pp.withD && pp.fd != 0 {
		d, fd := pp.d, pp.fd
		for j := lo; j < hi; j++ {
			d[j] -= fd * rowL[j]
		}
	}
}

// reprice computes d[j] = cost[j] − Σ_i cbv[i]·rows[i][j] for the
// column range, accumulating rows in ascending order with zero-cost
// basis rows skipped — the identical per-element operation sequence as
// the sequential row-major loop (copy cost, then subtract row by row).
func (pp *lpPar) reprice(lo, hi int) {
	m := pp.m
	cost, d := pp.cost, pp.d
	for j := lo; j < hi; j++ {
		v := cost[j]
		for i := 0; i < m; i++ {
			cb := pp.cbv[i]
			if cb == 0 {
				continue
			}
			v -= cb * pp.rows[i][j]
		}
		d[j] = v
	}
}

// ratioEligible reports whether nonbasic column j can enter for the
// current leaving direction: its pivot sign must move the leaving basic
// variable toward its violated bound without that column immediately
// leaving its own feasible side.
func (pp *lpPar) ratioEligible(j int) (alpha float64, ok bool) {
	if pp.inBasis[j] || pp.upper[j] == 0 {
		return 0, false // basic, or fixed: never enters
	}
	alpha = pp.rowL[j]
	if pp.atUpper[j] {
		return alpha, alpha*pp.dir > feasTol // entering decreases from its upper bound
	}
	return alpha, alpha*pp.dir < -feasTol // entering increases from its lower bound
}

// ratioMin is pass 1 of the dual ratio test: the exact minimum
// |d_j|/|α_j| over the eligible columns of [lo, hi), +Inf when none.
func (pp *lpPar) ratioMin(lo, hi int) float64 {
	d := pp.d
	minR := math.Inf(1)
	for j := lo; j < hi; j++ {
		alpha, ok := pp.ratioEligible(j)
		if !ok {
			continue
		}
		if r := math.Abs(d[j]) / math.Abs(alpha); r < minR {
			minR = r
		}
	}
	return minR
}

// ratioPick is pass 2: among eligible columns whose ratio lies within
// the tolerance band [minRatio, minRatio+1e-9] the largest |α| wins
// (numerical stability), ties to the smallest column; under Bland's
// rule the first eligible in-band column wins outright. The band is
// inclusive, so the minimizing column itself always qualifies.
func (pp *lpPar) ratioPick(lo, hi int) (int, float64) {
	d := pp.d
	band := pp.minRatio + 1e-9
	best, bestAbs := -1, 0.0
	for j := lo; j < hi; j++ {
		alpha, ok := pp.ratioEligible(j)
		if !ok {
			continue
		}
		abs := math.Abs(alpha)
		if math.Abs(d[j])/abs > band {
			continue
		}
		if pp.bland {
			return j, abs
		}
		if abs > bestAbs {
			best, bestAbs = j, abs
		}
	}
	return best, bestAbs
}

// price is the primal entering scan over [lo, min(hi, limit)): nonbasic
// at lower with d < −tol, or at upper with d > tol. Dantzig keeps the
// strictly largest violation (ascending scan, so the smallest column
// among exact ties); Bland returns the first eligible column.
func (pp *lpPar) price(lo, hi int) (int, float64) {
	if hi > pp.limit {
		hi = pp.limit
	}
	d := pp.d
	enter, best := -1, 0.0
	for j := lo; j < hi; j++ {
		if pp.inBasis[j] {
			continue
		}
		var viol float64
		if pp.atUpper[j] {
			viol = d[j] // positive is improving
		} else {
			viol = -d[j] // negative d is improving
		}
		if viol > feasTol {
			if pp.bland {
				return j, viol
			}
			if viol > best {
				best, enter = viol, j
			}
		}
	}
	return enter, best
}
