package lp

import (
	"context"
	"math"
	"sync"

	"repro/internal/cancel"
	"repro/internal/par"
)

// DualWarm is a warm-started bounded-variable dual simplex. It exists
// for the pipeline's sequence-of-LPs shape: the balance and refine
// phases solve long runs of closely related programs — identical
// constraint matrices with drifting RHS (surpluses), bounds (δ and b
// pools) and, across ε escalation, scaled RHS again. A cold simplex
// pays the full pivot path on every one of them; DualWarm retains the
// optimal basis of each LP *structure* it has solved and, when the next
// problem matches a retained structure ([SameStructure]), refactorizes
// that basis and resumes dual pivoting from it. Unchanged costs keep
// the old basis dual feasible, so only the handful of primal
// infeasibilities introduced by the new RHS/bounds must be pivoted
// away — typically a few iterations instead of a full cold path.
//
// Cold solves also run the dual method: the all-slack basis with each
// structural variable at its cost-preferred bound is dual feasible for
// the pipeline's LPs (min with c ≥ 0, max with finite bounds), so no
// phase 1 is ever needed. Problems the dual method cannot start (a
// negative cost on an unbounded variable) are delegated to [Bounded];
// such solves retain no basis.
//
// # Basis lifetime
//
// The cache is keyed by constraint-matrix structure and lives as long
// as the solver value. A retained basis is *never* stale in the
// correctness sense — warm-start validity depends only on structure,
// which is verified exactly on every hit, never on the data of the
// problem that produced it — so graph edits between solves are
// harmless. The hazards are aliasing and lifetime, not staleness:
// a DualWarm shared across goroutines serializes on an internal mutex,
// and one shared across unrelated LP streams (e.g. two engines) evicts
// usefully-warm bases with foreign ones. Hold one DualWarm per solve
// stream instead: DualWarm implements [SessionSolver], and the engine
// calls [Session] at construction so every engine session owns a
// private cache that dies with it. The registered "dual-warm" instance
// is the template those sessions fork from.
type DualWarm struct {
	MaxIter    int // pivot cap (0 = default 200000)
	BlandAfter int // switch to Bland's rule after this many pivots (0 = default 5000)
	CacheSize  int // retained bases (0 = default 8)

	mu    sync.Mutex
	cache map[uint64]*dwEntry
	order []uint64 // insertion order, for eviction
	scr   dwScratch
	pp    lpPar // column-sharded kernel state (see parallel.go)

	// Solution arena: Solve returns &sol, overwritten by the next Solve
	// on this instance (see the Solve doc).
	sol  Solution
	solX []float64

	warm, cold int // solve counters (see Counts)
}

// NewDualWarm returns a warm-started dual simplex with default limits.
func NewDualWarm() *DualWarm { return &DualWarm{} }

// Name implements Solver.
func (s *DualWarm) Name() string { return "dual-warm" }

// NewSession implements [SessionSolver]: it returns a fresh DualWarm
// with the same limits and an empty basis cache, so a long-lived solve
// stream (an engine session) gets private warm state.
func (s *DualWarm) NewSession() Solver {
	return &DualWarm{MaxIter: s.MaxIter, BlandAfter: s.BlandAfter, CacheSize: s.CacheSize}
}

// Counts reports how many solves resumed from a retained basis (warm)
// and how many ran the full cold path. Used by tests and benchmarks to
// prove the warm path is actually taken.
func (s *DualWarm) Counts() (warm, cold int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warm, s.cold
}

// SetWorkers implements [ParallelSolver]: subsequent solves shard the
// simplex kernels over grp with up to the given worker count (≤ 1, or a
// nil group, keeps the sequential path). Results are bit-identical for
// every worker count.
func (s *DualWarm) SetWorkers(grp *par.Group, workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pp.grp, s.pp.procs = grp, workers
}

// ParallelSolves implements [ParallelSolver]: how many solves actually
// forked the worker group (reached the per-pivot work threshold).
func (s *DualWarm) ParallelSolves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pp.solves
}

// dwEntry is one retained basis: the structural snapshot that produced
// it (verified exactly on every cache hit) plus the basis columns and
// nonbasic bound sides at optimality.
type dwEntry struct {
	snap    *Problem
	basis   []int
	atUpper []bool
}

// dwScratch is the reused solve state: the dense working tableau B⁻¹A,
// basic values, reduced costs and bound/cost vectors, grown to the
// largest problem seen by this solver value.
type dwScratch struct {
	rows    [][]float64 // m × nCols, maintained as B⁻¹A
	rhs     []float64   // B⁻¹·b during (re)factorization
	xB      []float64   // basic variable values
	d       []float64   // reduced costs
	cost    []float64   // minimization-sense costs
	upper   []float64   // per-column upper bounds (slacks: Inf, or 0 for EQ rows)
	basis   []int
	pairing []int // refactorization scratch: re-derived row → basis column
	atUpper []bool
	inBasis []bool
	rowDone []bool // refactorization pairing marker
	n       int    // structural columns
	m       int    // rows
	nCols   int
	flip    bool
	iters   int
}

func (s *DualWarm) maxIter() int {
	if s.MaxIter == 0 {
		return 200000
	}
	return s.MaxIter
}

func (s *DualWarm) blandAfter() int {
	if s.BlandAfter == 0 {
		return 5000
	}
	return s.BlandAfter
}

func (s *DualWarm) cacheSize() int {
	if s.CacheSize == 0 {
		return 8
	}
	return s.CacheSize
}

// dwViolTol is the primal bound-violation tolerance of the dual method:
// a basic value within this of its bound is considered feasible. It
// matches the 1e-7 infeasibility thresholds of the primal solvers.
const dwViolTol = 1e-7

// Solve implements Solver. It tries a warm start when a retained basis
// matches p's structure, falling back to the cold dual start (or, for
// problems the dual method cannot start, to the primal [Bounded]
// solver) whenever refactorization or dual-feasibility repair fails.
//
// The returned *Solution (including its X vector) is an arena owned by
// this DualWarm, overwritten by its next Solve call — callers that hold
// a result across solves must copy what they need first. The engine's
// balance and refine phases consume each solution before the next
// solve, which is what makes warm steady-state solves allocation-free.
func (s *DualWarm) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	h := p.StructureHash()
	if e := s.cache[h]; e != nil && SameStructure(p, e.snap) {
		if sol, ok, err := s.solveWarm(ctx, p, e); err != nil {
			return nil, err
		} else if ok {
			s.warm++
			if sol.Status == Optimal {
				s.retain(h, e.snap, e)
			}
			return sol, nil
		}
	}

	s.cold++
	sol, hasBasis, err := s.solveCold(ctx, p)
	if err != nil {
		return nil, err
	}
	if hasBasis && sol.Status == Optimal {
		s.retain(h, p.structureSnapshot(), nil)
	}
	return sol, nil
}

// retain stores the scratch's final basis under hash h. When e is
// non-nil its buffers (and verified snapshot) are reused in place;
// otherwise a new entry with the given snapshot is inserted, evicting
// the oldest entry beyond the cache cap.
func (s *DualWarm) retain(h uint64, snap *Problem, e *dwEntry) {
	if e == nil {
		if s.cache == nil {
			s.cache = make(map[uint64]*dwEntry)
		}
		if prev := s.cache[h]; prev != nil {
			e = prev // same hash, different structure: overwrite in place
			e.snap = snap
		} else {
			e = &dwEntry{snap: snap}
			for len(s.order) >= s.cacheSize() {
				delete(s.cache, s.order[0])
				s.order = s.order[1:]
			}
			s.cache[h] = e
			s.order = append(s.order, h)
		}
	}
	st := &s.scr
	e.basis = append(e.basis[:0], st.basis...)
	e.atUpper = append(e.atUpper[:0], st.atUpper...)
}

// build lays out p in the solver's standard form: columns
// [structural | one slack per row], every GE row negated to LE so the
// matrix layout is independent of the data values, EQ slacks fixed at
// zero. It fills the scratch's rows, rhs, cost and upper vectors.
func (st *dwScratch) build(p *Problem) {
	n, m := p.NumVars(), len(p.Cons)
	st.n, st.m, st.nCols = n, m, n+m
	st.flip = p.Sense == Maximize
	st.rows = growRows(st.rows, m, st.nCols)
	st.rhs = Grow(st.rhs, m)
	st.xB = Grow(st.xB, m)
	st.d = Grow(st.d, st.nCols)
	st.cost = Grow(st.cost, st.nCols)
	st.upper = Grow(st.upper, st.nCols)
	st.basis = Grow(st.basis, m)
	st.atUpper = Grow(st.atUpper, st.nCols)
	st.inBasis = Grow(st.inBasis, st.nCols)
	st.rowDone = Grow(st.rowDone, m)
	st.iters = 0

	copy(st.upper, p.Upper)
	for i, c := range p.Cons {
		row := st.rows[i]
		for j := range row {
			row[j] = 0
		}
		sign := 1.0
		if c.Rel == GE {
			sign = -1
		}
		for _, t := range c.Terms {
			row[t.Var] += sign * t.Coef
		}
		row[n+i] = 1
		st.rhs[i] = sign * c.RHS
		if c.Rel == EQ {
			st.upper[n+i] = 0 // fixed slack: the row is an equality
		} else {
			st.upper[n+i] = Inf
		}
	}
	for v := 0; v < n; v++ {
		c := p.Obj[v]
		if st.flip {
			c = -c
		}
		st.cost[v] = c
	}
	for j := n; j < st.nCols; j++ {
		st.cost[j] = 0
	}
}

// solveCold runs the dual method from the all-slack basis. It returns
// hasBasis=false when the problem was delegated to the primal solver.
func (s *DualWarm) solveCold(ctx context.Context, p *Problem) (sol *Solution, hasBasis bool, err error) {
	// The dual start needs every structural column dual feasible at one
	// of its bounds: cost ≥ 0 at lower, or a finite upper to sit at.
	for v, c := range p.Obj {
		if p.Sense == Maximize {
			c = -c
		}
		if c < 0 && math.IsInf(p.Upper[v], 1) {
			sol, err := Bounded{MaxIter: s.maxIter(), BlandAfter: s.blandAfter()}.Solve(ctx, p)
			return sol, false, err
		}
	}
	st := &s.scr
	st.build(p)
	s.beginPar()
	for j := 0; j < st.nCols; j++ {
		st.atUpper[j] = j < st.n && st.cost[j] < 0 && st.upper[j] > 0 && !math.IsInf(st.upper[j], 1)
		st.inBasis[j] = j >= st.n
	}
	for i := 0; i < st.m; i++ {
		st.basis[i] = st.n + i
	}
	copy(st.d, st.cost)
	st.computeXB()
	status, err := st.dualIterate(ctx, s.maxIter(), s.blandAfter(), &s.pp)
	if err != nil {
		return nil, false, err
	}
	return s.result(status), true, nil
}

// beginPar plans the freshly built scratch's kernel execution (inline
// or sharded; see lpPar.begin).
func (s *DualWarm) beginPar() {
	st := &s.scr
	s.pp.begin(st.m, st.nCols, st.rows, st.d, st.upper, st.inBasis, st.atUpper)
	s.pp.cost = st.cost
}

// solveWarm refactorizes the retained basis for p and resumes dual
// pivoting. ok=false (with the scratch untouched semantically) means
// the warm start is impossible — a singular refactorization or a dual
// infeasibility no bound flip can repair — and the caller should solve
// cold.
func (s *DualWarm) solveWarm(ctx context.Context, p *Problem, e *dwEntry) (sol *Solution, ok bool, err error) {
	st := &s.scr
	st.build(p)
	s.beginPar()
	copy(st.basis, e.basis)
	copy(st.atUpper, e.atUpper)
	for j := range st.inBasis[:st.nCols] {
		st.inBasis[j] = false
	}
	for _, b := range st.basis[:st.m] {
		st.inBasis[b] = true
	}
	if !st.refactorize(&s.pp) {
		return nil, false, nil
	}
	// Reprice: d = c − c_B·B⁻¹A, column-sharded (see parallel.go).
	for i, bi := range st.basis[:st.m] {
		s.pp.cbv[i] = st.cost[bi]
	}
	s.pp.runReprice(st.nCols)
	for _, bi := range st.basis[:st.m] {
		st.d[bi] = 0
	}
	// Repair dual feasibility with bound flips (possible whenever the
	// offending column has a finite opposite bound to sit at).
	for j := 0; j < st.nCols; j++ {
		if st.inBasis[j] || st.upper[j] == 0 {
			continue // basic, or fixed: any reduced cost is dual feasible
		}
		if st.atUpper[j] {
			if math.IsInf(st.upper[j], 1) || st.d[j] > feasTol {
				st.atUpper[j] = false
			}
		} else if st.d[j] < -feasTol {
			if math.IsInf(st.upper[j], 1) {
				return nil, false, nil
			}
			st.atUpper[j] = true
		}
	}
	st.computeXB()
	status, err := st.dualIterate(ctx, s.maxIter(), s.blandAfter(), &s.pp)
	if err != nil {
		return nil, false, err
	}
	return s.result(status), true, nil
}

// refactorize reduces the basis columns of the freshly built tableau to
// the identity by Gauss–Jordan elimination, turning rows into B⁻¹A and
// rhs into B⁻¹b. Row↔column pairing is re-derived with partial
// pivoting, so any nonsingular basis order works; it reports false when
// the retained basis has gone singular for the new data (it cannot —
// structure is verified — but roundoff is checked anyway). The pivot
// search and rhs updates are O(m) and stay sequential; the O(m·nCols)
// elimination runs through the column-sharded kernel.
func (st *dwScratch) refactorize(pp *lpPar) bool {
	m := st.m
	st.pairing = Grow(st.pairing, m)
	for i := 0; i < m; i++ {
		st.rowDone[i] = false
	}
	for k := 0; k < m; k++ {
		col := st.basis[k]
		best, bv := -1, 1e-9
		for r := 0; r < m; r++ {
			if st.rowDone[r] {
				continue
			}
			if v := math.Abs(st.rows[r][col]); v > bv {
				bv, best = v, r
			}
		}
		if best < 0 {
			return false
		}
		r := best
		st.rowDone[r] = true
		st.pairing[r] = col
		rowR := st.rows[r]
		inv := 1 / rowR[col]
		for i := 0; i < m; i++ {
			pp.fvec[i] = st.rows[i][col]
		}
		pp.rowL, pp.skip, pp.inv, pp.withD = rowR, r, inv, false
		pp.runElim(st.nCols)
		rowR[col] = 1
		st.rhs[r] *= inv
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			f := pp.fvec[i]
			if f == 0 {
				continue
			}
			st.rows[i][col] = 0
			st.rhs[i] -= f * st.rhs[r]
		}
	}
	copy(st.basis[:m], st.pairing[:m])
	return true
}

// computeXB evaluates the basic values for the current nonbasic bound
// sides: x_B = B⁻¹b − Σ_{nonbasic j at upper} (B⁻¹A)_j · u_j.
func (st *dwScratch) computeXB() {
	copy(st.xB, st.rhs[:st.m])
	for j := 0; j < st.nCols; j++ {
		if st.inBasis[j] || !st.atUpper[j] {
			continue
		}
		u := st.upper[j]
		if u == 0 {
			continue
		}
		for i := 0; i < st.m; i++ {
			st.xB[i] -= st.rows[i][j] * u
		}
	}
}

// dualIterate runs bounded-variable dual simplex pivots: pick the most
// bound-violating basic variable, choose the entering column by the
// dual ratio test (which preserves dual feasibility), pivot, repeat.
// Starting dual feasible, it terminates Optimal (no violations left) or
// Infeasible (a violated row with no eligible entering column certifies
// primal infeasibility); Unbounded cannot occur on the dual path.
//
// The O(nCols) ratio test and the O(m·nCols) tableau update run through
// the column-sharded kernels (parallel.go); the O(m) leaving scan and
// basic-value updates stay sequential.
func (st *dwScratch) dualIterate(ctx context.Context, maxIter, blandAfter int, pp *lpPar) (Status, error) {
	m, nCols := st.m, st.nCols
	for {
		if st.iters >= maxIter {
			return IterLimit, nil
		}
		if st.iters&ctxCheckMask == 0 {
			if err := cancel.Check(ctx, "dual-warm simplex"); err != nil {
				return IterLimit, err
			}
		}
		bland := st.iters >= blandAfter

		// Leaving row: largest bound violation (Bland: smallest basic
		// column id among the violated, for termination).
		leave, dir := -1, 0.0
		var bestViol float64
		for i := 0; i < m; i++ {
			xb := st.xB[i]
			var viol, di float64
			if xb < -dwViolTol {
				viol, di = -xb, 1 // below lower bound: must increase
			} else if ub := st.upper[st.basis[i]]; !math.IsInf(ub, 1) && xb > ub+dwViolTol {
				viol, di = xb-ub, -1 // above upper bound: must decrease
			} else {
				continue
			}
			if bland {
				if leave < 0 || st.basis[i] < st.basis[leave] {
					leave, dir = i, di
				}
			} else if viol > bestViol {
				bestViol, leave, dir = viol, i, di
			}
		}
		if leave < 0 {
			return Optimal, nil
		}

		// Dual ratio test: among nonbasic columns whose pivot sign can
		// move x_B[leave] toward its violated bound, the one with the
		// smallest |d_j|/|α_j| keeps every reduced cost on its feasible
		// side. Two order-independent passes (so per-shard candidates
		// merge exactly): the exact minimum ratio first, then — within
		// the tolerance band above it — the largest |α| (stability),
		// ties to the smallest column; Bland's rule takes the first
		// in-band column instead.
		rowL := st.rows[leave]
		pp.rowL, pp.dir, pp.bland = rowL, dir, bland
		minRatio := pp.runRatioMin(nCols)
		if math.IsInf(minRatio, 1) {
			// The violated row's basic variable cannot be moved toward its
			// bound by any admissible column: primal infeasible.
			return Infeasible, nil
		}
		pp.minRatio = minRatio
		enter := pp.runRatioPick(nCols)
		if enter < 0 {
			// Unreachable (the minimizing column is always in-band), but
			// fail safe rather than pivot on a bogus column.
			return Infeasible, nil
		}

		// Step length: drive the leaving variable exactly onto its
		// violated bound.
		alpha := rowL[enter]
		sgn, entVal := 1.0, 0.0
		if st.atUpper[enter] {
			sgn, entVal = -1, st.upper[enter]
		}
		target := 0.0
		if dir < 0 {
			target = st.upper[st.basis[leave]]
		}
		t := (st.xB[leave] - target) / (alpha * sgn)
		if t < 0 {
			t = 0 // roundoff guard: a degenerate dual pivot still swaps the basis
		}
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			st.xB[i] -= st.rows[i][enter] * sgn * t
			st.clampXB(i)
		}

		// Basis exchange + tableau pivot, column-sharded: fvec snapshots
		// the pivot-column multipliers first so no worker reads a column
		// another worker is rewriting, then the kernel scales rowL,
		// eliminates every other row and folds in the reduced-cost
		// update; the pivot column's exact 1/0 patch-up follows the join.
		leaveCol := st.basis[leave]
		st.atUpper[leaveCol] = dir < 0
		st.inBasis[leaveCol] = false
		st.inBasis[enter] = true
		fd := st.d[enter]
		for i := 0; i < m; i++ {
			pp.fvec[i] = st.rows[i][enter]
		}
		pp.skip, pp.inv, pp.fd, pp.withD = leave, 1/alpha, fd, true
		pp.runElim(nCols)
		rowL[enter] = 1
		for i := 0; i < m; i++ {
			if i == leave || pp.fvec[i] == 0 {
				continue
			}
			st.rows[i][enter] = 0
		}
		if fd != 0 {
			st.d[enter] = 0
		}
		st.basis[leave] = enter
		st.xB[leave] = entVal + sgn*t
		st.atUpper[enter] = false
		st.clampXB(leave)
		st.iters++
	}
}

// clampXB snaps a basic value within roundoff of a bound onto it.
func (st *dwScratch) clampXB(i int) {
	if st.xB[i] < 0 && st.xB[i] > -1e-9 {
		st.xB[i] = 0
		return
	}
	if ub := st.upper[st.basis[i]]; !math.IsInf(ub, 1) && st.xB[i] > ub && st.xB[i] < ub+1e-9 {
		st.xB[i] = ub
	}
}

// result extracts the finished scratch state into the solver's Solution
// arena (Grow does not zero, so X is cleared explicitly — the contract
// the old per-solve make() provided implicitly).
func (s *DualWarm) result(status Status) *Solution {
	st := &s.scr
	s.sol = Solution{Status: status, Iterations: st.iters}
	if status != Optimal {
		return &s.sol
	}
	s.solX = Grow(s.solX, st.n)
	x := s.solX
	for j := range x {
		x[j] = 0
	}
	for j := 0; j < st.n; j++ {
		if st.atUpper[j] && !st.inBasis[j] {
			x[j] = st.upper[j]
		}
	}
	for i, b := range st.basis[:st.m] {
		if b < st.n {
			x[b] = st.xB[i]
		}
	}
	obj := 0.0
	for v := 0; v < st.n; v++ {
		obj += st.cost[v] * x[v]
	}
	if st.flip {
		obj = -obj
	}
	s.sol.X = x
	s.sol.Objective = obj
	return &s.sol
}

// Grow resizes a reusable slice to length n without shrinking
// capacity, allocating only on growth. It is the one resize helper for
// the solver scratch here and the balance/refine formulation arenas, so
// the growth policy cannot drift between them. Values beyond a previous
// length are stale and must be overwritten.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growRows resizes a reusable row-major matrix without shrinking
// capacity.
func growRows(rows [][]float64, m, nCols int) [][]float64 {
	if cap(rows) < m {
		grown := make([][]float64, m)
		copy(grown, rows[:cap(rows)])
		rows = grown
	}
	rows = rows[:m]
	for i := range rows {
		rows[i] = Grow(rows[i], nCols)
	}
	return rows
}
