// MWU is a width-aware multiplicative-weight-update (Plotkin–Shmoys–
// Tardos style) approximate solver for the graph-shaped LPs the balance
// and refine phases emit: uniform-objective min/max flow-form programs
// whose constraint rows are ±1 divergence intervals per "node" and whose
// columns are bounded "arcs". The MWU framework for graph LPs follows
// Ju, Yesil, Sun & Chekuri (arXiv:2307.03307): constraints are
// normalized by their widths, a Hedge-weighted average constraint is
// minimized over the box [0,u] by a linear oracle (a weighted-gradient
// argmin), and the weights sharpen on violated constraints.
//
// # Certify-or-fallback correctness
//
// The solver never trusts the MWU theory bound for its answer. It keeps
// a rigorous two-sided bracket on the optimum and returns only when the
// bracket closes to the target accuracy:
//
//   - Feasible candidates come from rounding the averaged oracle iterate
//     to integers and repairing it with deterministic augmenting-path
//     BFS over the divergence graph; a repaired point is checked-feasible
//     by construction and its objective is an exact incumbent bound.
//   - Opposite-side bounds come from MWU infeasibility certificates: when
//     the weighted average constraint has positive minimum over the box,
//     no point in the box satisfies every constraint together with
//     "objective better than t", so t is a proven bound. Total
//     unimodularity of the divergence system then snaps the bound to the
//     next multiple of the uniform cost.
//   - A failed repair BFS is a max-flow/min-cut infeasibility proof, so
//     Infeasible results are exact, never approximate — the engine's
//     ε-escalation depends on that.
//
// Anything else — a non-graph-shaped instance, or an instance whose
// bracket does not close within the iteration budget — falls back to the
// session's exact dual-warm solver and bumps the Fallbacks counter, so
// the (1+eps) guarantee holds unconditionally.
//
// # Determinism contract
//
// At a fixed iteration count the whole solve is a pure function of the
// problem, bit-identical across worker counts: every float reduction over
// arcs is accumulated in fixed 4096-element blocks that are summed in
// ascending block order (workers shard whole blocks; the inline path runs
// the identical block loop), the divergence pass accumulates each node's
// incident arcs in fixed CSR order regardless of which worker owns the
// node, and the weight update, extraction and repair are sequential.
package lp

import (
	"context"
	"math"
	"sync"

	"repro/internal/cancel"
	"repro/internal/par"
)

// ApproximateSolver is implemented by solvers whose Optimal objective is
// only guaranteed within a known relative accuracy of the true optimum:
// objective ≤ (1+TargetAccuracy())·OPT for minimization and
// ≥ OPT/(1+TargetAccuracy()) for maximization. Exact-comparison
// harnesses test for it and widen to a bounded-suboptimality check.
type ApproximateSolver interface {
	Solver
	// TargetAccuracy returns the resolved accuracy target eps.
	TargetAccuracy() float64
}

// FallbackSolver is implemented by solvers that delegate unsupported or
// unconverged instances to an exact inner solver. Fallbacks reports how
// many solves so far took that path; the engine surfaces the per-call
// delta as Stats.MWUFallbacks.
type FallbackSolver interface {
	Solver
	Fallbacks() int
}

// accuracySetter is the seam WithAccuracy configures.
type accuracySetter interface {
	SetAccuracy(eps float64)
}

// WithAccuracy sets the target accuracy eps of an approximate session
// solver ([MWU]; exact solvers ignore the option): Optimal results are
// guaranteed within a (1+eps) factor of the true optimum. Non-positive
// eps leaves the solver's default in place.
func WithAccuracy(eps float64) SessionOption {
	return func(s Solver) {
		if as, ok := s.(accuracySetter); ok {
			as.SetAccuracy(eps)
		}
	}
}

// MWU block/fork constants: reductions are accumulated per fixed-size
// block (the determinism unit), and kernels fork only when the arc count
// amortizes the fork (mwuParMin, overridden by minWork in tests).
const (
	mwuBlockSize = 4096
	mwuParMin    = 8192
)

// mwuExtractEvery is the round-and-repair cadence in iterations.
const mwuExtractEvery = 64

// Outcomes of one ladder target run.
const (
	mwuCert = iota // infeasibility certificate at t: bound moves to t
	mwuAccept
	mwuBudget
	mwuInfeasibleOut
)

// Repair outcomes.
const (
	repairDone = iota
	repairInfeasible
	repairBudget
)

// MWU is the registered "mwu" solver. Like DualWarm it is a
// SessionSolver: the registered instance is a template, and each engine
// session forks a private instance (with a private exact fallback
// session) whose arenas make warm solves allocation-free.
type MWU struct {
	Accuracy float64 // target eps (0 = default 0.05)
	MaxIter  int     // MWU iteration cap per solve, across the ladder (0 = default 2000)

	mu        sync.Mutex
	inner     *DualWarm // exact fallback session (lazily created)
	fallbacks int
	native    int // solves answered by the MWU path

	inst mwuInst
	pp   mwuPar

	// Solution arena: Solve returns &sol, overwritten by the next Solve.
	sol  Solution
	solX []float64
}

// NewMWU returns an MWU solver with default accuracy and budget.
func NewMWU() *MWU { return &MWU{} }

// Name implements Solver.
func (s *MWU) Name() string { return "mwu" }

// NewSession implements [SessionSolver]: a fresh MWU with the same
// configuration, empty arenas and a private exact fallback session.
func (s *MWU) NewSession() Solver {
	return &MWU{Accuracy: s.Accuracy, MaxIter: s.MaxIter, inner: &DualWarm{}}
}

// SetAccuracy implements the [WithAccuracy] seam.
func (s *MWU) SetAccuracy(eps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if eps > 0 {
		s.Accuracy = eps
	}
}

// TargetAccuracy implements [ApproximateSolver].
func (s *MWU) TargetAccuracy() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eps()
}

// Fallbacks implements [FallbackSolver].
func (s *MWU) Fallbacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallbacks
}

// Counts reports how many solves the MWU path answered (native) and how
// many were delegated to the exact fallback. Used by tests to prove the
// approximate path is actually exercised.
func (s *MWU) Counts() (native, fallbacks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.native, s.fallbacks
}

// SetWorkers implements [ParallelSolver]: subsequent solves shard the
// oracle and divergence kernels over grp, and the fallback session
// shards its simplex kernels over the same group. Results are
// bit-identical for every worker count.
func (s *MWU) SetWorkers(grp *par.Group, workers int) {
	s.mu.Lock()
	s.pp.grp, s.pp.procs = grp, workers
	if s.inner == nil {
		s.inner = &DualWarm{}
	}
	inner := s.inner
	s.mu.Unlock()
	inner.SetWorkers(grp, workers)
}

// ParallelSolves implements [ParallelSolver]: forked MWU solves plus the
// fallback session's forked solves.
func (s *MWU) ParallelSolves() int {
	s.mu.Lock()
	own := s.pp.solves
	inner := s.inner
	s.mu.Unlock()
	if inner == nil {
		return own
	}
	return own + inner.ParallelSolves()
}

func (s *MWU) eps() float64 {
	if s.Accuracy <= 0 {
		return 0.05
	}
	return s.Accuracy
}

func (s *MWU) maxIter() int {
	if s.MaxIter <= 0 {
		return 2000
	}
	return s.MaxIter
}

// Solve implements Solver. Graph-shaped instances are answered by the
// certify-or-fallback MWU ladder; everything else (and any instance
// whose bracket does not close within the budget) is delegated to the
// exact fallback session. The returned *Solution (including X) is an
// arena owned by this MWU, overwritten by its next Solve.
func (s *MWU) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inner == nil {
		s.inner = &DualWarm{}
	}
	sol, done, err := s.solveMWU(ctx, p)
	if err != nil {
		return nil, err
	}
	if done {
		s.native++
		return sol, nil
	}
	s.fallbacks++
	isol, err := s.inner.Solve(ctx, p)
	if err != nil {
		return nil, err
	}
	// Copy the fallback result into this solver's own arena so the MWU
	// solution contract (overwritten by the next Solve on *this* value)
	// holds regardless of which path answered.
	s.sol = Solution{
		Status:     isol.Status,
		Objective:  isol.Objective,
		Iterations: s.inst.iters + isol.Iterations,
	}
	if isol.Status == Optimal {
		s.solX = Grow(s.solX, len(isol.X))
		copy(s.solX, isol.X)
		s.sol.X = s.solX
	}
	return &s.sol, nil
}

// result fills the solution arena. x (when Optimal) is copied, so it may
// be an instance-owned scratch vector.
func (s *MWU) result(status Status, x []float64, obj float64) *Solution {
	s.sol = Solution{Status: status, Objective: obj, Iterations: s.inst.iters}
	if status == Optimal {
		s.solX = Grow(s.solX, len(x))
		copy(s.solX, x)
		s.sol.X = s.solX
	}
	return &s.sol
}

// solveMWU runs the MWU path. done=false means "fall back" (not graph
// shaped, or budget exhausted before the bracket closed).
func (s *MWU) solveMWU(ctx context.Context, p *Problem) (sol *Solution, done bool, err error) {
	in := &s.inst
	in.iters = 0
	in.hasBest = false
	ok, infeasible := in.detect(p)
	if infeasible {
		return s.result(Infeasible, nil, 0), true, nil
	}
	if !ok || in.gamma < 0 {
		return nil, false, nil
	}
	in.prepare()
	in.eps = s.eps()
	s.pp.begin()
	minSense := in.sense == Minimize

	// Combinatorial bracket seeds: Σ of positive lower intervals and of
	// negative upper intervals are both lower bounds on the total flow
	// Σx (every arc feeds at most one deficit node and drains at most
	// one surplus node).
	zeroFeasible := true
	var sumLoPos, sumHiNeg float64
	for g := 0; g < in.nodes; g++ {
		if in.lo[g] > 0 {
			zeroFeasible = false
			sumLoPos += in.lo[g]
		}
		if in.hi[g] < 0 {
			zeroFeasible = false
			sumHiNeg -= in.hi[g]
		}
	}

	if minSense && zeroFeasible {
		// x = 0 is feasible and γ ≥ 0 makes it optimal. Exact.
		in.zero(in.xtry)
		return s.result(Optimal, in.xtry, 0), true, nil
	}
	if in.gamma == 0 {
		// Every feasible point is optimal (objective identically 0):
		// repair from zero either finds one or proves infeasibility.
		in.zero(in.xtry)
		switch in.repairX(in.xtry) {
		case repairInfeasible:
			return s.result(Infeasible, nil, 0), true, nil
		case repairDone:
			return s.result(Optimal, in.xtry, 0), true, nil
		}
		return nil, false, nil
	}

	// Initial incumbent from repairing x = 0. A failed BFS here is an
	// exact infeasibility proof for the whole LP.
	in.zero(in.xtry)
	switch in.repairX(in.xtry) {
	case repairInfeasible:
		return s.result(Infeasible, nil, 0), true, nil
	case repairBudget:
		return nil, false, nil
	}
	in.recordCandidate()

	budget := s.maxIter()
	if minSense {
		// γ > 0: the flow lower bound certifies γ·L0 ≤ OPT with zero
		// MWU iterations; repair-from-zero often lands within (1+eps)
		// of it outright.
		in.bound = in.gamma * math.Max(sumLoPos, sumHiNeg)
	} else {
		in.bound = in.gamma * in.flowUpperBound()
	}
	for {
		if in.accepted() {
			return s.result(Optimal, in.xbest, in.bestVal), true, nil
		}
		var t float64
		if minSense {
			t = in.bound * (1 + in.eps/2)
			if t >= in.bestVal {
				t = (in.bound + in.bestVal) / 2
			}
		} else {
			t = in.bound / (1 + in.eps/2)
			if t <= in.bestVal {
				t = (in.bestVal + in.bound) / 2
			}
		}
		out, err := s.runTarget(ctx, t, budget)
		if err != nil {
			return nil, false, err
		}
		switch out {
		case mwuCert:
			// OPT is strictly beyond t, and total unimodularity makes
			// OPT an integer multiple of γ — snap the bound to the next
			// multiple (the 1e-9 nudge keeps float error conservative).
			if minSense {
				nl := in.gamma * (math.Floor(t/in.gamma-1e-9) + 1)
				in.bound = math.Max(t, nl)
			} else {
				nu := in.gamma * (math.Ceil(t/in.gamma+1e-9) - 1)
				in.bound = math.Max(math.Min(t, nu), in.bestVal)
			}
		case mwuAccept:
			return s.result(Optimal, in.xbest, in.bestVal), true, nil
		case mwuInfeasibleOut:
			return s.result(Infeasible, nil, 0), true, nil
		case mwuBudget:
			return nil, false, nil
		}
	}
}

// runTarget runs MWU iterations against the feasibility system
// "divergence intervals ∧ objective better than t" until it certifies
// infeasibility at t, an extraction closes the bracket, or the global
// iteration budget runs out.
func (s *MWU) runTarget(ctx context.Context, t float64, budget int) (int, error) {
	in := &s.inst
	in.resetWeights(t)
	objSign := 1.0
	if in.sense == Maximize {
		objSign = -1
	}
	// Hedge step size. Width normalization caps every per-constraint
	// loss at |1|, so a fixed aggressive step is stable; accuracy comes
	// from the certified bracket, not from the regret bound.
	const eta = 0.25
	for in.iters < budget {
		if in.iters&ctxCheckMask == 0 {
			if err := cancel.Check(ctx, "mwu solve"); err != nil {
				return 0, err
			}
		}
		in.iters++
		in.k++
		for g := 0; g < in.nodes; g++ {
			in.sNode[g] = in.wUp[g]*in.invRhoUp[g] - in.wLo[g]*in.invRhoLo[g]
		}
		in.sNode[in.nodes] = 0 // virtual free endpoint
		objCoef := objSign * in.gamma * in.wObj * in.invRhoObj
		neg, flow, mag := s.runOracle(objCoef)
		c := in.constTerm(t, objSign)
		// v = min over the box of the weighted average constraint. A
		// strictly positive minimum (beyond accumulated float error,
		// bounded by a tiny multiple of the summed magnitudes) proves no
		// x in the box satisfies the whole system: certificate.
		if v := neg + c; v > 1e-9*(1+mag+math.Abs(c)) {
			return mwuCert, nil
		}
		s.runDiv()
		in.updateWeights(eta, t, flow, objSign)
		if in.k%mwuExtractEvery == 0 {
			switch in.extract() {
			case repairInfeasible:
				return mwuInfeasibleOut, nil
			case repairDone:
				if in.accepted() {
					return mwuAccept, nil
				}
			}
		}
	}
	return mwuBudget, nil
}

// mwuInst is the normalized graph instance plus every iteration arena,
// grown to the largest solve seen so warm solves allocate nothing.
type mwuInst struct {
	flowLP // the detected instance; the MWU path needs gamma ≥ 0

	// Incidence CSR over nodes+1: entry a<<1|1 marks "arc a leaves this
	// node" (adds +x to its divergence), a<<1 marks "arrives" (−x).
	incPtr []int32
	incAdj []int32
	cnt    []int32

	sumOutU, sumInU []float64 // per-node Σu over leaving/arriving arcs
	sumU            float64

	// Iteration state.
	wLo, wUp           []float64 // per-node Hedge weights (0 on open sides)
	invRhoLo, invRhoUp []float64 // per-node inverse widths (0 on open sides)
	wObj, invRhoObj    float64
	sNode              []float64 // per-node oracle gradient scalar (+ free slot)
	div                []float64
	xcur, xsum         []float64
	blkNeg, blkFlow    []float64 // per-block Σ min(g,0)·u and oracle flow
	blkMag             []float64 // per-block Σ |g|·u (certificate error scale)
	k                  int       // iterations since the last weight reset

	// Bracket state.
	eps     float64
	bound   float64 // certified lower bound (min) / upper bound (max) on OPT
	bestVal float64 // incumbent objective (feasible integral point xbest)
	hasBest bool
	xbest   []float64
	xtry    []float64

	// Repair scratch.
	visited []uint32
	visGen  uint32
	parent  []int32
	queue   []int32

	iters int // MWU iterations this solve
}

// prepare builds the incidence CSR, the per-node bound sums and the
// per-node inverse widths for the current normalized instance.
func (in *mwuInst) prepare() {
	n, nn := in.n, in.nodes+1
	in.incPtr = Grow(in.incPtr, nn+1)
	for g := 0; g <= nn; g++ {
		in.incPtr[g] = 0
	}
	for a := 0; a < n; a++ {
		in.incPtr[in.tail[a]+1]++
		in.incPtr[in.head[a]+1]++
	}
	for g := 0; g < nn; g++ {
		in.incPtr[g+1] += in.incPtr[g]
	}
	in.incAdj = Grow(in.incAdj, 2*n)
	in.cnt = Grow(in.cnt, nn)
	copy(in.cnt[:nn], in.incPtr[:nn])
	for a := 0; a < n; a++ {
		tg, hg := in.tail[a], in.head[a]
		in.incAdj[in.cnt[tg]] = int32(a)<<1 | 1
		in.cnt[tg]++
		in.incAdj[in.cnt[hg]] = int32(a) << 1
		in.cnt[hg]++
	}

	in.sumOutU = Grow(in.sumOutU, nn)
	in.sumInU = Grow(in.sumInU, nn)
	for g := 0; g < nn; g++ {
		in.sumOutU[g] = 0
		in.sumInU[g] = 0
	}
	in.sumU = 0
	for a := 0; a < n; a++ {
		in.sumOutU[in.tail[a]] += in.u[a]
		in.sumInU[in.head[a]] += in.u[a]
		in.sumU += in.u[a]
	}

	in.invRhoLo = Grow(in.invRhoLo, in.nodes)
	in.invRhoUp = Grow(in.invRhoUp, in.nodes)
	for g := 0; g < in.nodes; g++ {
		in.invRhoUp[g] = 0
		if !math.IsInf(in.hi[g], 1) {
			rho := math.Max(math.Max(in.sumOutU[g]-in.hi[g], in.hi[g]+in.sumInU[g]), 1)
			in.invRhoUp[g] = 1 / rho
		}
		in.invRhoLo[g] = 0
		if !math.IsInf(in.lo[g], -1) {
			rho := math.Max(math.Max(in.lo[g]+in.sumInU[g], in.sumOutU[g]-in.lo[g]), 1)
			in.invRhoLo[g] = 1 / rho
		}
	}

	nb := (n + mwuBlockSize - 1) / mwuBlockSize
	in.blkNeg = Grow(in.blkNeg, nb)
	in.blkFlow = Grow(in.blkFlow, nb)
	in.blkMag = Grow(in.blkMag, nb)
	in.wLo = Grow(in.wLo, in.nodes)
	in.wUp = Grow(in.wUp, in.nodes)
	in.sNode = Grow(in.sNode, nn)
	in.div = Grow(in.div, in.nodes)
	in.xcur = Grow(in.xcur, n)
	in.xsum = Grow(in.xsum, n)
	in.xbest = Grow(in.xbest, n)
	in.xtry = Grow(in.xtry, n)
	in.visited = Grow(in.visited, nn)
	in.parent = Grow(in.parent, nn)
	if cap(in.queue) < nn {
		in.queue = make([]int32, 0, nn)
	}
}

func (in *mwuInst) zero(x []float64) {
	for a := 0; a < in.n; a++ {
		x[a] = 0
	}
}

// flowUpperBound bounds Σx over the feasible region (max sense). For the
// refine shape — every node a zero-divergence equality, every arc with
// both endpoints real — each node's outflow equals its inflow, giving
// the tighter Σ_g min(ΣuOut, ΣuIn); otherwise Σu is always valid.
func (in *mwuInst) flowUpperBound() float64 {
	tight := true
	for g := 0; g < in.nodes && tight; g++ {
		if in.lo[g] != 0 || in.hi[g] != 0 {
			tight = false
		}
	}
	free := int32(in.nodes)
	for a := 0; a < in.n && tight; a++ {
		if in.tail[a] == free || in.head[a] == free {
			tight = false
		}
	}
	if !tight {
		return in.sumU
	}
	s := 0.0
	for g := 0; g < in.nodes; g++ {
		s += math.Min(in.sumOutU[g], in.sumInU[g])
	}
	return s
}

// accepted reports whether the incumbent closes the bracket to (1+eps).
func (in *mwuInst) accepted() bool {
	if !in.hasBest {
		return false
	}
	if in.sense == Minimize {
		return in.bestVal <= (1+in.eps)*in.bound
	}
	// Max sense: bound < γ forces OPT = γ·0 = 0 by integrality, which
	// the (non-negative) incumbent already attains exactly.
	return in.bound <= (1+in.eps)*in.bestVal || in.bound < in.gamma
}

// resetWeights restarts the Hedge state for a new target t: uniform
// weight over the active (finite-side) constraints plus the objective
// constraint, and a fresh averaged iterate.
func (in *mwuInst) resetWeights(t float64) {
	m := 1
	for g := 0; g < in.nodes; g++ {
		if in.invRhoLo[g] != 0 {
			m++
		}
		if in.invRhoUp[g] != 0 {
			m++
		}
	}
	w0 := 1 / float64(m)
	for g := 0; g < in.nodes; g++ {
		in.wLo[g] = 0
		if in.invRhoLo[g] != 0 {
			in.wLo[g] = w0
		}
		in.wUp[g] = 0
		if in.invRhoUp[g] != 0 {
			in.wUp[g] = w0
		}
	}
	in.wObj = w0
	rho := math.Max(math.Max(in.gamma*in.sumU-t, t), 1)
	in.invRhoObj = 1 / rho
	for a := 0; a < in.n; a++ {
		in.xsum[a] = 0
	}
	in.k = 0
}

// constTerm is the x-independent part of the weighted average
// constraint (weights sum to 1 throughout).
func (in *mwuInst) constTerm(t, objSign float64) float64 {
	c := 0.0
	for g := 0; g < in.nodes; g++ {
		if in.wLo[g] != 0 {
			c += in.wLo[g] * in.invRhoLo[g] * in.lo[g]
		}
		if in.wUp[g] != 0 {
			c -= in.wUp[g] * in.invRhoUp[g] * in.hi[g]
		}
	}
	return c - objSign*in.wObj*in.invRhoObj*t
}

// updateWeights applies the Hedge update with the current oracle point's
// width-normalized constraint losses (all in [−1, 1]) and renormalizes
// the weights to sum to 1 — deterministic, and overflow-free.
func (in *mwuInst) updateWeights(eta, t, flow, objSign float64) {
	w := 0.0
	for g := 0; g < in.nodes; g++ {
		if in.wUp[g] != 0 {
			in.wUp[g] *= math.Exp(eta * (in.div[g] - in.hi[g]) * in.invRhoUp[g])
		}
		if in.wLo[g] != 0 {
			in.wLo[g] *= math.Exp(eta * (in.lo[g] - in.div[g]) * in.invRhoLo[g])
		}
		w += in.wUp[g] + in.wLo[g]
	}
	in.wObj *= math.Exp(eta * objSign * (in.gamma*flow - t) * in.invRhoObj)
	w += in.wObj
	inv := 1 / w
	for g := 0; g < in.nodes; g++ {
		in.wUp[g] *= inv
		in.wLo[g] *= inv
	}
	in.wObj *= inv
}

// extract rounds the averaged iterate to integers, repairs it into a
// feasible point, and records it as the incumbent when it improves.
func (in *mwuInst) extract() int {
	k := float64(in.k)
	for a := 0; a < in.n; a++ {
		v := math.Round(in.xsum[a] / k)
		if v < 0 {
			v = 0
		} else if v > in.u[a] {
			v = in.u[a]
		}
		in.xtry[a] = v
	}
	st := in.repairX(in.xtry)
	if st != repairDone {
		return st
	}
	in.recordCandidate()
	return repairDone
}

// recordCandidate installs xtry as the incumbent when it improves.
func (in *mwuInst) recordCandidate() {
	val := 0.0
	for a := 0; a < in.n; a++ {
		val += in.xtry[a]
	}
	val *= in.gamma
	better := !in.hasBest
	if !better {
		if in.sense == Minimize {
			better = val < in.bestVal
		} else {
			better = val > in.bestVal
		}
	}
	if better {
		in.bestVal = val
		copy(in.xbest[:in.n], in.xtry[:in.n])
		in.hasBest = true
	}
}

// divRange computes the divergence of nodes [glo, ghi) at x, each node
// accumulated sequentially in fixed CSR order — the value is independent
// of how nodes are sharded over workers.
func (in *mwuInst) divRange(glo, ghi int, x []float64) {
	for g := glo; g < ghi; g++ {
		d := 0.0
		for e := in.incPtr[g]; e < in.incPtr[g+1]; e++ {
			enc := in.incAdj[e]
			if enc&1 == 1 {
				d += x[enc>>1]
			} else {
				d -= x[enc>>1]
			}
		}
		in.div[g] = d
	}
}

// oracleBlocks runs the oracle over whole blocks [blo, bhi): per arc the
// weighted gradient decides x = u (negative gradient) or 0, the averaged
// iterate accumulates, and the block's partial reductions are stored for
// the ascending-order merge.
func (in *mwuInst) oracleBlocks(blo, bhi int, objCoef float64) {
	for b := blo; b < bhi; b++ {
		alo := b * mwuBlockSize
		ahi := alo + mwuBlockSize
		if ahi > in.n {
			ahi = in.n
		}
		var neg, flow, mag float64
		for a := alo; a < ahi; a++ {
			g := in.sNode[in.tail[a]] - in.sNode[in.head[a]] + objCoef
			ua := in.u[a]
			if g < 0 {
				in.xcur[a] = ua
				in.xsum[a] += ua
				neg += g * ua
				flow += ua
				mag -= g * ua
			} else {
				in.xcur[a] = 0
				mag += g * ua
			}
		}
		in.blkNeg[b] = neg
		in.blkFlow[b] = flow
		in.blkMag[b] = mag
	}
}

// repairX makes x feasible for every divergence interval by
// deterministic augmenting-path BFS, or proves the system infeasible.
// All data is integral, so every augmentation moves at least one unit
// and the arithmetic is exact in float64.
func (in *mwuInst) repairX(x []float64) int {
	in.divRange(0, in.nodes, x)
	budget := 64 + 8*in.n + 8*in.nodes
	for g := 0; g < in.nodes; g++ {
		for in.div[g] < in.lo[g] {
			if budget <= 0 {
				return repairBudget
			}
			budget--
			if !in.augment(x, g, true) {
				return repairInfeasible
			}
		}
	}
	for g := 0; g < in.nodes; g++ {
		for in.div[g] > in.hi[g] {
			if budget <= 0 {
				return repairBudget
			}
			budget--
			if !in.augment(x, g, false) {
				return repairInfeasible
			}
		}
	}
	return repairDone
}

// augment fixes part of node g's deficit (raise: div < lo) or surplus
// (raise=false: div > hi) along one shortest residual path to a node
// with spare interval room (or the virtual free endpoint). A false
// return is rigorous: the BFS-reachable set has every leaving arc
// saturated and every arriving arc empty, so its total divergence is
// extremal yet still violates the set's interval sums — a min-cut proof
// that no feasible point exists.
func (in *mwuInst) augment(x []float64, g int, raise bool) bool {
	free := int32(in.nodes)
	in.visGen++
	if in.visGen == 0 {
		for i := range in.visited {
			in.visited[i] = 0
		}
		in.visGen = 1
	}
	gen := in.visGen
	in.visited[g] = gen
	q := in.queue[:0]
	q = append(q, int32(g))
	target := int32(-1)
	for qi := 0; qi < len(q) && target < 0; qi++ {
		i := q[qi]
		for e := in.incPtr[i]; e < in.incPtr[i+1]; e++ {
			enc := in.incAdj[e]
			a := enc >> 1
			leaves := enc&1 == 1
			var j int32
			var inc bool // whether x[a] increases along this step
			if raise == leaves {
				// raise via a leaving arc, or lower via an arriving
				// arc: push more flow through a (needs room below u).
				if x[a] >= in.u[a] {
					continue
				}
				inc = true
			} else {
				// The reverse move drains existing flow from a.
				if x[a] <= 0 {
					continue
				}
				inc = false
			}
			if leaves {
				j = in.head[a]
			} else {
				j = in.tail[a]
			}
			if in.visited[j] == gen {
				continue
			}
			in.visited[j] = gen
			pe := a << 1
			if inc {
				pe |= 1
			}
			in.parent[j] = pe
			if j == free ||
				(raise && in.div[j] > in.lo[j]) ||
				(!raise && in.div[j] < in.hi[j]) {
				target = j
				break
			}
			q = append(q, j)
		}
	}
	in.queue = q[:0]
	if target < 0 {
		return false
	}

	var delta float64
	if raise {
		delta = in.lo[g] - in.div[g]
	} else {
		delta = in.div[g] - in.hi[g]
	}
	if target != free {
		var room float64
		if raise {
			room = in.div[target] - in.lo[target]
		} else {
			room = in.hi[target] - in.div[target]
		}
		if room < delta {
			delta = room
		}
	}
	for j := target; j != int32(g); {
		pe := in.parent[j]
		a := pe >> 1
		if pe&1 == 1 {
			if room := in.u[a] - x[a]; room < delta {
				delta = room
			}
		} else if x[a] < delta {
			delta = x[a]
		}
		if j == in.head[a] {
			j = in.tail[a]
		} else {
			j = in.head[a]
		}
	}
	for j := target; j != int32(g); {
		pe := in.parent[j]
		a := pe >> 1
		if pe&1 == 1 {
			x[a] += delta
		} else {
			x[a] -= delta
		}
		if j == in.head[a] {
			j = in.tail[a]
		} else {
			j = in.head[a]
		}
	}
	if raise {
		in.div[g] += delta
		if target != free {
			in.div[target] -= delta
		}
	} else {
		in.div[g] -= delta
		if target != free {
			in.div[target] += delta
		}
	}
	return true
}

// Kernel region kinds dispatched by mwuTask.Do.
const (
	mwuKindOracle = iota
	mwuKindDiv
)

// mwuPar is the MWU solver's parallel state, mirroring lpPar: the
// installed worker group, the current region's shard plan, and the
// solve-level fork bookkeeping behind ParallelSolves.
type mwuPar struct {
	grp   *par.Group
	procs int
	// minWork overrides the fork threshold when nonzero; equivalence
	// tests set it to 1 to push tiny instances across the forked path.
	minWork int

	canFork bool
	forked  bool
	shards  []par.Range
	solves  int
	kind    int
	task    mwuTask

	in      *mwuInst
	objCoef float64
}

// mwuTask adapts the current region to par.Task; stored by value so
// passing &pp.task to Group.Run never allocates.
type mwuTask struct{ pp *mwuPar }

func (t *mwuTask) Do(w int) {
	pp := t.pp
	sh := pp.shards[w]
	switch pp.kind {
	case mwuKindOracle:
		pp.in.oracleBlocks(sh.Lo, sh.Hi, pp.objCoef)
	case mwuKindDiv:
		pp.in.divRange(sh.Lo, sh.Hi, pp.in.xcur)
	}
}

// begin resets the per-solve fork state.
func (pp *mwuPar) begin() {
	pp.task.pp = pp
	pp.forked = false
	pp.canFork = pp.grp != nil && pp.procs > 1
}

// width plans a region's fork width exactly like lpPar.width.
func (pp *mwuPar) width(work, threshold int) int {
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

// noteFork records that the current solve forked at least one region.
func (pp *mwuPar) noteFork() {
	if !pp.forked {
		pp.forked = true
		pp.solves++
	}
}

// runOracle executes the oracle over all blocks — sharded over whole
// blocks when the arc count warrants a fork, inline otherwise — and
// merges the per-block reductions in ascending block order either way,
// so the sums are bit-identical across worker counts.
func (s *MWU) runOracle(objCoef float64) (neg, flow, mag float64) {
	in, pp := &s.inst, &s.pp
	nb := (in.n + mwuBlockSize - 1) / mwuBlockSize
	ran := false
	if pp.canFork {
		if wk := pp.width(in.n, mwuParMin); wk > 1 {
			pp.shards = par.Split(pp.shards[:0], nb, wk)
			if len(pp.shards) >= 2 {
				pp.kind, pp.in, pp.objCoef = mwuKindOracle, in, objCoef
				pp.noteFork()
				pp.grp.Run(len(pp.shards), &pp.task)
				ran = true
			}
		}
	}
	if !ran {
		in.oracleBlocks(0, nb, objCoef)
	}
	for b := 0; b < nb; b++ {
		neg += in.blkNeg[b]
		flow += in.blkFlow[b]
		mag += in.blkMag[b]
	}
	return neg, flow, mag
}

// runDiv computes every real node's divergence at the current oracle
// point, sharding nodes by incidence weight when the entry count
// warrants a fork. Per-node accumulation order is fixed by the CSR, so
// results are bit-identical across worker counts.
func (s *MWU) runDiv() {
	in, pp := &s.inst, &s.pp
	if pp.canFork {
		entries := int(in.incPtr[in.nodes])
		if wk := pp.width(entries, mwuParMin); wk > 1 {
			pp.shards = par.SplitByWeight(pp.shards[:0], in.incPtr[:in.nodes+1], wk)
			if len(pp.shards) >= 2 {
				pp.kind, pp.in = mwuKindDiv, in
				pp.noteFork()
				pp.grp.Run(len(pp.shards), &pp.task)
				return
			}
		}
	}
	in.divRange(0, in.nodes, in.xcur)
}
