package lp

import (
	"context"
	"math"

	"repro/internal/cancel"
	"repro/internal/par"
)

// Network is the primal network simplex for graph-shaped LPs (see
// flowLP): the balance and refine LPs, which are flows on the P-node
// partition quotient graph. Its basis is a spanning tree over the
// quotient-graph nodes plus one root, and every flow, bound and
// potential is an int64, so there is no tableau and no rounding.
//
//   - Each node's divergence interval [lo, hi] becomes a root arc with
//     those bounds, clamped to what the node's arcs can carry; an arc
//     endpoint in no row is the root itself.
//   - Cold start: every arc at a bound, and one artificial arc per node
//     to the root that carries the node's imbalance at big-M cost. A
//     solve that ends with flow on an artificial arc is Infeasible.
//   - Pricing is a deterministic block search over the arcs. The tree
//     update re-hangs the subtree cut off by the leaving arc and
//     recomputes depths and potentials in O(P).
//   - The leaving arc is the last blocking arc of the cycle, walked from
//     its apex in the direction of the flow change. That keeps the tree
//     strongly feasible, so degenerate pivots cannot cycle.
//
// Anything [flowLP.detect] does not recognise is delegated to an exact
// [DualWarm] session, which falls back to [Bounded] in turn; sessions
// count those solves as [FallbackSolver] fallbacks.
//
// Network has no settings and no state: Solve runs each problem
// through a throwaway session, so the returned Solution is freshly
// allocated and concurrent Solve calls are safe. NewSession returns the
// stateful form the engine holds, whose arenas make warm solves
// allocation-free.
type Network struct{}

// Name implements Solver.
func (Network) Name() string { return "network" }

// netMaxIter caps the pivots of one tree solve. The strongly feasible
// rule already rules out cycling; the cap is a guard, reported as
// IterLimit.
const netMaxIter = 200000

// NewSession implements [SessionSolver].
func (Network) NewSession() Solver { return &networkSession{maxIter: netMaxIter} }

// Solve implements Solver via a throwaway session, so the result does
// not alias any reused state.
func (Network) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	ses := networkSession{maxIter: netMaxIter}
	return ses.Solve(ctx, p)
}

// networkSession is the stateful form of [Network]: one solve stream's
// detected instance, tree arena, fallback session and Solution arena.
// Not safe for concurrent use.
type networkSession struct {
	maxIter int // pivot cap: netMaxIter, lower only in tests
	f       flowLP
	t       netTree
	inner   *DualWarm // exact fallback (lazily created)

	native, fallbacks int

	// Solution arena: Solve returns &sol, overwritten by the next Solve
	// on this session.
	sol  Solution
	solX []float64
}

// Name implements Solver.
func (s *networkSession) Name() string { return "network" }

// Fallbacks implements [FallbackSolver].
func (s *networkSession) Fallbacks() int { return s.fallbacks }

func (s *networkSession) fallback() *DualWarm {
	if s.inner == nil {
		s.inner = &DualWarm{}
	}
	return s.inner
}

// SetWorkers implements [ParallelSolver]. The tree solver itself is
// sequential; the group shards the fallback session's simplex kernels.
func (s *networkSession) SetWorkers(grp *par.Group, workers int) {
	s.fallback().SetWorkers(grp, workers)
}

// ParallelSolves implements [ParallelSolver]: the fallback session's
// forked solves.
func (s *networkSession) ParallelSolves() int {
	if s.inner == nil {
		return 0
	}
	return s.inner.ParallelSolves()
}

// Solve implements Solver. The returned *Solution (including X) is an
// arena overwritten by this session's next Solve.
func (s *networkSession) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ok, infeasible := s.f.detect(p)
	if ok && !s.t.build(&s.f) {
		ok, infeasible = false, false
	}
	if !ok && !infeasible {
		s.fallbacks++
		return s.fallback().Solve(ctx, p)
	}
	s.native++
	s.sol = Solution{Status: Infeasible}
	if infeasible || s.t.infeasible {
		return &s.sol, nil
	}
	status, err := s.t.solve(ctx, s.maxIter)
	if err != nil {
		return nil, err
	}
	s.sol = Solution{Status: status, Iterations: s.t.iters}
	if status == Optimal {
		s.solX = Grow(s.solX, s.f.n)
		var flow int64
		for j := range s.solX {
			s.solX[j] = float64(s.t.flow[j])
			flow += s.t.flow[j]
		}
		s.sol.X = s.solX
		s.sol.Objective = s.f.gamma * float64(flow)
	}
	return &s.sol, nil
}

// netMaxCap bounds the arc capacities the tree solver accepts, so every
// flow, potential and imbalance sum stays far inside int64. Larger
// problems go to the fallback.
const netMaxCap = 1 << 40

// netInf is the capacity of an artificial arc.
const netInf = math.MaxInt64 / 4

// Arc states: nonbasic at the lower or upper bound (the sign is the
// direction of an improving flow change), or in the tree / fixed.
const (
	netLower = 1
	netUpper = -1
	netTree0 = 0
)

// netTree is the network simplex state over nodes+1 tree nodes (the
// quotient-graph nodes, then the root). Arcs are laid out as the n real
// arcs, then one root arc per node (root → node, bounds = the node's
// divergence interval), then one artificial arc per node. Pricing scans
// the first n+nodes; artificial arcs never re-enter once they leave.
type netTree struct {
	nodes, n, m int // m = n + nodes, the priced arcs
	src, dst    []int32
	low, up     []int64
	flow, cost  []int64
	state       []int8

	// Tree: per node its parent, the arc to it, whether that arc points
	// up (node → parent), its depth and its potential, and its children
	// as a doubly linked sibling list.
	parent, pred      []int32
	dirUp             []bool
	depth             []int32
	pi                []int64
	child, next, prev []int32 // first child, next and previous sibling (-1 = none)

	excess []int64 // per node during build; inflow minus outflow

	cursor, block int // block search cursor and size
	iters         int
	infeasible    bool // build found a node whose clamped interval is empty
}

// build lays out the arcs and the initial strongly feasible tree for
// the detected instance f. It returns false when a capacity exceeds
// netMaxCap (the caller falls back); t.infeasible reports an interval
// no flow on the node's arcs can reach.
func (t *netTree) build(f *flowLP) bool {
	nodes, n := f.nodes, f.n
	root := int32(nodes)
	V := nodes + 1
	t.nodes, t.n, t.m = nodes, n, n+nodes
	all := n + 2*nodes
	t.src = Grow(t.src, all)
	t.dst = Grow(t.dst, all)
	t.low = Grow(t.low, all)
	t.up = Grow(t.up, all)
	t.flow = Grow(t.flow, all)
	t.cost = Grow(t.cost, all)
	t.state = Grow(t.state, all)
	t.parent = Grow(t.parent, V)
	t.pred = Grow(t.pred, V)
	t.dirUp = Grow(t.dirUp, V)
	t.depth = Grow(t.depth, V)
	t.pi = Grow(t.pi, V)
	t.child = Grow(t.child, V)
	t.next = Grow(t.next, V)
	t.prev = Grow(t.prev, V)
	t.excess = Grow(t.excess, V)
	t.iters = 0
	t.infeasible = false

	// Unit costs in the minimization sense: the objective is gamma·Σx.
	var c int64
	switch {
	case f.gamma == 0:
	case (f.gamma > 0) == (f.sense == Minimize):
		c = 1
	default:
		c = -1
	}
	// excess doubles as the per-node capacity sums while the root arcs
	// are clamped: outflow capacity in excess, inflow capacity in pi.
	for v := 0; v < V; v++ {
		t.excess[v], t.pi[v] = 0, 0
	}
	for a := 0; a < n; a++ {
		if f.u[a] > netMaxCap {
			return false
		}
		s, d, u := f.tail[a], f.head[a], int64(f.u[a])
		t.src[a], t.dst[a] = s, d
		t.low[a], t.up[a], t.cost[a] = 0, u, c
		t.flow[a], t.state[a] = 0, netLower
		if s == d || u == 0 {
			// A self-loop moves no divergence and an empty range moves
			// nothing: fix either at its cheaper bound, outside pricing.
			t.state[a] = netTree0
			if c < 0 {
				t.flow[a] = u
			}
			continue
		}
		t.excess[s] += u
		t.pi[d] += u
	}
	for g := 0; g < nodes; g++ {
		e := n + g
		lo := math.Max(f.lo[g], -float64(t.pi[g]))
		hi := math.Min(f.hi[g], float64(t.excess[g]))
		if lo > hi {
			t.infeasible = true
			return true
		}
		t.src[e], t.dst[e] = root, int32(g)
		t.low[e], t.up[e], t.cost[e] = int64(lo), int64(hi), 0
		switch {
		case lo == hi:
			t.flow[e], t.state[e] = int64(lo), netTree0
		case -lo <= hi:
			t.flow[e], t.state[e] = int64(lo), netLower
		default:
			t.flow[e], t.state[e] = int64(hi), netUpper
		}
	}

	// Ties among optimal flows are broken by a perturbed objective: arc
	// a costs c·(K + w_a) with w_a = (a+1)² and K above any total Σw·u
	// can reach, so the unit objective dominates, and among its optima
	// the minimization sense prefers low-index arcs and the maximization
	// sense high-index ones. The answer then depends much less on the
	// pivot path. Where the perturbed costs could overflow int64 they
	// are dropped, and any optimal vertex is returned.
	scale := int64(1)
	if c != 0 {
		var W, wmax float64
		for a := 0; a < n; a++ {
			if t.state[a] != netTree0 {
				w := float64(a+1) * float64(a+1)
				W += w * float64(t.up[a])
				wmax = math.Max(wmax, w)
			}
		}
		// K stays exact in float64, and every potential (at most
		// 2(V+1)² times the largest cost) inside int64.
		if K := W + 1; K+wmax < 1<<52 && (K+wmax)*float64(2*(V+1)*(V+1)) < 1<<61 {
			scale = int64(K + wmax)
			for a := 0; a < n; a++ {
				if t.state[a] != netTree0 {
					t.cost[a] = c * (int64(K) + int64(a+1)*int64(a+1))
				}
			}
		}
	}

	// Initial tree: every node hangs off the root by its artificial arc,
	// which carries the imbalance left by the nonbasic flows. An arc
	// pointing up may carry 0; one pointing down carries a positive
	// amount. Either way flow can be pushed from the node to the root,
	// so the tree is strongly feasible.
	for v := 0; v < V; v++ {
		t.excess[v] = 0
	}
	for e := 0; e < t.m; e++ {
		if fl := t.flow[e]; fl != 0 {
			t.excess[t.dst[e]] += fl
			t.excess[t.src[e]] -= fl
		}
	}
	bigM := 2 * int64(V+1) * scale // exceeds the cost of any simple path
	t.parent[root], t.pred[root], t.depth[root], t.pi[root] = -1, -1, 0, 0
	t.child[root], t.next[root], t.prev[root] = -1, -1, -1
	if nodes > 0 {
		t.child[root] = 0
	}
	for g := 0; g < nodes; g++ {
		e := t.m + g
		t.low[e], t.up[e], t.cost[e], t.state[e] = 0, netInf, bigM, netTree0
		t.parent[g], t.pred[g], t.depth[g] = root, int32(e), 1
		t.child[g], t.next[g], t.prev[g] = -1, int32(g+1), int32(g-1)
		if g == nodes-1 {
			t.next[g] = -1
		}
		if ex := t.excess[g]; ex >= 0 {
			t.src[e], t.dst[e], t.flow[e] = int32(g), root, ex
			t.dirUp[g], t.pi[g] = true, -bigM
		} else {
			t.src[e], t.dst[e], t.flow[e] = root, int32(g), -ex
			t.dirUp[g], t.pi[g] = false, bigM
		}
	}
	t.cursor = 0
	t.block = int(math.Sqrt(float64(t.m)))
	if t.block < 10 {
		t.block = 10
	}
	return true
}

// solve pivots to optimality and reports Optimal or Infeasible
// (flow left on an artificial arc), or IterLimit at the pivot cap.
func (t *netTree) solve(ctx context.Context, maxIter int) (Status, error) {
	for {
		if t.iters&ctxCheckMask == 0 {
			if err := cancel.Check(ctx, "network simplex"); err != nil {
				return IterLimit, err
			}
		}
		e := t.price()
		if e < 0 {
			break
		}
		if t.iters >= maxIter {
			return IterLimit, nil
		}
		t.pivot(e)
		t.iters++
	}
	for e := t.m; e < t.m+t.nodes; e++ {
		if t.flow[e] != 0 {
			return Infeasible, nil
		}
	}
	return Optimal, nil
}

// reduced returns arc e's reduced cost; tree arcs have 0.
func (t *netTree) reduced(e int) int64 {
	return t.cost[e] + t.pi[t.src[e]] - t.pi[t.dst[e]]
}

// price is the block search: scan the priced arcs cyclically from the
// cursor in blocks, and return the most violating arc of the first
// block that holds one, or -1 when no arc violates (optimal).
func (t *netTree) price() int {
	best, bestV := -1, int64(0)
	e, cnt := t.cursor, t.block
	for k := 0; k < t.m; k++ {
		if s := t.state[e]; s != netTree0 {
			if v := int64(s) * t.reduced(e); v < bestV {
				best, bestV = e, v
			}
		}
		if e++; e == t.m {
			e = 0
		}
		if cnt--; cnt == 0 {
			if best >= 0 {
				break
			}
			cnt = t.block
		}
	}
	t.cursor = e
	return best
}

// pivot brings arc e into the tree: push the largest amount the cycle
// allows in e's improving direction, then drop the blocking arc, or
// just flip e to its other bound when e itself blocks.
func (t *netTree) pivot(e int) {
	first, second := t.src[e], t.dst[e]
	if t.state[e] == netUpper {
		first, second = second, first
	}
	// Flow runs first → second over e, up the tree from second to the
	// apex, and down from the apex to first. The leaving arc is the
	// last blocking arc met from the apex in that direction: nearest
	// first on its side, nearest the apex on second's side, and
	// second's side on ties.
	join := t.join(first, second)
	delta := t.up[e] - t.low[e]
	side := 0
	var out int32
	for u := first; u != join; u = t.parent[u] {
		a := t.pred[u]
		d := t.up[a] - t.flow[a]
		if t.dirUp[u] {
			d = t.flow[a] - t.low[a]
		}
		if d < delta {
			delta, out, side = d, u, 1
		}
	}
	for u := second; u != join; u = t.parent[u] {
		a := t.pred[u]
		d := t.flow[a] - t.low[a]
		if t.dirUp[u] {
			d = t.up[a] - t.flow[a]
		}
		if d <= delta {
			delta, out, side = d, u, 2
		}
	}
	if delta > 0 {
		t.flow[e] += int64(t.state[e]) * delta
		for u := first; u != join; u = t.parent[u] {
			if t.dirUp[u] {
				t.flow[t.pred[u]] -= delta
			} else {
				t.flow[t.pred[u]] += delta
			}
		}
		for u := second; u != join; u = t.parent[u] {
			if t.dirUp[u] {
				t.flow[t.pred[u]] += delta
			} else {
				t.flow[t.pred[u]] -= delta
			}
		}
	}
	if side == 0 {
		t.state[e] = -t.state[e]
		return
	}
	leave := t.pred[out]
	t.state[leave] = netUpper
	if t.flow[leave] == t.low[leave] {
		t.state[leave] = netLower
	}
	t.state[e] = netTree0

	// Re-hang the subtree cut off below out: it is re-rooted at the
	// endpoint of e on out's side (uIn) and attached to the other
	// endpoint (vIn) by e, reversing the tree path from uIn up to out.
	uIn, vIn := first, second
	if side == 2 {
		uIn, vIn = second, first
	}
	prevNode, prevArc, prevUp := vIn, int32(e), t.src[e] == uIn
	for w := uIn; ; {
		nextNode, nextArc, nextUp := t.parent[w], t.pred[w], !t.dirUp[w]
		t.detach(w)
		t.parent[w], t.pred[w], t.dirUp[w] = prevNode, prevArc, prevUp
		t.attach(w)
		if w == out {
			break
		}
		prevNode, prevArc, prevUp, w = w, nextArc, nextUp, nextNode
	}
	t.relabel(uIn)
}

// detach unlinks w from its parent's child list.
func (t *netTree) detach(w int32) {
	if p := t.prev[w]; p >= 0 {
		t.next[p] = t.next[w]
	} else {
		t.child[t.parent[w]] = t.next[w]
	}
	if n := t.next[w]; n >= 0 {
		t.prev[n] = t.prev[w]
	}
}

// attach links w first into its parent's child list.
func (t *netTree) attach(w int32) {
	p := t.parent[w]
	t.prev[w], t.next[w] = -1, t.child[p]
	if c := t.child[p]; c >= 0 {
		t.prev[c] = w
	}
	t.child[p] = w
}

// join returns the apex of the cycle closed by an arc between u and v:
// their nearest common ancestor.
func (t *netTree) join(u, v int32) int32 {
	for u != v {
		switch du, dv := t.depth[u], t.depth[v]; {
		case du > dv:
			u = t.parent[u]
		case dv > du:
			v = t.parent[v]
		default:
			u, v = t.parent[u], t.parent[v]
		}
	}
	return u
}

// relabel recomputes depth and potential, top-down from each node's
// parent (tree arcs have zero reduced cost), over the subtree rooted at
// r: the only nodes a pivot moves. The walk is a preorder over the
// child lists, so a pivot costs O(subtree), at most O(P).
func (t *netTree) relabel(r int32) {
	for v := r; ; {
		p, a := t.parent[v], t.pred[v]
		t.depth[v] = t.depth[p] + 1
		if t.dirUp[v] {
			t.pi[v] = t.pi[p] - t.cost[a]
		} else {
			t.pi[v] = t.pi[p] + t.cost[a]
		}
		if c := t.child[v]; c >= 0 {
			v = c
			continue
		}
		for v != r && t.next[v] < 0 {
			v = t.parent[v]
		}
		if v == r {
			return
		}
		v = t.next[v]
	}
}
