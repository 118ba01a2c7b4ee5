package lp

import "math"

// flowLP is a graph-shaped LP in node–arc form: the shape of the balance
// and refine LPs, which are flows on the partition quotient graph. Every
// variable is an arc a with integral bounds 0 ≤ x_a ≤ u_a; every node g
// bounds its divergence Σ_{tail=g} x − Σ_{head=g} x to the integral
// interval [lo_g, hi_g]; and the objective puts one coefficient gamma on
// every arc. An arc endpoint that appears in no row is the virtual free
// endpoint, index nodes, which carries no constraint.
//
// detect recognises the shape, and both solvers that exploit it read the
// result: "mwu" (its certify-or-fallback ladder) and "network" (the
// spanning-tree simplex).
type flowLP struct {
	n     int // arcs (variables)
	nodes int // real divergence nodes; index nodes is the free endpoint
	sense Sense
	gamma float64 // the uniform objective coefficient

	tail, head []int32   // per arc (free endpoint = nodes)
	u          []float64 // per-arc integral upper bound
	lo, hi     []float64 // per-node divergence interval (±Inf = open side)
}

// detect fills f from p and reports whether p is graph shaped:
//
//   - one finite objective coefficient shared by every variable;
//   - finite integral upper bounds;
//   - every row's terms are ±1, and each variable appears at most once
//     with +1 (its tail) and at most once with −1 (its head) over all
//     rows;
//   - integral right-hand sides. A run of adjacent rows with identical
//     terms (the balance phase's GE/LE slack pair) merges into one
//     interval node.
//
// ok=false means p is not graph shaped. infeasible=true means a row, or
// a merged run of rows, is a contradiction on its own: an empty interval,
// or an empty row whose right-hand side excludes 0. That verdict is
// exact, so callers report Infeasible without solving.
func (f *flowLP) detect(p *Problem) (ok, infeasible bool) {
	n := p.NumVars()
	f.n = n
	f.sense = p.Sense
	f.gamma = 0
	if n > 0 {
		g0 := p.Obj[0]
		if math.IsNaN(g0) || math.IsInf(g0, 0) {
			return false, false
		}
		for _, c := range p.Obj[1:] {
			if c != g0 {
				return false, false
			}
		}
		f.gamma = g0
	}
	f.u = Grow(f.u, n)
	for j, ub := range p.Upper {
		if math.IsInf(ub, 1) {
			return false, false
		}
		r := math.Round(ub)
		if math.Abs(ub-r) > 1e-6 {
			return false, false
		}
		f.u[j] = r
	}
	f.tail = Grow(f.tail, n)
	f.head = Grow(f.head, n)
	for j := 0; j < n; j++ {
		f.tail[j] = -1
		f.head[j] = -1
	}

	mRows := len(p.Cons)
	f.lo = Grow(f.lo, mRows)
	f.hi = Grow(f.hi, mRows)
	nodes := 0
	for i := 0; i < mRows; {
		k := i + 1
		for k < mRows && sameTerms(p.Cons[i].Terms, p.Cons[k].Terms) {
			k++
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		for r := i; r < k; r++ {
			c := &p.Cons[r]
			b := math.Round(c.RHS)
			if math.Abs(c.RHS-b) > 1e-6 {
				return false, false
			}
			switch c.Rel {
			case EQ:
				lo = math.Max(lo, b)
				hi = math.Min(hi, b)
			case LE:
				hi = math.Min(hi, b)
			case GE:
				lo = math.Max(lo, b)
			}
		}
		if len(p.Cons[i].Terms) == 0 {
			// Empty row: the sum over no arcs is 0, so the row is
			// vacuous when 0 lies in the interval and a contradiction
			// otherwise (the balance phase emits exactly such rows for
			// deliberately infeasible stages).
			if lo > 0 || hi < 0 {
				return false, true
			}
			i = k
			continue
		}
		if lo > hi {
			return false, true
		}
		g := int32(nodes)
		for _, tm := range p.Cons[i].Terms {
			switch tm.Coef {
			case 1:
				if f.tail[tm.Var] != -1 {
					return false, false
				}
				f.tail[tm.Var] = g
			case -1:
				if f.head[tm.Var] != -1 {
					return false, false
				}
				f.head[tm.Var] = g
			default:
				return false, false
			}
		}
		f.lo[nodes], f.hi[nodes] = lo, hi
		nodes++
		i = k
	}
	f.nodes = nodes
	free := int32(nodes)
	for j := 0; j < n; j++ {
		if f.tail[j] == -1 {
			f.tail[j] = free
		}
		if f.head[j] == -1 {
			f.head[j] = free
		}
	}
	return true, false
}

// sameTerms reports element-wise equality of two sparse rows.
func sameTerms(a, b []Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
