package lp

import (
	"context"
	"math"
	"strings"
	"testing"
)

// FuzzSolverAgreement feeds randomized small LPs (decoded from raw bytes)
// to every solver in the registry — not a hard-coded list, so new
// registrations are covered automatically — and checks they agree on
// status and optimum, and that reported optima are feasible. The
// "dual-warm" solver is additionally run twice back-to-back through one
// session on a same-structure perturbed problem, proving warm-start
// resumption from a retained basis agrees with cold solves.
func FuzzSolverAgreement(f *testing.F) {
	f.Add([]byte{2, 1, 3, 200, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{3, 2, 0, 0, 9, 9, 9, 1, 1, 1, 0, 0, 0, 5})
	f.Add([]byte{1, 1, 255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		if p == nil {
			return
		}
		solve := func(label string, s Solver, q *Problem) *Solution {
			sol, err := s.Solve(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if sol.Status == Optimal {
				if err := CheckFeasible(q, sol.X, 1e-5); err != nil {
					t.Fatalf("%s: optimal but infeasible: %v", label, err)
				}
			}
			return sol
		}
		agree := func(label string, sol, ref *Solution) {
			if sol.Status != ref.Status {
				t.Fatalf("%s: status %v, want %v", label, sol.Status, ref.Status)
			}
			if ref.Status == Optimal &&
				math.Abs(sol.Objective-ref.Objective) > 1e-5*(1+math.Abs(ref.Objective)) {
				t.Fatalf("%s: objective %g, want %g", label, sol.Objective, ref.Objective)
			}
		}
		// Approximate solvers promise status agreement but only a bounded
		// suboptimality window around the exact optimum: one-sided (an
		// Optimal answer cannot beat the true optimum) plus a (1+acc)
		// factor in the solver's sense.
		agreeApprox := func(label string, sol, ref *Solution, acc float64) {
			if sol.Status != ref.Status {
				t.Fatalf("%s: status %v, want %v", label, sol.Status, ref.Status)
			}
			if ref.Status != Optimal {
				return
			}
			tol := 1e-5 * (1 + math.Abs(ref.Objective))
			lo, hi := ref.Objective-tol, ref.Objective+acc*math.Abs(ref.Objective)+tol
			if p.Sense == Maximize {
				lo, hi = ref.Objective-acc*math.Abs(ref.Objective)-tol, ref.Objective+tol
			}
			if sol.Objective < lo || sol.Objective > hi {
				t.Fatalf("%s: objective %g outside [%g, %g] (exact %g, acc %g)",
					label, sol.Objective, lo, hi, ref.Objective, acc)
			}
		}

		var ref *Solution
		for _, name := range Names() {
			// Tests run before fuzz seed corpora and may leave throwaway
			// "test-…" registrations behind (the registry has no
			// unregister; see TestRegistryConcurrentLookupDuringRegister)
			// — skip them so each input exercises the real solvers.
			if strings.HasPrefix(name, "test-") {
				continue
			}
			s, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			sol := solve(name, s, p)
			if sol.Status == IterLimit {
				return // bounded work budget exceeded; skip comparisons
			}
			if ref == nil {
				ref = sol
			} else if as, ok := s.(ApproximateSolver); ok {
				agreeApprox(name, sol, ref, as.TargetAccuracy())
			} else {
				agree(name, sol, ref)
			}
		}

		// Warm-start round trip: one dual-warm session solves p (cold,
		// populating its basis cache) and then a same-structure
		// perturbation of p (resuming from the retained basis). The warm
		// result must agree with a cold solve of the perturbed problem.
		dw, err := Lookup("dual-warm")
		if err != nil {
			t.Fatal(err)
		}
		ses, ok := Session(dw).(*DualWarm)
		if !ok {
			t.Fatalf("dual-warm session is %T, want *DualWarm", Session(dw))
		}
		p2 := perturbLP(p, data, false) // new RHS and bounds, same costs
		p3 := perturbLP(p, data, true)  // new costs too
		// Session solutions are arenas overwritten by the session's next
		// Solve, so snapshot the first solve's status before re-solving.
		firstStatus := solve("dual-warm/session-first", ses, p).Status
		warm := solve("dual-warm/session-warm", ses, p2)
		cold := solve("dual-warm/fresh-cold", Session(dw), p2)
		refP2 := solve("bounded/perturbed", Bounded{MaxIter: 20000}, p2)
		if firstStatus == IterLimit || warm.Status == IterLimit ||
			cold.Status == IterLimit || refP2.Status == IterLimit {
			return
		}
		agree("dual-warm/session-warm vs cold", warm, cold)
		agree("dual-warm/session-warm vs bounded", warm, refP2)
		if firstStatus == Optimal {
			// Unchanged costs keep the retained basis dual feasible, so the
			// second solve must have resumed from it rather than re-solving
			// cold — this is the pipeline's successive-balance-stage shape.
			if warmCount, _ := ses.Counts(); warmCount != 1 {
				t.Fatalf("session did not warm-start: warm count %d", warmCount)
			}
		}
		// A cost perturbation may legitimately defeat the warm start (the
		// solver falls back to cold when bound flips cannot repair dual
		// feasibility), but the answer must still agree with a cold solver.
		costWarm := solve("dual-warm/session-cost-perturbed", ses, p3)
		refP3 := solve("bounded/cost-perturbed", Bounded{MaxIter: 20000}, p3)
		if costWarm.Status != IterLimit && refP3.Status != IterLimit {
			agree("dual-warm/session-cost-perturbed vs bounded", costWarm, refP3)
		}
	})
}

// perturbLP derives a same-structure problem — identical constraint
// matrix, different RHS and bound values (plus, when costs is set,
// different objective coefficients) — deterministically from the fuzz
// input. With costs false it reproduces the exact shape of the
// pipeline's successive balance stages, where warm starting is
// guaranteed to apply.
func perturbLP(p *Problem, data []byte, costs bool) *Problem {
	seed := uint64(len(data)) + 0x9e3779b9
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	q := &Problem{
		Sense: p.Sense,
		Obj:   append([]float64(nil), p.Obj...),
		Upper: append([]float64(nil), p.Upper...),
		Cons:  append([]Constraint(nil), p.Cons...),
	}
	if costs {
		for v := range q.Obj {
			q.Obj[v] = float64(int(next()%11) - 5)
		}
	}
	for v := range q.Upper {
		q.Upper[v] = float64(next() % 9) // finite, like decodeLP's bounds
	}
	for i := range q.Cons {
		q.Cons[i].RHS = float64(int(next()%13) - 4)
	}
	return q
}

// FuzzMWUQualityBound feeds randomized balance/refine-shaped LPs — the
// interval-node/±1-arc instances the pipeline's balance and refinement
// phases emit — to the approximate "mwu" solver and pins its quality
// contract against the exact dual-warm optimum: statuses agree exactly,
// Optimal solutions are primal-feasible, native (certified) answers lie
// within the solver's (1+eps) window, and fallback answers are exact.
// Both the default accuracy and a tighter WithAccuracy(0.01) session are
// exercised on every input.
func FuzzMWUQualityBound(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 0, 1, 3, 1, 2, 0, 2, 1, 1, 0, 3, 2, 1})
	f.Add([]byte{2, 5, 1, 1, 4, 0, 1, 3, 1, 0, 2, 2, 0, 1, 1, 1, 2, 0, 4})
	f.Add([]byte{4, 6, 0, 2, 1, 0, 1, 2, 3, 0, 0, 2, 1, 3, 2, 9, 9, 1, 0, 5, 2})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeGraphLP(data)
		if p == nil {
			return
		}
		ref, err := Session(NewDualWarm()).Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("dual-warm: %v", err)
		}
		if ref.Status == IterLimit {
			return // bounded work budget exceeded; no reference optimum
		}
		for _, eps := range []float64{0, 0.01} { // 0 = solver default
			ses, ok := Session(NewMWU(), WithAccuracy(eps)).(*MWU)
			if !ok {
				t.Fatalf("mwu session is %T, want *MWU", Session(NewMWU()))
			}
			sol, err := ses.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("mwu(eps=%g): %v", eps, err)
			}
			if sol.Status != ref.Status {
				t.Fatalf("mwu(eps=%g): status %v, want %v", eps, sol.Status, ref.Status)
			}
			if ref.Status != Optimal {
				continue
			}
			if err := CheckFeasible(p, sol.X, 1e-6); err != nil {
				t.Fatalf("mwu(eps=%g): optimal but infeasible: %v", eps, err)
			}
			acc := ses.TargetAccuracy()
			native, fallbacks := ses.Counts()
			if native+fallbacks != 1 {
				t.Fatalf("mwu(eps=%g): counts native=%d fallbacks=%d after one solve",
					eps, native, fallbacks)
			}
			if fallbacks == 1 {
				acc = 0 // the fallback path is exact
			}
			tol := 1e-5 * (1 + math.Abs(ref.Objective))
			lo, hi := ref.Objective-tol, ref.Objective+acc*math.Abs(ref.Objective)+tol
			if p.Sense == Maximize {
				lo, hi = ref.Objective-acc*math.Abs(ref.Objective)-tol, ref.Objective+tol
			}
			if sol.Objective < lo || sol.Objective > hi {
				t.Fatalf("mwu(eps=%g, fallbacks=%d): objective %g outside [%g, %g] (exact %g)",
					eps, fallbacks, sol.Objective, lo, hi, ref.Objective)
			}
		}
	})
}

// decodeGraphLP deterministically builds a balance/refine-shaped LP from
// fuzz bytes: a uniform non-negative objective over integral-bounded arc
// variables, and per-node rows whose terms are ±1 arc incidences — EQ
// rows (the refine phase's shape), LE rows, and adjacent GE/LE pairs
// sharing one term slice (the balance phase's interval shape). Some arcs
// deliberately dangle (missing endpoints) and some inputs produce
// degenerate or contradictory rows, so the instances cover the native
// MWU path, both exact fast paths and the fallback detector. Returns nil
// when there is not enough entropy.
func decodeGraphLP(data []byte) *Problem {
	if len(data) < 6 {
		return nil
	}
	next := func() int {
		if len(data) == 0 {
			return 1
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	nodes := 1 + next()%4
	narcs := 1 + next()%6
	sense := Minimize
	if next()%2 == 1 {
		sense = Maximize
	}
	gamma := float64(next() % 3) // uniform objective coefficient ≥ 0
	p := NewProblem(sense, narcs)
	rows := make([][]Term, nodes)
	for a := 0; a < narcs; a++ {
		p.SetObjective(a, gamma)
		p.SetUpper(a, float64(next()%5)) // integral, finite
		tl := next() % (nodes + 1)       // nodes = dangling endpoint
		hd := next() % (nodes + 1)
		if tl < nodes {
			rows[tl] = append(rows[tl], Term{Var: a, Coef: 1})
		}
		if hd < nodes && hd != tl {
			rows[hd] = append(rows[hd], Term{Var: a, Coef: -1})
		}
	}
	for g := 0; g < nodes; g++ {
		if len(rows[g]) == 0 {
			continue
		}
		switch next() % 3 {
		case 0: // refine shape: conservation-style equality
			p.AddConstraint(rows[g], EQ, float64(next()%4-1))
		case 1:
			p.AddConstraint(rows[g], LE, float64(next()%4))
		default: // balance shape: GE/LE interval pair on one term slice
			lo := float64(next()%3 - 1)
			p.AddConstraint(rows[g], GE, lo)
			p.AddConstraint(rows[g], LE, lo+float64(next()%3))
		}
	}
	return p
}

// decodeLP deterministically builds a small LP from fuzz bytes, or nil if
// there is not enough entropy.
func decodeLP(data []byte) *Problem {
	if len(data) < 5 {
		return nil
	}
	next := func() int {
		if len(data) == 0 {
			return 3
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	n := 1 + next()%4
	m := next() % 4
	sense := Minimize
	if next()%2 == 1 {
		sense = Maximize
	}
	p := NewProblem(sense, n)
	for v := 0; v < n; v++ {
		p.SetObjective(v, float64(next()%11-5))
		p.SetUpper(v, float64(next()%9)) // always finite: keeps brute cases bounded
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for v := 0; v < n; v++ {
			c := next()%7 - 3
			if c != 0 {
				terms = append(terms, Term{Var: v, Coef: float64(c)})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{Var: 0, Coef: 1}}
		}
		rel := []Rel{LE, GE, EQ}[next()%3]
		p.AddConstraint(terms, rel, float64(next()%13-4))
	}
	return p
}

// FuzzNetworkFlowAgreement feeds randomized graph-shaped LPs — the
// node–arc form the balance and refine phases emit — to a "network"
// session and pins it against the paper's dense tableau: statuses and
// optima agree, Optimal flows are integral and feasible, and every solve
// took the tree path rather than the dual-warm fallback.
func FuzzNetworkFlowAgreement(f *testing.F) {
	f.Add([]byte{3, 6, 0, 1, 1, 0, 1, 3, 1, 2, 0, 2, 1, 4, 2, 0, 1, 0, 2, 3, 1, 0, 2, 1})
	f.Add([]byte{1, 9, 1, 2, 4, 0, 1, 3, 1, 2, 9, 2, 0, 1, 1, 1, 2, 0, 4, 7, 7})
	f.Add([]byte{10, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{0, 2, 1, 3, 0, 0, 0, 1, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFlowLP(data)
		if p == nil {
			return
		}
		ref, err := Dense{}.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("dense: %v", err)
		}
		if ref.Status == IterLimit {
			return
		}
		ses := Session(Network{}).(*networkSession)
		sol, err := ses.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("network: %v", err)
		}
		if ses.fallbacks != 0 || ses.native != 1 {
			t.Fatalf("network: native %d, fallbacks %d; want the tree path", ses.native, ses.fallbacks)
		}
		if sol.Status != ref.Status {
			t.Fatalf("network: status %v, want %v", sol.Status, ref.Status)
		}
		if ref.Status != Optimal {
			return
		}
		if math.Abs(sol.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
			t.Fatalf("network: objective %g, want %g", sol.Objective, ref.Objective)
		}
		for j, x := range sol.X {
			if x != math.Trunc(x) {
				t.Fatalf("network: x[%d] = %g is not integral", j, x)
			}
		}
		if err := CheckFeasible(p, sol.X, 0); err != nil {
			t.Fatalf("network: optimal but infeasible: %v", err)
		}
	})
}

// decodeFlowLP deterministically builds a graph-shaped LP from fuzz
// bytes: 2–12 nodes and ±1 arcs between them (some with an endpoint in
// no row, which is the free endpoint), integral bounds including 0, one
// objective coefficient of either sign under either sense, and per-node
// rows of every shape the detector accepts — EQ rows, adjacent GE/LE
// pairs sharing one term slice, single LE or GE rows — plus empty rows
// with a nonzero right-hand side. Returns nil when there is not enough
// entropy.
func decodeFlowLP(data []byte) *Problem {
	if len(data) < 8 {
		return nil
	}
	next := func() int {
		if len(data) == 0 {
			return 1
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	nodes := 2 + next()%11
	narcs := 1 + next()%(4*nodes)
	sense := Minimize
	if next()%2 == 1 {
		sense = Maximize
	}
	gamma := float64(next()%4 - 1)
	p := NewProblem(sense, narcs)
	rows := make([][]Term, nodes)
	for a := 0; a < narcs; a++ {
		p.SetObjective(a, gamma)
		p.SetUpper(a, float64(next()%6))
		tl := next() % (nodes + 1) // nodes = free endpoint
		hd := next() % (nodes + 1)
		if tl < nodes {
			rows[tl] = append(rows[tl], Term{Var: a, Coef: 1})
		}
		if hd < nodes {
			rows[hd] = append(rows[hd], Term{Var: a, Coef: -1})
		}
	}
	for g := 0; g < nodes; g++ {
		if len(rows[g]) == 0 {
			if next()%4 == 0 {
				p.AddConstraint(nil, EQ, float64(next()%3-1))
			}
			continue
		}
		switch next() % 4 {
		case 0:
			p.AddConstraint(rows[g], EQ, float64(next()%7-3))
		case 1:
			lo := float64(next()%7 - 3)
			p.AddConstraint(rows[g], GE, lo)
			p.AddConstraint(rows[g], LE, lo+float64(next()%4))
		case 2:
			p.AddConstraint(rows[g], LE, float64(next()%7-3))
		default:
			p.AddConstraint(rows[g], GE, float64(next()%7-3))
		}
	}
	return p
}
