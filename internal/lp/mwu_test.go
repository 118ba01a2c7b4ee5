package lp

import (
	"context"
	"math"
	"testing"

	"repro/internal/par"
)

// mwuBalanceLP builds a deterministic balance-shaped instance: minimize
// γ·Σx over integral-bounded arcs between interval nodes, the exact
// shape the balance phase emits (GE/LE pairs sharing one term slice).
// Overloaded nodes must ship at least `surplus` units to underloaded
// ones, so the optimum is positive and the MWU ladder has real work.
func mwuBalanceLP(nodes, arcsPerNode, surplus int) *Problem {
	n := nodes * arcsPerNode
	p := NewProblem(Minimize, n)
	rows := make([][]Term, nodes)
	for a := 0; a < n; a++ {
		p.SetObjective(a, 1)
		p.SetUpper(a, float64(2+a%3))
		tl := a % nodes
		hd := (a*7 + 3) % nodes
		rows[tl] = append(rows[tl], Term{Var: a, Coef: 1})
		if hd != tl {
			rows[hd] = append(rows[hd], Term{Var: a, Coef: -1})
		}
	}
	for g := 0; g < nodes; g++ {
		// Alternate surplus (must export ≥ surplus) and deficit (may
		// absorb up to surplus) nodes, as interval pairs.
		if g%2 == 0 {
			p.AddConstraint(rows[g], GE, float64(surplus))
			p.AddConstraint(rows[g], LE, float64(surplus+2))
		} else {
			p.AddConstraint(rows[g], GE, float64(-surplus-2))
			p.AddConstraint(rows[g], LE, 0)
		}
	}
	return p
}

// mwuChainLP builds `chains` disjoint forwarding chains of `length`
// nodes: the first node of each chain must export k units through a
// path of EQ-0 relay nodes to the last node. The true optimum is
// chains·k·(length-1) hops while the combinatorial seed bound is only
// chains·k, so the bracket cannot close from the repair incumbent alone
// — the MWU ladder has to earn every certificate. With enough chains
// the arc count spans multiple oracle blocks, exercising the sharded
// kernels.
func mwuChainLP(chains, length, k int) *Problem {
	arcs := chains * (length - 1)
	p := NewProblem(Minimize, arcs)
	for a := 0; a < arcs; a++ {
		p.SetObjective(a, 1)
		p.SetUpper(a, float64(k))
	}
	for c := 0; c < chains; c++ {
		base := c * (length - 1)
		for i := 0; i < length; i++ {
			var terms []Term
			if i > 0 {
				terms = append(terms, Term{Var: base + i - 1, Coef: -1})
			}
			if i < length-1 {
				terms = append(terms, Term{Var: base + i, Coef: 1})
			}
			switch i {
			case 0:
				p.AddConstraint(terms, GE, float64(k))
			case length - 1:
				p.AddConstraint(terms, GE, float64(-k))
				p.AddConstraint(terms, LE, 0)
			default:
				p.AddConstraint(terms, EQ, 0)
			}
		}
	}
	return p
}

// TestMWURegistryAndAccuracy: "mwu" resolves via the registry as a
// session solver, WithAccuracy configures the forked session (and only
// the session), and the accuracy default is 0.05.
func TestMWURegistryAndAccuracy(t *testing.T) {
	s, err := Lookup("mwu")
	if err != nil {
		t.Fatal(err)
	}
	tmpl, ok := s.(*MWU)
	if !ok {
		t.Fatalf("registered mwu is %T, want *MWU", s)
	}
	if got := tmpl.TargetAccuracy(); got != 0.05 {
		t.Fatalf("default accuracy %g, want 0.05", got)
	}
	ses, ok := Session(s, WithAccuracy(0.02)).(*MWU)
	if !ok || ses == tmpl {
		t.Fatalf("session not forked: %T", ses)
	}
	if got := ses.TargetAccuracy(); got != 0.02 {
		t.Fatalf("session accuracy %g, want 0.02", got)
	}
	if got := tmpl.TargetAccuracy(); got != 0.05 {
		t.Fatalf("WithAccuracy leaked into the template: %g", got)
	}
	// Non-positive eps leaves the default in place.
	if got := Session(s, WithAccuracy(-1)).(*MWU).TargetAccuracy(); got != 0.05 {
		t.Fatalf("WithAccuracy(-1) changed accuracy to %g", got)
	}
	// Exact solvers ignore the option.
	if got := Session(Dense{}, WithAccuracy(0.02)); got != (Dense{}) {
		t.Fatalf("stateless solver changed by WithAccuracy: %T", got)
	}
}

// TestMWUFastPathsExact: the structurally-exact answers — zero-feasible
// minimization, γ = 0, and contradiction-detected infeasibility — come
// from the MWU path (no fallback) and match the exact solver.
func TestMWUFastPathsExact(t *testing.T) {
	ctx := context.Background()

	// Zero-feasible minimization: all intervals contain 0 → x = 0.
	p := NewProblem(Minimize, 2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetUpper(0, 3)
	p.SetUpper(1, 3)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: -1}}, LE, 2)
	ses := Session(NewMWU()).(*MWU)
	sol, err := ses.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("zero-feasible min: %v obj %g, want Optimal 0", sol.Status, sol.Objective)
	}
	if native, fb := ses.Counts(); native != 1 || fb != 0 {
		t.Fatalf("zero-feasible min took the fallback: native=%d fallbacks=%d", native, fb)
	}

	// γ = 0: any feasible point is optimal with objective 0.
	q := mwuBalanceLP(4, 3, 1)
	for a := 0; a < q.NumVars(); a++ {
		q.SetObjective(a, 0)
	}
	ses = Session(NewMWU()).(*MWU)
	sol, err = ses.Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("γ=0: %v obj %g, want Optimal 0", sol.Status, sol.Objective)
	}
	if err := CheckFeasible(q, sol.X, 1e-9); err != nil {
		t.Fatalf("γ=0 solution infeasible: %v", err)
	}
	if native, fb := ses.Counts(); native != 1 || fb != 0 {
		t.Fatalf("γ=0 took the fallback: native=%d fallbacks=%d", native, fb)
	}

	// Empty-row contradiction (the balance phase's deliberately
	// infeasible stage shape) is detected exactly.
	r := NewProblem(Minimize, 1)
	r.SetObjective(0, 1)
	r.SetUpper(0, 1)
	r.AddConstraint(nil, GE, 2)
	ses = Session(NewMWU()).(*MWU)
	sol, err = ses.Solve(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("contradiction: %v, want Infeasible", sol.Status)
	}
	if native, fb := ses.Counts(); native != 1 || fb != 0 {
		t.Fatalf("contradiction took the fallback: native=%d fallbacks=%d", native, fb)
	}
}

// TestMWUFallbackExact: a non-graph-shaped LP (non-uniform objective)
// must take the exact fallback, count it, and reproduce the dual-warm
// answer exactly.
func TestMWUFallbackExact(t *testing.T) {
	p := NewProblem(Maximize, 3)
	p.SetObjective(0, 2)
	p.SetObjective(1, 1)
	p.SetObjective(2, 3)
	for v := 0; v < 3; v++ {
		p.SetUpper(v, 4)
	}
	p.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 2}, {Var: 2, Coef: 1}}, LE, 6)

	ses := Session(NewMWU()).(*MWU)
	sol, err := ses.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Session(NewDualWarm()).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ref.Status || sol.Objective != ref.Objective {
		t.Fatalf("fallback: %v obj %g, want %v obj %g", sol.Status, sol.Objective, ref.Status, ref.Objective)
	}
	if native, fb := ses.Counts(); native != 0 || fb != 1 {
		t.Fatalf("counts native=%d fallbacks=%d, want 0/1", native, fb)
	}
	if ses.Fallbacks() != 1 {
		t.Fatalf("Fallbacks() = %d, want 1", ses.Fallbacks())
	}
}

// TestMWUNativeQuality: a real balance-shaped instance is answered by
// the native MWU ladder (not the fallback) with a primal-feasible
// solution inside the (1+eps) window of the exact optimum.
func TestMWUNativeQuality(t *testing.T) {
	p := mwuBalanceLP(8, 4, 2)
	ref, err := Session(NewDualWarm()).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != Optimal {
		t.Fatalf("reference solve: %v", ref.Status)
	}
	for _, eps := range []float64{0.05, 0.01} {
		ses := Session(NewMWU(), WithAccuracy(eps)).(*MWU)
		sol, err := ses.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("eps=%g: %v, want Optimal", eps, sol.Status)
		}
		if err := CheckFeasible(p, sol.X, 1e-9); err != nil {
			t.Fatalf("eps=%g: infeasible solution: %v", eps, err)
		}
		if native, fb := ses.Counts(); native != 1 || fb != 0 {
			t.Fatalf("eps=%g: instance fell back (native=%d fallbacks=%d) — "+
				"the native path is untested", eps, native, fb)
		}
		if sol.Objective < ref.Objective-1e-9 || sol.Objective > (1+eps)*ref.Objective+1e-9 {
			t.Fatalf("eps=%g: objective %g outside [%g, %g]",
				eps, sol.Objective, ref.Objective, (1+eps)*ref.Objective)
		}
	}
}

// TestMWUParallelBitIdentical: with the fork threshold dropped to 1, the
// solve chain under every worker count must be bit-identical — status,
// iteration count, objective, every coordinate — to the sequential
// session's. This is the determinism contract of the sharded oracle and
// divergence kernels.
func TestMWUParallelBitIdentical(t *testing.T) {
	problems := []*Problem{
		mwuChainLP(1200, 5, 2), // 4800 arcs: oracle forks across ≥ 2 blocks
		mwuChainLP(4, 6, 2),    // small: only the divergence kernel forks
		mwuBalanceLP(8, 4, 2),  // repair-accepted without iterating: fork-state reset
	}
	tmpl := NewMWU()
	seq := Session(tmpl).(*MWU)
	var want []Solution
	for _, p := range problems {
		sol, err := seq.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		snap := *sol
		snap.X = append([]float64(nil), sol.X...)
		want = append(want, snap)
	}
	for _, procs := range lpParProcs[1:] {
		var grp par.Group
		ses := forcePar(t, tmpl, &grp, procs)
		for i, p := range problems {
			sol, err := ses.Solve(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, "mwu", sol, &want[i])
		}
		if procs > 1 && ses.(*MWU).ParallelSolves() == 0 {
			t.Fatalf("procs=%d: wired mwu session with minWork=1 never forked", procs)
		}
	}
}

// TestMWUWarmSolveAllocs locks the session-arena contract at the lp
// layer: after one warming solve, repeated solves of the same structure
// allocate nothing — on the sequential path, the sharded path, and the
// fallback path.
func TestMWUWarmSolveAllocs(t *testing.T) {
	ctx := context.Background()
	native := mwuBalanceLP(8, 4, 2)
	fallback := NewProblem(Minimize, 3)
	fallback.SetObjective(0, 2)
	fallback.SetObjective(1, 1)
	fallback.SetObjective(2, 3)
	for v := 0; v < 3; v++ {
		fallback.SetUpper(v, 4)
	}
	fallback.AddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, GE, 2)

	var grp par.Group
	cases := []struct {
		name string
		ses  Solver
		p    *Problem
	}{
		{"native/seq", Session(NewMWU()), native},
		{"native/par4", forcePar(t, NewMWU(), &grp, 4), native},
		{"fallback/seq", Session(NewMWU()), fallback},
	}
	for _, tc := range cases {
		if _, err := tc.ses.Solve(ctx, tc.p); err != nil { // warm the arenas
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tc.ses.Solve(ctx, tc.p); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm solve allocates %g allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestMWUInfeasibleMatchesExact: infeasible graph-shaped instances (the
// ε-escalation probe shape) must be reported Infeasible by the MWU path
// itself — the engine's stage escalation depends on exact infeasibility,
// not an approximate guess.
func TestMWUInfeasibleMatchesExact(t *testing.T) {
	// One node must export ≥ 5 units but its only arc caps at 2.
	p := NewProblem(Minimize, 1)
	p.SetObjective(0, 1)
	p.SetUpper(0, 2)
	p.AddConstraint([]Term{{Var: 0, Coef: 1}}, GE, 5)
	ses := Session(NewMWU()).(*MWU)
	sol, err := ses.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Session(NewDualWarm()).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != Infeasible {
		t.Fatalf("reference: %v, want Infeasible", ref.Status)
	}
	if sol.Status != Infeasible {
		t.Fatalf("mwu: %v, want Infeasible", sol.Status)
	}
	if math.IsNaN(float64(sol.Iterations)) || sol.Iterations < 0 {
		t.Fatalf("mwu: bad iteration count %d", sol.Iterations)
	}
}
