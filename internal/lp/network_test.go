package lp

import (
	"context"
	"testing"
)

// TestNetworkWarmSolveAllocs: a network session's arenas make a repeat
// solve allocation-free, on the balance shape (interval nodes) and the
// refine shape (a max circulation).
func TestNetworkWarmSolveAllocs(t *testing.T) {
	ctx := context.Background()
	circ := NewProblem(Maximize, 4)
	for v := 0; v < 4; v++ {
		circ.SetObjective(v, 1)
		circ.SetUpper(v, float64(2+v))
	}
	// Arcs 0: a→b, 1: b→a, 2: b→c, 3: c→a.
	circ.AddConstraint([]Term{{0, 1}, {1, -1}, {3, -1}}, EQ, 0)
	circ.AddConstraint([]Term{{0, -1}, {1, 1}, {2, 1}}, EQ, 0)
	circ.AddConstraint([]Term{{2, -1}, {3, 1}}, EQ, 0)
	for _, tc := range []struct {
		name string
		p    *Problem
	}{{"balance", paperFig5Problem()}, {"circulation", circ}} {
		ses := Session(Network{})
		if _, err := ses.Solve(ctx, tc.p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ses.Solve(ctx, tc.p); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm solve allocates %g allocs/op, want 0", tc.name, allocs)
		}
		if fb := ses.(FallbackSolver).Fallbacks(); fb != 0 {
			t.Errorf("%s: %d fallbacks on a graph-shaped LP", tc.name, fb)
		}
	}
}

// TestNetworkFallsBackOffShape: an LP that is not graph shaped (a
// coefficient other than ±1) goes to the exact fallback, is counted, and
// still agrees with the dense tableau.
func TestNetworkFallsBackOffShape(t *testing.T) {
	p := NewProblem(Minimize, 2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetUpper(0, 5)
	p.SetUpper(1, 5)
	p.AddConstraint([]Term{{0, 2}, {1, 1}}, GE, 4)
	ses := Session(Network{})
	sol, err := ses.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Dense{}.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != ref.Status || sol.Objective != ref.Objective {
		t.Fatalf("network %v %g, dense %v %g", sol.Status, sol.Objective, ref.Status, ref.Objective)
	}
	if fb := ses.(FallbackSolver).Fallbacks(); fb != 1 {
		t.Fatalf("fallbacks %d, want 1", fb)
	}
}

// TestNetworkHugeCapacities: capacities too large for the tie-break
// perturbation to fit int64 (a 24-arc ring at 2⁴⁰) drop it and still
// solve to the exact optimum; capacities beyond the tree solver's range
// go to the fallback.
func TestNetworkHugeCapacities(t *testing.T) {
	for _, tc := range []struct {
		ring      int
		u         float64
		fallbacks int
	}{{3, 1 << 39, 0}, {24, 1 << 40, 0}, {3, 1 << 45, 1}} {
		// Arc a runs from node a to node a+1 around the ring.
		p := NewProblem(Maximize, tc.ring)
		for a := 0; a < tc.ring; a++ {
			p.SetObjective(a, 1)
			p.SetUpper(a, tc.u)
		}
		for g := 0; g < tc.ring; g++ {
			in := (g + tc.ring - 1) % tc.ring
			p.AddConstraint([]Term{{g, 1}, {in, -1}}, EQ, 0)
		}
		ses := Session(Network{})
		sol, err := ses.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(tc.ring) * tc.u; sol.Status != Optimal || sol.Objective != want {
			t.Fatalf("ring=%d u=%g: %v objective %g, want optimal %g",
				tc.ring, tc.u, sol.Status, sol.Objective, want)
		}
		if fb := ses.(FallbackSolver).Fallbacks(); fb != tc.fallbacks {
			t.Fatalf("ring=%d u=%g: fallbacks %d, want %d", tc.ring, tc.u, fb, tc.fallbacks)
		}
	}
}
