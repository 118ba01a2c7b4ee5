package coarsen

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/partition"
)

// cwPairCmp orders aggregation pairs by coarse endpoint, then weight.
func cwPairCmp(a, b cwPair) int {
	if a.cw != b.cw {
		return int(a.cw) - int(b.cw)
	}
	switch {
	case a.w < b.w:
		return -1
	case a.w > b.w:
		return 1
	}
	return 0
}

// oracleGroupRun is the comparator-sort aggregation the scatter
// accumulator replaced: gather the arcs of v's group members, sort them
// by (coarse endpoint, weight) and collapse runs into per-endpoint sums.
func oracleGroupRun(fg *graph.Graph, lv *level, v graph.Vertex) []cwPair {
	cv := lv.f2c[v]
	var arcs []cwPair
	members := []graph.Vertex{v}
	if u := lv.match[v]; u != v {
		members = append(members, u)
	}
	for _, mb := range members {
		ews := fg.EdgeWeights(mb)
		for j, nb := range fg.Neighbors(mb) {
			if cw := lv.f2c[nb]; cw != cv && cw >= 0 {
				arcs = append(arcs, cwPair{cw, ews[j]})
			}
		}
	}
	slices.SortFunc(arcs, cwPairCmp)
	var run []cwPair
	for j := 0; j < len(arcs); {
		k, sum := j+1, arcs[j].w
		for ; k < len(arcs) && arcs[k].cw == arcs[j].cw; k++ {
			sum += arcs[k].w
		}
		run = append(run, cwPair{arcs[j].cw, sum})
		j = k
	}
	return run
}

// requireOracleAggregation checks every coarse vertex of every level
// against the oracle: the same neighbor set, and weights equal exactly
// (exact) or within 1e-12 relative difference.
func requireOracleAggregation(t *testing.T, h *Hierarchy, exact bool) {
	t.Helper()
	for l, lv := range h.levels {
		fg := h.levelGraph(l)
		groups := 0
		for v := 0; v < fg.Order(); v++ {
			vv := graph.Vertex(v)
			if !fg.Alive(vv) || lv.match[v] < vv {
				continue // dead, or not the group's smallest member
			}
			groups++
			want := oracleGroupRun(fg, lv, vv)
			cv := lv.f2c[v]
			ws := lv.gc.EdgeWeights(cv)
			got := make([]cwPair, 0, len(ws))
			for i, cw := range lv.gc.Neighbors(cv) {
				got = append(got, cwPair{cw, ws[i]})
			}
			slices.SortFunc(got, cwPairCmp)
			if len(got) != len(want) {
				t.Fatalf("level %d coarse %d: %d neighbors, oracle %d", l, cv, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.cw != w.cw {
					t.Fatalf("level %d coarse %d: neighbor %d is %d, oracle %d", l, cv, i, g.cw, w.cw)
				}
				if exact && g.w != w.w || math.Abs(g.w-w.w) > 1e-12*math.Abs(w.w) {
					t.Fatalf("level %d edge {%d,%d}: weight %v, oracle %v", l, cv, w.cw, g.w, w.w)
				}
			}
		}
		if groups != lv.gc.NumVertices() {
			t.Fatalf("level %d: %d groups for %d coarse vertices", l, groups, lv.gc.NumVertices())
		}
	}
}

// floatWeighted copies a power-law graph with random float edge weights.
func floatWeighted(n int, rng *rand.Rand) *graph.Graph {
	pl, err := graph.PowerLaw(n, 3, rng)
	if err != nil {
		panic(err)
	}
	g := graph.NewWithVertices(n)
	for v := 0; v < n; v++ {
		for _, u := range pl.Neighbors(graph.Vertex(v)) {
			if graph.Vertex(v) < u {
				g.AddEdgeUnchecked(graph.Vertex(v), u, 0.1+rng.Float64())
			}
		}
	}
	return g
}

func TestConnectGroupsMatchesOracle(t *testing.T) {
	cases := []struct {
		name  string
		exact bool
		mk    func(rng *rand.Rand) *graph.Graph
	}{
		{"grid", true, func(*rand.Rand) *graph.Graph { return graph.Grid(40, 50) }},
		{"powerlaw", true, func(rng *rand.Rand) *graph.Graph {
			g, err := graph.PowerLaw(2000, 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"float", false, func(rng *rand.Rand) *graph.Graph { return floatWeighted(2000, rng) }},
	}
	ctx := context.Background()
	for _, c := range cases {
		for _, procs := range []int{1, 4} {
			rng := rand.New(rand.NewSource(5))
			g := c.mk(rng)
			a := partition.New(g.Order(), 4)
			for v := range a.Part {
				a.Part[v] = int32(v * 4 / g.Order())
			}
			h := NewHierarchy(g, HierarchyOptions{CoarsenTo: 16, Procs: procs})
			if _, err := h.Update(ctx, a); err != nil {
				t.Fatal(err)
			}
			requireOracleAggregation(t, h, c.exact)
			repairs := 0
			for round := 0; round < 5; round++ {
				// Growth, edge removal and partition drift: touched and
				// impure groups dissolve and re-form.
				for k := 0; k < 12; k++ {
					u := graph.Vertex(rng.Intn(g.Order()))
					if !g.Alive(u) {
						continue
					}
					switch k % 3 {
					case 0:
						v := g.AddVertex(1)
						g.AddEdgeUnchecked(v, u, 1+float64(rng.Intn(3)))
						a.Part = append(a.Part, a.Part[u])
					case 1:
						if g.Degree(u) > 1 {
							_ = g.RemoveEdge(u, g.Neighbors(u)[0])
						}
					default:
						a.Part[u] = int32((int(a.Part[u]) + 1) % a.P)
					}
				}
				repaired, err := h.Update(ctx, a)
				if err != nil {
					t.Fatal(err)
				}
				if repaired {
					repairs++
				}
				requireOracleAggregation(t, h, c.exact)
				if err := h.Check(a); err != nil {
					t.Fatalf("%s procs=%d round %d: %v", c.name, procs, round, err)
				}
				if _, _, err := h.SolveCoarsest(ctx, lp.Bounded{}); err != nil {
					t.Fatal(err)
				}
				if _, err := h.Uncoarsen(ctx, a); err != nil {
					t.Fatal(err)
				}
			}
			if repairs == 0 {
				t.Fatalf("%s procs=%d: no warm Update repaired in place", c.name, procs)
			}
		}
	}
}
