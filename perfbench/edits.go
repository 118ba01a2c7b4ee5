package main

import (
	"fmt"
	"math"
	"math/rand"

	igp "repro"
	"repro/internal/geom"
	"repro/internal/mesh"
)

// An edit is one recorded graph mutation. Workload generation records
// the edits of every step once, outside any timed region; each episode
// replays them on a fresh copy of the base graph, so every episode sees
// the same graph sequence.
type edit struct {
	kind editKind
	u, v igp.Vertex
	w    float64
}

type editKind uint8

const (
	addVertex editKind = iota
	removeEdge
	addEdge
	setWeight
)

// apply replays edits on g.
func apply(g *igp.Graph, edits []edit) error {
	for _, e := range edits {
		switch e.kind {
		case addVertex:
			g.AddVertex(e.w)
		case removeEdge:
			if err := g.RemoveEdge(e.u, e.v); err != nil {
				return err
			}
		case addEdge:
			if err := g.AddEdge(e.u, e.v, e.w); err != nil {
				return err
			}
		case setWeight:
			g.SetVertexWeight(e.u, e.w)
		}
	}
	return nil
}

// diff returns the edits that turn cur into next, where next extends
// cur's vertex ids: appended vertices, then removed edges, then added
// edges, each in vertex order.
func diff(cur, next *igp.Graph) []edit {
	var out []edit
	for v := cur.Order(); v < next.Order(); v++ {
		out = append(out, edit{kind: addVertex, w: next.VertexWeight(igp.Vertex(v))})
	}
	for _, v := range cur.Vertices() {
		for _, u := range cur.Neighbors(v) {
			if v < u && !next.HasEdge(v, u) {
				out = append(out, edit{kind: removeEdge, u: v, v: u})
			}
		}
	}
	for _, v := range next.Vertices() {
		ws := next.EdgeWeights(v)
		for i, u := range next.Neighbors(v) {
			if v < u && (int(u) >= cur.Order() || int(v) >= cur.Order() || !cur.HasEdge(v, u)) {
				out = append(out, edit{kind: addEdge, u: v, v: u, w: ws[i]})
			}
		}
	}
	return out
}

// meshRefinements records steps localized refinements of the generator's
// mesh, count vertices each (RefineDisk in a hotspot drifting around a
// seeded anchor, then UpdateGraph on a copy of the graph), as edits
// against base.
func meshRefinements(gen *mesh.Generator, base *igp.Graph, steps, count int, rng *rand.Rand) ([][]edit, error) {
	anchor := geom.Point{X: 0.3 + 0.4*rng.Float64(), Y: 0.3 + 0.4*rng.Float64()}
	phase := 2 * math.Pi * rng.Float64()
	cur := base.Clone()
	out := make([][]edit, 0, steps)
	for i := 0; i < steps; i++ {
		a := phase + 0.35*float64(i)
		center := geom.Point{X: anchor.X + 0.12*math.Cos(a), Y: anchor.Y + 0.12*math.Sin(a)}
		if _, err := gen.RefineDisk(center, 0.05, count); err != nil {
			return nil, fmt.Errorf("mesh refinement %d: %w", i, err)
		}
		next := cur.Clone()
		if err := gen.Mesh().UpdateGraph(next); err != nil {
			return nil, fmt.Errorf("mesh refinement %d: %w", i, err)
		}
		out = append(out, diff(cur, next))
		cur = next
	}
	return out, nil
}

// editBursts records steps bursts of k small edits each on a scratch
// copy of base, in the shape of the repository's warm-call benchmark:
// every third edit sets a vertex weight in [1,2), the others remove an
// edge and add it back at its weight. No burst changes the vertex set.
func editBursts(base *igp.Graph, steps, k int, rng *rand.Rand) ([][]edit, error) {
	g := base.Clone()
	n := g.Order()
	out := make([][]edit, 0, steps)
	for s := 0; s < steps; s++ {
		var burst []edit
		for i := 0; i < k; i++ {
			v := igp.Vertex(rng.Intn(n))
			if !g.Alive(v) {
				continue
			}
			var ops []edit
			if i%3 == 0 {
				ops = []edit{{kind: setWeight, u: v, w: 1 + rng.Float64()}}
			} else if g.Degree(v) > 0 {
				us := g.Neighbors(v)
				u := us[rng.Intn(len(us))]
				w, _ := g.EdgeWeight(v, u)
				ops = []edit{{kind: removeEdge, u: v, v: u}, {kind: addEdge, u: v, v: u, w: w}}
			}
			// Apply as recorded so later picks see the adjacency order
			// the live graph will have.
			if err := apply(g, ops); err != nil {
				return nil, fmt.Errorf("edit burst %d: %w", s, err)
			}
			burst = append(burst, ops...)
		}
		out = append(out, burst)
	}
	return out, nil
}
