package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// weightedArc is one directed adjacency entry, for multiset comparison.
type weightedArc struct {
	u, v Vertex
	w    float64
}

// arcMultiset returns every adjacency entry of g in sorted order.
func arcMultiset(g *Graph) []weightedArc {
	var out []weightedArc
	for v := 0; v < g.Order(); v++ {
		ws := g.EdgeWeights(Vertex(v))
		for i, u := range g.Neighbors(Vertex(v)) {
			out = append(out, weightedArc{Vertex(v), u, ws[i]})
		}
	}
	slices.SortFunc(out, func(a, b weightedArc) int {
		if a.u != b.u {
			return int(a.u) - int(b.u)
		}
		if a.v != b.v {
			return int(a.v) - int(b.v)
		}
		switch {
		case a.w < b.w:
			return -1
		case a.w > b.w:
			return 1
		}
		return 0
	})
	return out
}

// touchedSet returns the distinct vertices g journaled after epoch.
func touchedSet(t *testing.T, g *Graph, epoch uint64) []Vertex {
	t.Helper()
	touched, exact := g.TouchedSince(epoch, nil)
	if !exact {
		t.Fatal("journal inexact")
	}
	slices.Sort(touched)
	return slices.Compact(touched)
}

// requireRemoveVerticesMatches removes vs from two clones of g, one
// vertex at a time with RemoveVertex and in one RemoveVertices batch, and
// requires the same live set, weighted edge multiset, edge count and
// journaled vertex set.
func requireRemoveVerticesMatches(t *testing.T, g *Graph, vs []Vertex) {
	t.Helper()
	seq, bat := g.Clone(), g.Clone()
	e0 := seq.Epoch()
	for _, v := range vs {
		if err := seq.RemoveVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := bat.RemoveVertices(vs); err != nil {
		t.Fatal(err)
	}
	if err := bat.Validate(); err != nil {
		t.Fatalf("batched removal broke an invariant: %v", err)
	}
	if seq.NumEdges() != bat.NumEdges() || seq.NumVertices() != bat.NumVertices() {
		t.Fatalf("sizes differ: sequential %d vertices/%d edges, batched %d/%d",
			seq.NumVertices(), seq.NumEdges(), bat.NumVertices(), bat.NumEdges())
	}
	for v := 0; v < g.Order(); v++ {
		if seq.Alive(Vertex(v)) != bat.Alive(Vertex(v)) {
			t.Fatalf("vertex %d liveness differs", v)
		}
	}
	if !slices.Equal(arcMultiset(seq), arcMultiset(bat)) {
		t.Fatal("weighted edge multisets differ")
	}
	if !slices.Equal(touchedSet(t, seq, e0), touchedSet(t, bat, e0)) {
		t.Fatal("journaled vertex sets differ")
	}
}

// removalSet picks k distinct live vertices of g, biased toward a
// high-degree vertex and its neighbors so removed vertices share rows
// and are adjacent to each other.
func removalSet(g *Graph, k int, rng *rand.Rand) []Vertex {
	live := g.Vertices()
	if len(live) == 0 {
		return nil
	}
	hub := live[0]
	for _, v := range live {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	pool := append([]Vertex{hub}, g.Neighbors(hub)...)
	for _, v := range rng.Perm(len(live)) {
		pool = append(pool, live[v])
	}
	seen := map[Vertex]bool{}
	var out []Vertex
	for _, v := range pool {
		if len(out) == k {
			break
		}
		if !seen[v] && rng.Intn(3) > 0 {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func TestRemoveVerticesMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomMutatedGraph(seed, 80)
		requireRemoveVerticesMatches(t, g, removalSet(g, 1+rng.Intn(8), rng))
		pl, err := PowerLaw(300, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		requireRemoveVerticesMatches(t, pl, removalSet(pl, 40, rng))
	}
	requireRemoveVerticesMatches(t, Grid(4, 4), nil)
}

func TestRemoveVerticesRejectsInvalid(t *testing.T) {
	g := Grid(3, 3)
	_ = g.RemoveVertex(4)
	before := arcMultiset(g)
	epoch := g.Epoch()
	for _, vs := range [][]Vertex{{0, 1, 0}, {2, 4}, {3, 99}, {-1}} {
		if err := g.RemoveVertices(vs); err == nil {
			t.Fatalf("RemoveVertices(%v) accepted an invalid set", vs)
		}
		if g.Epoch() != epoch || !slices.Equal(arcMultiset(g), before) {
			t.Fatalf("rejected RemoveVertices(%v) changed the graph", vs)
		}
	}
	// The rejected calls left no marks behind: a valid batch still
	// matches the sequential removals.
	requireRemoveVerticesMatches(t, g, []Vertex{0, 1, 3})
}

// FuzzRemoveVertices checks RemoveVertices against sequential
// RemoveVertex on random mutated graphs and removal sets.
func FuzzRemoveVertices(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(7), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		g := randomMutatedGraph(seed, 120)
		requireRemoveVerticesMatches(t, g, removalSet(g, int(k%64), rand.New(rand.NewSource(seed))))
	})
}
