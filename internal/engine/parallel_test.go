package engine

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/refine"
)

// requireSameLayer asserts two layerings agree on every exported field.
func requireSameLayer(t testing.TB, got, want *layering.Result, p int) {
	t.Helper()
	if !reflect.DeepEqual(got.Label, want.Label) {
		t.Fatal("Label diverges")
	}
	if !reflect.DeepEqual(got.Level, want.Level) {
		t.Fatal("Level diverges")
	}
	if !reflect.DeepEqual(got.Delta, want.Delta) {
		t.Fatal("Delta diverges")
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
			if len(gp) != len(wp) {
				t.Fatalf("pool(%d,%d) length %d, want %d", i, j, len(gp), len(wp))
			}
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("pool(%d,%d)[%d] = %d, want %d", i, j, k, gp[k], wp[k])
				}
			}
		}
	}
}

// requireSameGains asserts two candidate sets agree on every exported
// field.
func requireSameGains(t testing.TB, got, want *refine.Candidates, p int) {
	t.Helper()
	if !reflect.DeepEqual(got.B, want.B) {
		t.Fatal("B diverges")
	}
	if !reflect.DeepEqual(got.Gain, want.Gain) {
		t.Fatal("Gain diverges")
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			gp, wp := got.Pool(int32(i), int32(j)), want.Pool(int32(i), int32(j))
			if len(gp) != len(wp) {
				t.Fatalf("pool(%d,%d) length diverges", i, j)
			}
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("pool(%d,%d)[%d] diverges", i, j, k)
				}
			}
		}
	}
}

// requireSameBoundary asserts a parallel engine's boundary equals the
// brute-force set (the list itself is documented unordered).
func requireSameBoundary(t testing.TB, got []graph.Vertex, want map[graph.Vertex]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("boundary has %d vertices, want %d", len(got), len(want))
	}
	seen := map[graph.Vertex]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate boundary vertex %d", v)
		}
		seen[v] = true
		if !want[v] {
			t.Fatalf("vertex %d wrongly in boundary", v)
		}
	}
}

// TestParallelEngineKernelEquivalence drives sequential and parallel
// engines through the same random edit sequence and requires
// bit-identical boundary sets, layerings and gain candidates at every
// step, for several worker counts.
func TestParallelEngineKernelEquivalence(t *testing.T) {
	for _, procs := range []int{2, 3, 7, 16} {
		gSeq, aSeq := editableGraph(t, 350, 7, 61)
		gPar := gSeq.Clone()
		aPar := aSeq.Clone()
		eSeq := New(gSeq, Options{Parallelism: 1})
		ePar := New(gPar, Options{Parallelism: procs})
		rngSeq := rand.New(rand.NewSource(71))
		rngPar := rand.New(rand.NewSource(71))
		for iter := 0; iter < 40; iter++ {
			for k := 0; k < 1+rngSeq.Intn(4); k++ {
				randomEdit(gSeq, aSeq, rngSeq)
			}
			for k := 0; k < 1+rngPar.Intn(4); k++ {
				randomEdit(gPar, aPar, rngPar)
			}
			requireSameBoundary(t, ePar.Boundary(aPar), bruteBoundary(gPar, aPar))
			laySeq, err := eSeq.Layer(context.Background(), aSeq)
			if err != nil {
				t.Fatal(err)
			}
			layPar, err := ePar.Layer(context.Background(), aPar)
			if err != nil {
				t.Fatal(err)
			}
			requireSameLayer(t, layPar, laySeq, aSeq.P)
			gSeqC, err := eSeq.Gains(aSeq, iter%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			gParC, err := ePar.Gains(aPar, iter%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGains(t, gParC, gSeqC, aSeq.P)
		}
	}
}

// TestParallelRepartitionMatchesSequential is the end-to-end criterion:
// full IGPR repartitioning through parallel engines must produce the
// exact assignments, cuts and movement stats of the sequential engine
// across an evolving graph.
func TestParallelRepartitionMatchesSequential(t *testing.T) {
	gBase, aBase := editableGraph(t, 300, 6, 83)
	for _, procs := range []int{2, 7} {
		gPar := gBase.Clone()
		aPar := aBase.Clone()
		ePar := New(gPar, Options{Refine: true, Parallelism: procs})
		rngSeq := rand.New(rand.NewSource(89))
		rngPar := rand.New(rand.NewSource(89))
		gS := gBase.Clone() // private sequential copy per procs value
		aS := aBase.Clone()
		eS := New(gS, Options{Refine: true, Parallelism: 1})
		for step := 0; step < 5; step++ {
			for k := 0; k < 8; k++ {
				randomEdit(gS, aS, rngSeq)
				randomEdit(gPar, aPar, rngPar)
			}
			stS, errS := eS.Repartition(context.Background(), aS)
			stP, errP := ePar.Repartition(context.Background(), aPar)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("procs=%d step %d: error mismatch: %v vs %v", procs, step, errS, errP)
			}
			if errS != nil {
				t.Skipf("procs=%d step %d: infeasible on this sequence: %v", procs, step, errS)
			}
			if !reflect.DeepEqual(aS.Part, aPar.Part) {
				t.Fatalf("procs=%d step %d: parallel assignment diverges", procs, step)
			}
			if stS.BalanceMoved != stP.BalanceMoved || len(stS.Stages) != len(stP.Stages) {
				t.Fatalf("procs=%d step %d: stats diverge", procs, step)
			}
			if stP.Parallelism != procs {
				t.Fatalf("procs=%d: Stats.Parallelism = %d", procs, stP.Parallelism)
			}
		}
	}
}

// TestParallelWorkerBusyReported: a parallel Repartition must roll up
// per-worker busy time for exactly the configured worker count.
func TestParallelWorkerBusyReported(t *testing.T) {
	g, a := editableGraph(t, 400, 8, 97)
	e := New(g, Options{Parallelism: 4})
	// Unbalance so at least one balance stage (and its layering) runs.
	moved := 0
	for v := range a.Part {
		if a.Part[v] == 0 && moved < 25 {
			a.Part[v] = 1
			moved++
		}
	}
	st, err := e.Repartition(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Parallelism != 4 {
		t.Fatalf("Parallelism = %d, want 4", st.Parallelism)
	}
	if len(st.WorkerBusy) != 4 {
		t.Fatalf("WorkerBusy has %d slots, want 4", len(st.WorkerBusy))
	}
	if st.WorkerBusy[0] <= 0 {
		t.Fatal("worker 0 reported no busy time")
	}
	// Sequential engines report no per-worker breakdown.
	g2, a2 := editableGraph(t, 100, 4, 98)
	e2 := New(g2, Options{Parallelism: 1})
	st2, err := e2.Repartition(context.Background(), a2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Parallelism != 1 || len(st2.WorkerBusy) != 0 {
		t.Fatalf("sequential stats: Parallelism=%d WorkerBusy=%v", st2.Parallelism, st2.WorkerBusy)
	}
}

// TestSteadyStateParallelLayerAllocs locks the parallel layering kernel
// at zero steady-state allocation: per-worker scratch lives in the
// engine's arenas and goroutines are spawned through pre-built thunks.
func TestSteadyStateParallelLayerAllocs(t *testing.T) {
	g, a := editableGraph(t, 500, 8, 5)
	e := New(g, Options{Parallelism: 4})
	if _, err := e.Layer(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Layer(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state parallel Layer allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSteadyStateParallelGainsAllocs: the parallel gain scan must also
// stay 0 allocs/op through a warm engine.
func TestSteadyStateParallelGainsAllocs(t *testing.T) {
	g, a := editableGraph(t, 500, 8, 5)
	e := New(g, Options{Parallelism: 4})
	if _, err := e.Gains(a, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Gains(a, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state parallel Gains allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSortedBoundaryRegimes: the sorted cut-report seed list must equal
// a plain sort of the boundary set in both of sortedBoundary's regimes —
// the flag scan (most vertices on the boundary) and the list sort (a
// thin boundary) — at every worker count, and keep doing so across calls
// and edits.
func TestSortedBoundaryRegimes(t *testing.T) {
	regimes := []struct {
		name string
		scan bool
		mk   func() (*graph.Graph, *partition.Assignment)
	}{
		{"scan", true, func() (*graph.Graph, *partition.Assignment) {
			g, a := editableGraph(t, 3000, 8, 11)
			rng := rand.New(rand.NewSource(3))
			for v := range a.Part {
				a.Part[v] = int32(rng.Intn(a.P))
			}
			return g, a
		}},
		{"sort", false, func() (*graph.Graph, *partition.Assignment) {
			g := graph.Grid(100, 200)
			a := partition.New(g.Order(), 2)
			for v := range a.Part {
				a.Part[v] = int32(v % 200 / 100)
			}
			return g, a
		}},
	}
	for _, r := range regimes {
		for _, procs := range []int{1, 2, 4} {
			g, a := r.mk()
			e := New(g, Options{Parallelism: procs})
			rng := rand.New(rand.NewSource(int64(procs)))
			for call := 0; call < 3; call++ {
				want := append([]graph.Vertex(nil), e.Boundary(a)...)
				slices.Sort(want)
				if got := par.ScanBeatsSort(len(want), g.Order()); got != r.scan {
					t.Fatalf("%s procs=%d: boundary %d of %d takes scan=%v", r.name, procs, len(want), g.Order(), got)
				}
				if got := e.sortedBoundary(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s procs=%d call %d: sorted boundary diverges from slices.Sort", r.name, procs, call)
				}
				if cut, ref := e.cutWeight(a), partition.Cut(g, a).TotalWeight; cut != ref {
					t.Fatalf("%s procs=%d call %d: cut %v != partition.Cut %v", r.name, procs, call, cut, ref)
				}
				// Move a few vertices; the boundary stays in its regime.
				for k := 0; k < 4; k++ {
					v := graph.Vertex(rng.Intn(g.Order()))
					a.Part[v] = int32(rng.Intn(a.P))
				}
			}
		}
	}
}

// TestParallelOrphanClusteringEquivalence: a large disconnected cluster
// of new vertices floods level-synchronously over the worker group; the
// resulting assignment and fallback count must match the sequential
// engine exactly.
func TestParallelOrphanClusteringEquivalence(t *testing.T) {
	build := func(procs int) (*partition.Assignment, int, int) {
		g, a := editableGraph(t, 400, 6, 13)
		e := New(g, Options{Parallelism: procs})
		e.sync(a) // warm the journal so the blob arrives as a delta
		// A hub-and-spoke blob, disconnected from the old region: the
		// level-1 frontier is all 199 spokes, far above parAsgMin.
		blob := make([]graph.Vertex, 200)
		for i := range blob {
			blob[i] = g.AddVertex(1)
		}
		a.Grow(g.Order())
		for i := 1; i < len(blob); i++ {
			if err := g.AddEdge(blob[0], blob[i], 1); err != nil {
				t.Fatal(err)
			}
			if j := (i * 7) % len(blob); j != i {
				g.AddEdgeIfAbsent(blob[i], blob[j], 1)
			}
		}
		assigned, fallbacks, err := e.assign(a)
		if err != nil {
			t.Fatal(err)
		}
		return a, assigned, fallbacks
	}
	aSeq, nSeq, fSeq := build(1)
	if fSeq != 1 {
		t.Fatalf("sequential run placed %d fallback clusters, want 1", fSeq)
	}
	for _, procs := range []int{2, 3, 7} {
		a, n, f := build(procs)
		if n != nSeq || f != fSeq {
			t.Fatalf("procs=%d: assigned/fallbacks %d/%d, want %d/%d", procs, n, f, nSeq, fSeq)
		}
		if !reflect.DeepEqual(a.Part, aSeq.Part) {
			t.Fatalf("procs=%d: orphan clustering assignment diverges from sequential", procs)
		}
	}
}

// TestParallelismResolution: 0 resolves to GOMAXPROCS, negatives clamp
// to the sequential path.
func TestParallelismResolution(t *testing.T) {
	if got := (Options{}).procs(); got < 1 {
		t.Fatalf("default procs = %d", got)
	}
	if got := (Options{Parallelism: -3}).procs(); got != 1 {
		t.Fatalf("negative parallelism resolved to %d, want 1", got)
	}
	if got := (Options{Parallelism: 7}).procs(); got != 7 {
		t.Fatalf("explicit parallelism resolved to %d, want 7", got)
	}
}
