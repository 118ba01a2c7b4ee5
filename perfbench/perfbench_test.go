package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	igp "repro"
	"repro/internal/graph"
	"repro/internal/serve"
)

// The committed BENCHMARK.json is the rendering of the registry.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with --write-spec BENCHMARK.json")
	}
}

// firstCalls runs the first episode of a library workload, cut to
// steps calls, at the given worker count.
func firstCalls(t *testing.T, spec *libSpec, seed int64, procs, steps int, rec *recorder) (*libRun, []callRec) {
	t.Helper()
	r, err := newLibRun(spec, seed, procs)
	if err != nil {
		t.Fatal(err)
	}
	r.in.steps = r.in.steps[:steps]
	calls, _, err := r.segment(time.Now(), rec, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d failed checks: %v", spec.name, r.failed, r.notes)
	}
	return r, calls
}

func sameCalls(t *testing.T, what string, a, b []callRec) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d calls", what, len(a), len(b))
	}
	for i := range a {
		if a[i].hash != b[i].hash || a[i].cutFrac != b[i].cutFrac || a[i].moved != b[i].moved {
			t.Fatalf("%s: call %d differs: cut %g vs %g, moved %d vs %d", what, i,
				a[i].cutFrac, b[i].cutFrac, a[i].moved, b[i].moved)
		}
	}
	if qa, qb := qualityOf(a), qualityOf(b); qa != qb {
		t.Fatalf("%s: quality %+v vs %+v", what, qa, qb)
	}
}

// cut_frac, moved_per_call and coarsen.levels repeat exactly across
// runs of one seed.
func TestLibraryDeterministic(t *testing.T) {
	for _, spec := range []*libSpec{meshAdapt, vcycleGrid, vcyclePowerLaw} {
		t.Run(spec.name, func(t *testing.T) {
			if testing.Short() && spec != vcycleGrid {
				t.Skip("short")
			}
			_, a := firstCalls(t, spec, 7, spec.procs, 6, nil)
			_, b := firstCalls(t, spec, 7, spec.procs, 6, nil)
			sameCalls(t, "repeat", a, b)
		})
	}
}

// The V-cycle workloads give bit-identical results at procs=1 and at
// the machine's CPU count (and at 3 workers, which shards unevenly).
func TestVCycleProcsEquivalence(t *testing.T) {
	for _, spec := range []*libSpec{vcycleGrid, vcyclePowerLaw} {
		t.Run(spec.name, func(t *testing.T) {
			if testing.Short() && spec != vcycleGrid {
				t.Skip("short")
			}
			_, seq := firstCalls(t, spec, 3, 1, 6, nil)
			for _, procs := range []int{runtime.NumCPU(), 3} {
				_, par := firstCalls(t, spec, 3, procs, 6, nil)
				sameCalls(t, "procs", seq, par)
			}
		})
	}
}

// The traced run (observer plus forwarding solver) produces the same
// assignments and cuts as the untraced run, and its spans nest: every
// LP solve sits inside a phase, every phase inside a call.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, spec := range []*libSpec{meshAdapt, vcycleGrid} {
		t.Run(spec.name, func(t *testing.T) {
			if testing.Short() && spec != vcycleGrid {
				t.Skip("short")
			}
			_, plain := firstCalls(t, spec, 5, spec.procs, 4, nil)
			rec := newRecorder()
			_, traced := firstCalls(t, spec, 5, spec.procs, 4, rec)
			sameCalls(t, "traced", plain, traced)
			calls := 0
			for _, s := range rec.spans {
				if s.End < s.Start {
					t.Fatalf("span %+v is not closed", s)
				}
				switch {
				case s.Name == "call":
					calls++
				case s.Name == "lp.solve" && s.Parent >= 0:
					if p := rec.spans[s.Parent].Name; p[:6] != "phase." {
						t.Fatalf("LP solve under %q", p)
					}
				}
			}
			if calls != len(traced) {
				t.Fatalf("%d call spans for %d calls", calls, len(traced))
			}
			for _, c := range traced {
				if c.spans["lp.solve"] == 0 {
					t.Fatal("traced call recorded no LP solve")
				}
			}
		})
	}
}

// Replaying a recorded diff turns one graph into the other.
func TestDiffReplay(t *testing.T) {
	cur := graph.Grid(6, 6)
	next := cur.Clone()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		u := next.AddVertex(1)
		_ = next.AddEdge(u, igp.Vertex(rng.Intn(36)), 2)
	}
	_ = next.RemoveEdge(0, 1)
	g := cur.Clone()
	if err := apply(g, diff(cur, next)); err != nil {
		t.Fatal(err)
	}
	if g.Order() != next.Order() || g.NumEdges() != next.NumEdges() {
		t.Fatalf("replay: %d/%d vertices/edges, want %d/%d", g.Order(), g.NumEdges(), next.Order(), next.NumEdges())
	}
	for _, v := range next.Vertices() {
		for _, u := range next.Neighbors(v) {
			if !g.HasEdge(v, u) {
				t.Fatalf("replay lost edge {%d,%d}", v, u)
			}
		}
	}
}

func TestValidParts(t *testing.T) {
	good := make([]int32, 32)
	for i := range good {
		good[i] = int32(i % serveP)
	}
	if err := validParts(good, serveP, 32); err != nil {
		t.Fatal(err)
	}
	for name, parts := range map[string][]int32{
		"short":      good[:16],
		"unassigned": append(append([]int32(nil), good[:31]...), -1),
		"imbalanced": append(append([]int32(nil), good[:31]...), 0),
	} {
		if validParts(parts, serveP, 32) == nil {
			t.Errorf("%s assignment accepted", name)
		}
	}
}

// A short serve-mixed phase: no failures, every read valid.
func TestServeSmoke(t *testing.T) {
	inputs, err := serveInputs()
	if err != nil {
		t.Fatal(err)
	}
	env, err := startServe(inputs, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	jobs := env.schedule(50, 400*time.Millisecond, rand.New(rand.NewSource(2)))
	st := env.check(jobs, env.drive(jobs))
	if st.failed != 0 {
		t.Fatalf("%d failed requests: %v", st.failed, st.notes)
	}
	if len(st.editMS) == 0 || len(st.readMS) == 0 || len(st.batches) == 0 {
		t.Fatalf("phase served %d edits, %d reads, %d batches", len(st.editMS), len(st.readMS), len(st.batches))
	}
}

// A batch's cut fraction counts every edit coalesced into it, also one
// answered after a later batch in schedule order.
func TestCheckBatchEdgeWeight(t *testing.T) {
	e := &serveEnv{sess: []*sessionState{{n0: 4, w0: 10}}}
	reply := func(version uint64, cut float64) []byte {
		b, err := json.Marshal(serve.Response{Version: version, Metrics: serve.RequestMetrics{CutAfter: cut}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	jobs := []job{{edit: true, w: 1}, {edit: true, w: 4}, {edit: true, w: 2}}
	out := []outcome{
		{status: 200, body: reply(1, 3.3)},
		{status: 200, body: reply(2, 4.5)},
		{status: 200, body: reply(1, 3.3)},
	}
	p := e.check(jobs, out)
	if p.failed != 0 || len(p.batches) != 2 {
		t.Fatalf("%d failed, %d batches: %v", p.failed, len(p.batches), p.notes)
	}
	if want := []float64{3.3 / 13, 4.5 / 17}; p.cutFrac[0] != want[0] || p.cutFrac[1] != want[1] {
		t.Fatalf("cut fractions %v, want %v", p.cutFrac, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median %g", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("p25 %g", q)
	}
	if n := beyond(xs, 0.5); n != 2 {
		t.Fatalf("beyond median: %d", n)
	}
}
