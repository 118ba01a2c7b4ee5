package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	igp "repro"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/partition"
)

// libSpec is one library workload: a base graph, an initial partition,
// and a recorded stream of edit steps, absorbed one step per engine call
// by a single caller in a closed loop.
type libSpec struct {
	name       string
	p          int
	procs      int  // engine workers (WithParallelism)
	multilevel bool // WithMultilevel V-cycle instead of the flat pipeline
	build      func(seed int64) (*libInput, error)
}

// libInput is a library workload's generated input. An episode starts
// an engine on a copy of base (partitioned by RSB, or from the all-zero
// assignment a cold V-cycle starts from) and replays steps in order.
type libInput struct {
	base  *igp.Graph
	steps [][]edit
	rsb   bool
	prime int // engine calls in set-up: the first call (and the V-cycle's settle call)
	// window is the number of leading calls every run makes, however
	// long they take; the quality metrics cover exactly these.
	window int
}

var (
	meshAdapt = &libSpec{
		name: "mesh-adapt", p: 64, procs: 1,
		build: func(seed int64) (*libInput, error) {
			// One mesh for every seed, like the other workloads' graphs:
			// the seed drives where the refinements land.
			gen, err := mesh.NewGenerator(10000, configSeed)
			if err != nil {
				return nil, err
			}
			base := gen.Mesh().Graph()
			steps, err := meshRefinements(gen, base, 32, 50, rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			return &libInput{base: base, steps: steps, rsb: true, prime: 1, window: len(steps)}, nil
		},
	}
	vcycleGrid = &libSpec{
		name: "vcycle-grid", p: 8, procs: runtime.NumCPU(), multilevel: true,
		build: func(seed int64) (*libInput, error) {
			return vcycleInput(graph.Grid(316, 316), seed, 1000, 200)
		},
	}
	vcyclePowerLaw = &libSpec{
		name: "vcycle-powerlaw", p: 8, procs: runtime.NumCPU(), multilevel: true,
		build: func(seed int64) (*libInput, error) {
			// One graph for every seed, like vcycle-grid's: the seed
			// drives the edit stream, and between-graph differences
			// would swamp run-to-run comparisons.
			g, err := graph.PowerLaw(20000, 4, rand.New(rand.NewSource(configSeed)))
			if err != nil {
				return nil, err
			}
			return vcycleInput(g, seed, 300, 40)
		},
	}
)

func vcycleInput(base *igp.Graph, seed int64, steps, window int) (*libInput, error) {
	bursts, err := editBursts(base, steps, 8, rand.New(rand.NewSource(seed^0x1a26e)))
	if err != nil {
		return nil, err
	}
	return &libInput{base: base, steps: bursts, prime: 2, window: window}, nil
}

// configSeed seeds the program's own randomized solves (the RSB and
// the V-cycle's coarsest spectral solve). It is configuration, fixed
// for every run: the workload seed varies only the inputs.
const configSeed = 1

// options is the engine configuration of the workload. A non-nil
// recorder adds the tracing observer and the forwarding LP solver.
func (w *libSpec) options(procs int, rec *recorder) []igp.Option {
	opts := []igp.Option{igp.WithRefine(), igp.WithParallelism(procs)}
	if w.multilevel {
		opts = append(opts, igp.WithMultilevel(igp.CoarsenSeed(configSeed)))
	}
	if rec != nil {
		opts = append(opts, igp.WithSolver(tracedSolverName), igp.WithObserver(rec.observer()))
	}
	return opts
}

// readsPerCall is how many assignment reads follow each call, so the
// read percentiles rest on many samples.
const readsPerCall = 4

// callRec is what one warm call did, recorded outside its timed region.
type callRec struct {
	apply, call time.Duration
	cpu         time.Duration // process CPU time of the call
	reads       [readsPerCall]time.Duration
	cutFrac     float64
	moved       int
	hash        uint64
	stats       *igp.Stats
	allocs      uint64
	self        map[string]time.Duration
	spans       map[string]int
}

// libRun drives one library workload for one seed.
type libRun struct {
	spec  *libSpec
	in    *libInput
	seed  int64
	procs int
	a0    *igp.Assignment // initial partition of the base graph, before any call
	// primeSpectral counts set-up calls whose coarsest level was
	// partitioned by the spectral solve.
	primeSpectral float64
	failed        int
	notes         []string
}

func newLibRun(spec *libSpec, seed int64, procs int) (*libRun, error) {
	in, err := spec.build(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", spec.name, err)
	}
	return &libRun{spec: spec, in: in, seed: seed, procs: procs}, nil
}

func (r *libRun) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// setup is what a user pays before the first warm call: the initial
// partition of a fresh graph plus the engine's first call(s). It
// returns the set-up's wall and process CPU times and the RSB's wall
// share of it.
func (r *libRun) setup() (total, cpu, rsb time.Duration, err error) {
	g := r.in.base.Clone()
	cpu0, t0 := cpuTime(), time.Now()
	a, err := r.initial(g)
	rsb = time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	if !r.in.rsb {
		rsb = 0
	}
	first := r.a0 == nil
	if first {
		r.a0 = a.Clone()
	}
	eng, err := igp.NewEngine(g, r.spec.options(r.procs, nil)...)
	if err != nil {
		return 0, 0, 0, err
	}
	defer eng.Close()
	spectral := 0.0
	for i := 0; i < r.in.prime; i++ {
		st, err := eng.Repartition(context.Background(), a)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: set-up call: %w", r.spec.name, err)
		}
		if st.SpectralInit {
			spectral++
		}
	}
	total, cpu = time.Since(t0), cpuTime()-cpu0
	if first {
		r.primeSpectral = spectral
		// The primed partition is checked like every warm call.
		r.check(g, a, nil)
	}
	return total, cpu, rsb, nil
}

func (r *libRun) initial(g *igp.Graph) (*igp.Assignment, error) {
	if r.in.rsb {
		return igp.PartitionRSB(g, r.spec.p, configSeed)
	}
	a := partition.New(g.Order(), r.spec.p)
	for v := range a.Part {
		a.Part[v] = 0
	}
	return a, nil
}

// segment runs episodes until deadline, always making the first
// window calls, and returns every warm call's record. Each episode starts a
// fresh engine on a copy of the base graph and the initial partition
// (untimed) and replays the recorded steps; episodes after the first
// must reproduce the first call for call. rec, when non-nil, traces
// the calls; allocs samples heap allocations around each call.
//
// It also returns the peak live heap, sampled with a live engine after
// the first episode's set-up calls and after its last call. Both samples
// see the same graph in every run of a seed; a sample taken when the
// deadline passes would land at a different step of an episode each
// run, and mesh-adapt's graph grows through an episode.
func (r *libRun) segment(deadline time.Time, rec *recorder, allocs bool) ([]callRec, float64, error) {
	if r.a0 == nil {
		if _, _, _, err := r.setup(); err != nil {
			return nil, 0, err
		}
	}
	var out []callRec
	heap := 0.0
	for ep := 0; ep == 0 || time.Now().Before(deadline); ep++ {
		g := r.in.base.Clone()
		a := r.a0.Clone()
		eng, err := igp.NewEngine(g, r.spec.options(r.procs, rec)...)
		if err != nil {
			return nil, 0, err
		}
		activeRecorder.Store(rec)
		if rec != nil {
			rec.startCall(-1) // spans of the episode's set-up calls
		}
		for i := 0; i < r.in.prime; i++ {
			if _, err := eng.Repartition(context.Background(), a); err != nil {
				eng.Close()
				return nil, 0, fmt.Errorf("%s: episode start: %w", r.spec.name, err)
			}
		}
		if ep == 0 {
			heap = liveHeapMB()
		}
		for j, step := range r.in.steps {
			if (ep > 0 || j >= r.in.window) && !time.Now().Before(deadline) {
				break
			}
			c, err := r.call(eng, g, a, step, len(out), rec, allocs)
			if err != nil {
				activeRecorder.Store(nil)
				eng.Close()
				return nil, 0, err
			}
			if ep > 0 {
				ref := out[j]
				if c.hash != ref.hash || c.cutFrac != ref.cutFrac || c.moved != ref.moved {
					r.fail("episode %d call %d differs from episode 0 (cut %g vs %g, moved %d vs %d)",
						ep, j, c.cutFrac, ref.cutFrac, c.moved, ref.moved)
				}
			}
			out = append(out, c)
		}
		activeRecorder.Store(nil)
		if ep == 0 {
			heap = math.Max(heap, liveHeapMB())
		}
		eng.Close()
	}
	return out, heap, nil
}

// call applies one edit step and runs one warm call, then checks the
// result. Only the edit replay, the call and the assignment reads are
// timed.
func (r *libRun) call(eng *igp.Engine, g *igp.Graph, a *igp.Assignment, step []edit, id int, rec *recorder, allocs bool) (callRec, error) {
	var c callRec
	if rec != nil {
		rec.startCall(id)
	}
	var applySpan, callSpan int
	if rec != nil {
		applySpan = rec.begin("graph.apply")
	}
	t0 := time.Now()
	err := apply(g, step)
	c.apply = time.Since(t0)
	if rec != nil {
		rec.end(applySpan)
	}
	if err != nil {
		return c, fmt.Errorf("%s: replay edits: %w", r.spec.name, err)
	}

	var m0 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	if rec != nil {
		callSpan = rec.begin("call")
	}
	cpu0, t1 := cpuTime(), time.Now()
	st, err := eng.Repartition(context.Background(), a)
	c.call, c.cpu = time.Since(t1), cpuTime()-cpu0
	if rec != nil {
		rec.end(callSpan)
	}
	if allocs {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		c.allocs = m1.Mallocs - m0.Mallocs
	}

	// The reads a caller makes after each call: the partition loads,
	// through the library's Assignment.Weights.
	var loads []float64
	for i := range c.reads {
		t2 := time.Now()
		loads = a.Weights(g)
		c.reads[i] = time.Since(t2)
	}
	if len(loads) != a.P {
		r.fail("call %d: read %d partition loads, want %d", id, len(loads), a.P)
	}

	if err != nil {
		r.fail("call %d: %v", id, err)
		return c, nil
	}
	c.stats = st.Clone()
	if rec != nil {
		c.self, c.spans = rec.selfTimes()
	}
	c.cutFrac, c.hash = r.check(g, a, c.stats)
	c.moved = st.BalanceMoved + st.RefineMoved + st.CoarseMoved
	return c, nil
}

// check validates one call's output and returns its cut fraction and
// assignment hash: every live vertex assigned, exact balance (the
// engines run at the default tolerance 0), and the reported cut equal
// to the brute-force cut.
func (r *libRun) check(g *igp.Graph, a *igp.Assignment, st *igp.Stats) (float64, uint64) {
	if err := a.Validate(g); err != nil {
		r.fail("invalid assignment: %v", err)
	}
	sizes := a.Sizes(g)
	targets := partition.Targets(g.NumVertices(), a.P)
	for q := range sizes {
		if sizes[q] != targets[q] {
			r.fail("imbalance: partition %d has %d vertices, target %d", q, sizes[q], targets[q])
			break
		}
	}
	cut := partition.Cut(g, a)
	if st != nil && (st.CutAfter.Total != cut.Total || st.CutAfter.TotalWeight != cut.TotalWeight) {
		r.fail("Stats.CutAfter %d/%g differs from brute-force cut %d/%g",
			st.CutAfter.Total, st.CutAfter.TotalWeight, cut.Total, cut.TotalWeight)
	}
	h := fnv.New64a()
	var b [4]byte
	for _, p := range a.Part {
		b[0], b[1], b[2], b[3] = byte(p), byte(p>>8), byte(p>>16), byte(p>>24)
		h.Write(b[:])
	}
	return cut.TotalWeight / totalEdgeWeight(g), h.Sum64()
}

func totalEdgeWeight(g *igp.Graph) float64 {
	s := 0.0
	g.ForEachVertex(func(v igp.Vertex) {
		for i, u := range g.Neighbors(v) {
			if v < u {
				s += g.EdgeWeights(v)[i]
			}
		}
	})
	return s
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// quality is the deterministic part of a run: the mean cut fraction and
// vertices moved over the first episode, and the mean hierarchy depth.
type quality struct {
	cutFrac, moved, levels float64
}

func (r *libRun) window(calls []callRec) []callRec {
	return calls[:min(len(calls), r.in.window)]
}

func qualityOf(calls []callRec) quality {
	var q quality
	for _, c := range calls {
		q.cutFrac += c.cutFrac
		q.moved += float64(c.moved)
		if c.stats != nil {
			q.levels += float64(len(c.stats.Levels))
		}
	}
	n := float64(len(calls))
	return quality{q.cutFrac / n, q.moved / n, q.levels / n}
}

// runLibrary is one benchmark run of a library workload.
func runLibrary(spec *libSpec, seed int64, seconds float64, trace bool, traceDir string) (*result, error) {
	r, err := newLibRun(spec, seed, spec.procs)
	if err != nil {
		return nil, err
	}
	if trace {
		return r.traced(seconds, traceDir)
	}
	setupWall, setupCPU, err := repeatSetup(func() (time.Duration, time.Duration, error) {
		s, c, _, err := r.setup()
		return s, c, err
	})
	if err != nil {
		return nil, err
	}
	calls, heap, err := r.segment(time.Now().Add(seconds2d(seconds)), nil, false)
	if err != nil {
		return nil, err
	}

	var callMS, applyMS, readMS []float64
	var busy, cpu time.Duration
	for _, c := range calls {
		callMS = append(callMS, ms(c.call))
		applyMS = append(applyMS, ms(c.apply))
		for _, d := range c.reads {
			readMS = append(readMS, ms(d))
		}
		busy += c.apply + c.call
		cpu += c.cpu
	}
	q := qualityOf(r.window(calls))
	res := &result{attempted: len(calls) + 1, failed: r.failed, notes: r.notes}
	res.notef("calls=%d episodes=%.2f procs=%d", len(calls), float64(len(calls))/float64(len(r.in.steps)), r.procs)
	res.noteDist("call", callMS)
	res.noteDist("edit replay", applyMS)
	res.noteDist("read", readMS)
	res.notef("closed-loop rate: %.2f edit steps/s", float64(len(calls))/busy.Seconds())
	res.notef("set-up wall time: median %.4g s of %d", median(setupWall), len(setupWall))
	res.add("setup_s", median(setupCPU), "s")
	res.add("call_cpu_ms", ms(cpu)/float64(len(calls)), "ms")
	res.add("edit_p50_ms", median(applyMS), "ms")
	res.add("read_p50_ms", median(readMS), "ms")
	res.add("cut_frac", q.cutFrac, "ratio")
	res.add("moved_per_call", q.moved, "count")
	res.add("live_heap_mb", heap, "MB")
	return res, nil
}

func seconds2d(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// repeatSetup times set-up at least 3 and at most 7 times, stopping
// once 3 seconds have gone into it, and returns the wall and CPU
// samples in seconds.
func repeatSetup(setup func() (wall, cpu time.Duration, err error)) (walls, cpus []float64, err error) {
	total := 0.0
	for len(walls) < 3 || (len(walls) < 7 && total < 3) {
		w, c, err := setup()
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, w.Seconds())
		cpus = append(cpus, c.Seconds())
		total += w.Seconds()
	}
	return walls, cpus, nil
}

// traced is the --trace 1 run of a library workload: one set-up, an
// untraced segment (call latency, counters, allocations), then a traced
// segment of the same length on a fresh engine. Per-layer times come
// from the traced segment's spans, counts and level data from Stats;
// the two segments must agree call for call.
func (r *libRun) traced(seconds float64, dir string) (*result, error) {
	_, _, rsb, err := r.setup()
	if err != nil {
		return nil, err
	}
	half := seconds2d(seconds / 2)
	plain, _, err := r.segment(time.Now().Add(half), nil, true)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, _, err := r.segment(time.Now().Add(half), rec, false)
	if err != nil {
		return nil, err
	}
	n := min(len(plain), len(traced), r.in.window)
	for j := 0; j < n; j++ {
		if plain[j].hash != traced[j].hash || plain[j].cutFrac != traced[j].cutFrac {
			r.fail("traced call %d differs from the untraced call", j)
		}
	}
	path, err := rec.write(dir, fmt.Sprintf("%s-seed%d.json", r.spec.name, r.seed))
	if err != nil {
		return nil, err
	}

	res := &result{attempted: len(plain) + len(traced) + 1, failed: r.failed, notes: r.notes}
	res.notef("spans written to %s", path)
	res.notef("untraced calls=%d traced calls=%d", len(plain), len(traced))

	var plainMS, tracedMS []float64
	for _, c := range plain {
		plainMS = append(plainMS, ms(c.call))
	}
	for _, c := range traced {
		tracedMS = append(tracedMS, ms(c.call))
	}
	selfMS := func(name string) float64 {
		var xs []float64
		for _, c := range traced {
			xs = append(xs, ms(c.self[name]))
		}
		return mean(xs)
	}
	perStat := func(calls []callRec, f func(*igp.Stats) float64) float64 {
		var xs []float64
		for _, c := range calls {
			if c.stats != nil {
				xs = append(xs, f(c.stats))
			}
		}
		return mean(xs)
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	layers := map[string]float64{
		"engine.assign_ms":     selfMS("phase.assign"),
		"coarsen.coarsen_ms":   selfMS("phase.coarsen"),
		"coarsen.uncoarsen_ms": selfMS("phase.uncoarsen"),
		"layering.layer_ms":    selfMS("phase.layer"),
		"balance.balance_ms":   selfMS("phase.balance"),
		"refine.refine_ms":     selfMS("phase.refine"),
		"lp.solve_ms":          selfMS("lp.solve"),
		"engine.other_ms":      perStat(traced, func(s *igp.Stats) float64 { return ms(s.Elapsed - s.PhaseTimings.Total()) }),
	}
	accounted := 0.0
	for name, v := range layers {
		res.add(name, v, "ms")
		accounted += v
	}
	solves := 0.0
	for _, c := range traced {
		solves += float64(c.spans["lp.solve"])
	}
	solves /= float64(max(len(traced), 1))
	pivots := perStat(plain, func(s *igp.Stats) float64 { return float64(s.LPIterations) })
	res.add("lp.solves", solves, "count")
	res.add("lp.pivots", pivots, "count")
	res.add("lp.pivots_per_solve", pivots/math.Max(solves, 1), "count")
	res.add("lp.parallel_solves", perStat(plain, func(s *igp.Stats) float64 { return float64(s.LPParallel) }), "count")
	res.add("refine.rounds", perStat(plain, func(s *igp.Stats) float64 { return float64(s.RefineRounds) }), "count")
	res.add("refine.moved", perStat(plain, func(s *igp.Stats) float64 { return float64(s.RefineMoved) }), "count")
	res.add("balance.stages", perStat(plain, func(s *igp.Stats) float64 { return float64(s.Stages) }), "count")
	res.add("balance.moved", perStat(plain, func(s *igp.Stats) float64 { return float64(s.BalanceMoved) }), "count")
	var allocs float64
	for _, c := range plain {
		allocs += float64(c.allocs)
	}
	res.add("engine.allocs_per_call", allocs/float64(max(len(plain), 1)), "count")

	res.add("coarsen.levels", perStat(plain, func(s *igp.Stats) float64 { return float64(len(s.Levels)) }), "count")
	res.add("coarsen.repaired_frac", perStat(plain, func(s *igp.Stats) float64 { return b2f(s.HierarchyRepaired) }), "ratio")
	res.add("coarsen.rebuilt_levels", perStat(plain, func(s *igp.Stats) float64 {
		n := 0
		for _, l := range s.Levels {
			if l.Rebuilt {
				n++
			}
		}
		return float64(n)
	}), "count")
	var amp []float64
	for _, c := range plain {
		if c.stats == nil || len(c.stats.Levels) < 2 || c.stats.Levels[0].Dissolved == 0 {
			continue
		}
		worst := 0.0
		for _, l := range c.stats.Levels[1:] {
			worst = math.Max(worst, float64(l.Dissolved)/float64(c.stats.Levels[0].Dissolved))
		}
		amp = append(amp, worst)
	}
	res.add("coarsen.dissolve_amp", mean(amp), "ratio")
	for k := 0; k < maxLevels; k++ {
		res.add(fmt.Sprintf("coarsen.L%d.ms", k), perStat(plain, func(s *igp.Stats) float64 {
			if k >= len(s.Levels) {
				return 0
			}
			return ms(s.Levels[k].CoarsenTime + s.Levels[k].UncoarsenTime)
		}), "ms")
		res.add(fmt.Sprintf("coarsen.L%d.dissolved", k), perStat(plain, func(s *igp.Stats) float64 {
			if k >= len(s.Levels) {
				return 0
			}
			return float64(s.Levels[k].Dissolved)
		}), "count")
	}

	var apply []float64
	for _, c := range plain {
		apply = append(apply, ms(c.apply))
	}
	res.add("graph.apply_ms", mean(apply), "ms")
	res.add("graph.csr_patched_frac", perStat(plain, func(s *igp.Stats) float64 { return b2f(s.CSRPatched > 0) }), "ratio")

	inits := 0.0
	if r.in.rsb {
		inits = 1
	}
	inits += r.primeSpectral
	for _, c := range r.window(plain) {
		if c.stats != nil && c.stats.SpectralInit {
			inits++
		}
	}
	res.add("spectral.rsb_s", rsb.Seconds(), "s")
	res.add("spectral.init_calls", inits, "count")

	var busy, span float64
	for _, c := range plain {
		if c.stats == nil {
			continue
		}
		for _, b := range c.stats.WorkerBusy {
			busy += b.Seconds()
		}
		span += c.stats.Elapsed.Seconds() * float64(r.procs)
	}
	res.add("par.busy_frac", busy/math.Max(span, 1e-12), "ratio")
	addServeZeros(res)

	res.notef("per-layer times sum to %.4g ms per call: %.3f of the traced mean call, %.3f of the untraced call p50 (%.4g ms)",
		accounted, accounted/mean(tracedMS), accounted/median(plainMS), median(plainMS))
	res.add("trace.overhead_frac", median(tracedMS)/median(plainMS)-1, "ratio")
	res.add("trace.accounted_frac", accounted/mean(tracedMS), "ratio")
	return res, nil
}
