// Package engine is the hot-path repartitioning machine: a long-lived
// object that owns every piece of derived state the four-phase IGP
// pipeline needs, so that repeated Repartition calls over an evolving
// graph cost work proportional to what changed — not to the whole graph —
// and allocate (near) nothing in steady state.
//
// # Lifecycle and epoching
//
// An Engine is bound to one *graph.Graph at construction and consumes the
// graph's edit epoch (graph.Epoch) plus its bounded edit journal
// (graph.TouchedSince):
//
//   - The CSR snapshot (flat compressed-sparse-row arrays, the layout the
//     layering and gains kernels traverse) is refreshed in place — reusing
//     its arrays — only when the graph's epoch has moved since the last
//     refresh. Within one Repartition call the graph does not change, so
//     every stage and refinement round shares one snapshot.
//
//   - The partition-boundary set (every live vertex with at least one
//     neighbor in a different partition) is maintained incrementally. When
//     the journal covers the edits since the last sync, only the journaled
//     vertices, the vertices whose assignment changed since the engine
//     last looked, and the neighbors of the moved ones are re-examined;
//     a full O(n+m) boundary rebuild happens only on the first sync or
//     after journal overflow. The layering and refinement kernels seed
//     from this set, so their level-0/candidate passes never scan the full
//     arc array.
//
// # Scratch reuse rules
//
// The layering result, the refinement candidate pools, the balance size
// and target vectors, and the best-assignment snapshot used by the
// refinement driver are all arenas owned by the engine. They are grown to
// the largest graph seen and then reused: results returned by Layer and
// Gains are valid only until the engine's next call. An Engine is not safe
// for concurrent use; independent goroutines (e.g. simulated SPMD ranks)
// each own one.
//
// Correctness does not depend on the incrementality: the boundary set is
// kept exact (equivalence-fuzzed against the full scan in the tests), and
// a seeded layering of an exact boundary is bit-identical to the one-shot
// full-scan layering.
package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/balance"
	"repro/internal/cancel"
	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/layering"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/refine"
)

// ErrNeedRepartition reports that incremental balancing is impossible
// (even maximally relaxed LPs stay infeasible). The paper's remedy is to
// repartition from scratch or add the new vertices in several batches.
var ErrNeedRepartition = errors.New("core: incremental balance infeasible; repartition from scratch")

// errNoOldVertices reports a phase-1 precondition failure: incremental
// assignment needs at least one previously assigned vertex to grow from.
var errNoOldVertices = errors.New("core: assign: no previously assigned vertices; use a from-scratch partitioner first")

// ErrClosed reports a call on an engine whose session was ended by
// Close. A closed engine never becomes usable again; create a new one.
var ErrClosed = errors.New("core: engine closed; create a new engine")

// Options configures an Engine (and the core.Repartition wrapper).
type Options struct {
	// Solver is the simplex implementation (nil = lp.Default()). A
	// stateful solver implementing lp.SessionSolver (e.g. "dual-warm")
	// is forked at New: the engine session holds a private instance so
	// retained warm-start bases live exactly as long as the engine.
	Solver lp.Solver
	// EpsilonMax is the paper's upper bound C on the relaxation factor;
	// stages try ε = 1, 2, … up to it (0 = default 8).
	EpsilonMax float64
	// MaxStages caps balancing stages (0 = default 16).
	MaxStages int
	// Tolerance allows partition sizes to deviate from their targets by
	// up to this many vertices (0 = the paper's exact balance). Positive
	// values trade residual imbalance for less vertex movement.
	Tolerance int
	// Accuracy is the target accuracy for approximate LP solvers (the
	// registered "mwu" multiplicative-weight solver): Optimal objectives
	// are guaranteed within a (1+Accuracy) factor of the true optimum.
	// 0 keeps the solver's default (0.05); exact solvers ignore it.
	Accuracy float64
	// Refine enables phase 4 (the IGPR variant).
	Refine bool
	// RefineOptions tunes phase 4 when enabled.
	RefineOptions refine.Options
	// Observer, if non-nil, receives stage-level Events during
	// Repartition (see Event for the ordering contract).
	Observer func(Event)
	// Parallelism is the worker count for the engine's sharded kernels:
	// the incremental boundary recompute, the phase 1 nearest-labeled
	// BFS, the layering BFS and the refinement gain scan. 0 means
	// runtime.GOMAXPROCS(0); 1 selects the exact sequential code path.
	// Results are bit-identical for every value — parallelism is purely
	// a latency property.
	Parallelism int
	// Multilevel enables the V-cycle mode for large graphs: coarsen by
	// same-partition heavy-edge matching down to a cheap size, solve the
	// coarsest graph (weighted balance LP, or spectral init when the
	// assignment is degenerate), then uncoarsen with per-level greedy
	// refinement — all between phase 1 and the balancing stage loop,
	// which becomes the fine polish. The hierarchy lives in the engine
	// session and is journal-repaired on warm calls (see
	// Stats.HierarchyRepaired). Disabled (the zero value), the flat
	// pipeline is untouched.
	Multilevel MultilevelOptions
	// FullRefresh disables every delta shortcut in the derived-state
	// pipeline: CSR snapshots are fully rebuilt instead of patched from
	// the edit journal, the boundary set is rebuilt from scratch on
	// every sync, cutset statistics come from partition.Cut's full arc
	// rescan, and phase 1 runs the one-shot Assign oracle. Results are
	// bit-identical either way (the incremental paths are fuzz-verified
	// against these oracles); the switch exists as an escape hatch and a
	// divergence-debugging lever.
	FullRefresh bool
}

func (o Options) solver() lp.Solver {
	if o.Solver == nil {
		return lp.Default()
	}
	return o.Solver
}

func (o Options) epsMax() float64 {
	if o.EpsilonMax <= 0 {
		return 8
	}
	return o.EpsilonMax
}

func (o Options) maxStages() int {
	if o.MaxStages <= 0 {
		return 16
	}
	return o.MaxStages
}

func (o Options) procs() int {
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// StageStats records one balancing stage.
type StageStats struct {
	Epsilon  float64 // relaxation factor that produced a feasible LP
	Moved    int     // vertices moved
	LPVars   int     // dense-formulation columns (the paper's v)
	LPCons   int     // dense-formulation rows (the paper's c)
	LPPivots int     // simplex iterations
	MaxDelta int     // largest δ(i,j) this stage
}

// Stats reports everything Repartition did; the benchmark harness turns
// these into the paper's table columns.
type Stats struct {
	NewAssigned      int // vertices assigned in phase 1
	ClusterFallbacks int // disconnected new-vertex clusters placed by size
	Stages           []StageStats
	BalanceMoved     int
	Refine           *refine.Stats // nil unless Options.Refine
	CutBefore        partition.CutStats
	CutAfter         partition.CutStats
	AssignTime       time.Duration
	LayerTime        time.Duration
	BalanceTime      time.Duration
	RefineTime       time.Duration
	// Elapsed is the wall clock of the whole Repartition call, measured
	// inside the engine so it covers exactly the pipeline (not callers'
	// option conversion). It is set even when Repartition errors.
	Elapsed time.Duration
	// LPIterations is the total simplex pivots across every balance stage
	// and refinement round.
	LPIterations int
	// Parallelism is the worker count the engine's sharded kernels ran
	// with (1 = the sequential path).
	Parallelism int
	// LPParallel counts LP solves during this call that actually forked
	// the simplex kernels over the worker group (reached the per-pivot
	// work threshold); zero on the sequential path and for LPs too small
	// to be worth sharding. Results are bit-identical either way.
	LPParallel int
	// MWUFallbacks counts LP solves during this call that a solver with
	// an exact fallback ("network", "mwu") delegated to it: the instance
	// was not graph shaped, or an mwu quality bracket did not close
	// within the iteration budget. Zero for the other solvers.
	MWUFallbacks int
	// WorkerBusy is the per-worker busy wall clock summed over every
	// parallel region of the call (boundary sync, layering BFS, gain
	// scans, pool sorts); index w is worker w. Empty on the sequential
	// path. Like Stages it is an arena reused across calls.
	WorkerBusy []time.Duration
	// CSRPatched counts snapshot refreshes during this call that were
	// served by the journal-driven partial CSR patch (only touched rows
	// rewritten) rather than a full rebuild. On a warm engine absorbing
	// small edits it equals the number of refreshes; zero means every
	// refresh rebuilt (first call, journal overflow, slot overflow, high
	// churn, or Options.FullRefresh).
	CSRPatched int
	// CutIncremental counts cutset evaluations during this call served
	// from the maintained boundary set (cost proportional to the
	// boundary) instead of partition.Cut's full arc rescan. It covers
	// the CutBefore/CutAfter reports and every refinement round's cut
	// poll.
	CutIncremental int
	// V-cycle reporting (zero unless Options.Multilevel is enabled).
	// Levels holds per-level hierarchy statistics, coarsest level last;
	// like Stages it is an arena reused across calls.
	Levels []LevelStats
	// CoarsenTime and UncoarsenTime are the V-cycle's two legs
	// (hierarchy update + coarsest solve; projection + per-level
	// refinement). TotalTime includes both.
	CoarsenTime   time.Duration
	UncoarsenTime time.Duration
	// HierarchyRepaired reports that every pre-existing hierarchy level
	// was journal-repaired this call — the warm V-cycle path. False on
	// the first multilevel call (nothing to repair) and whenever a level
	// had to be recoarsened (journal overflow, dead-slot bloat,
	// partition-count change, coarsening stall).
	HierarchyRepaired bool
	// CoarseMoved is the fine-vertex weight the coarsest solve moved;
	// SpectralInit reports that the coarsest graph was partitioned from
	// scratch by recursive spectral bisection (degenerate incoming
	// assignment) rather than rebalanced by the weighted LP.
	CoarseMoved  int
	SpectralInit bool
	// VCycleRefined counts the greedy per-level refinement moves applied
	// during uncoarsening (all levels).
	VCycleRefined int
}

// Clone returns a deep copy of the Stats, detached from the engine's
// arenas: unlike the value returned by Repartition — which is
// overwritten by the engine's next call — a clone stays valid forever.
func (s *Stats) Clone() *Stats {
	c := *s
	c.Stages = append([]StageStats(nil), s.Stages...)
	c.WorkerBusy = append([]time.Duration(nil), s.WorkerBusy...)
	c.Levels = append([]LevelStats(nil), s.Levels...)
	c.CutBefore.PerPart = append([]float64(nil), s.CutBefore.PerPart...)
	c.CutAfter.PerPart = append([]float64(nil), s.CutAfter.PerPart...)
	if s.Refine != nil {
		r := *s.Refine
		r.RoundPivots = append([]int(nil), s.Refine.RoundPivots...)
		c.Refine = &r
	}
	return &c
}

// TotalTime sums the phase times (including the V-cycle legs when
// multilevel mode ran).
func (s *Stats) TotalTime() time.Duration {
	return s.AssignTime + s.CoarsenTime + s.UncoarsenTime + s.LayerTime + s.BalanceTime + s.RefineTime
}

// reset readies a Stats arena for reuse, keeping the Stages, WorkerBusy
// and Levels capacity.
func (s *Stats) reset() {
	stages := s.Stages[:0]
	busy := s.WorkerBusy[:0]
	levels := s.Levels[:0]
	*s = Stats{Stages: stages, WorkerBusy: busy, Levels: levels}
}

// MaxLPSize returns the largest (vars, cons) over all balancing stages —
// the paper's "v = 188 and c = 126" statistic.
func (s *Stats) MaxLPSize() (vars, cons int) {
	for _, st := range s.Stages {
		if st.LPVars > vars {
			vars, cons = st.LPVars, st.LPCons
		}
	}
	return vars, cons
}

// Engine owns the long-lived repartitioning state for one graph. Create
// with New, then call Repartition after each batch of graph edits. The
// zero value is not usable.
type Engine struct {
	g      *graph.Graph
	opt    Options
	closed bool

	// Snapshot state.
	synced bool
	epoch  uint64
	csr    *graph.CSR

	// Incremental boundary tracker.
	prevPart   []int32 // assignment at the last sync (-2 = never seen)
	inBoundary []bool
	boundary   []graph.Vertex // exact list of the inBoundary members
	listDirty  bool           // boundary contains stale entries to compact
	stamps     par.Stamps     // per-sync recompute dedup / claim marker

	// Incremental partition-size and cut tracker: partSizes[q] is the
	// live assigned-vertex count of partition q as of the last sync
	// (exactly partition.SizesInto's definition), maintained through the
	// same journal/diff re-examination that keeps the boundary exact;
	// sizeAttr[v] is the partition v is currently counted under (-1 =
	// none). Cut reports are then served from the sorted boundary set
	// (partition.CutSeededInto) instead of a full arc rescan.
	trackedP  int // partition count the tracker was built for
	partSizes []int
	sizeAttr  []int32
	cutBuf    []graph.Vertex // sorted-boundary scratch for cut reports
	cutPPB    []float64      // PerPart arena for Stats.CutBefore
	cutPPA    []float64      // PerPart arena for Stats.CutAfter
	cutPPQ    []float64      // PerPart arena for the Cut accessor

	// Running delta-pipeline counters since the engine was created;
	// Repartition reports the per-call delta in Stats.CSRPatched /
	// Stats.CutIncremental, so work done through the public accessors
	// between calls never mutates a previously returned Stats arena.
	csrPatched     int
	cutIncremental int

	// Pending-unassigned tracker feeding the delta-aware phase 1: every
	// vertex observed live-but-Unassigned (or dead with a stale
	// assignment) by a sync re-examination, carried until the next
	// assign call consumes it. See assign.go.
	pendingNew []graph.Vertex
	inPending  []bool
	asg        assignScratch

	// Scratch arenas.
	lay      layering.Scratch
	gain     refine.Scratch
	balArena balance.Arena
	refArena refine.LPArena
	touchBuf []graph.Vertex
	sizes    []int
	targets  []int
	bestPart []int32
	flowBuf  []balance.Flow // per-stage flow arena (see balanceStage)
	stats    Stats          // reused result arena; see Repartition

	// refA is the assignment phase 4 is refining, read by refCut, the
	// per-round cut poll built once so a call allocates no closure.
	refA   *partition.Assignment
	refCut func() float64

	// V-cycle hierarchy, created lazily on the first multilevel
	// Repartition and journal-repaired on later calls (nil when
	// Options.Multilevel is disabled; dropped by Close).
	ml *coarsen.Hierarchy

	// The engine's sessionized LP solvers (deduplicated): polled for
	// Stats.LPParallel in Repartition. lpFallback is the subset that
	// delegates to an exact fallback, polled for Stats.MWUFallbacks.
	lpSolvers  []lp.ParallelSolver
	lpFallback []lp.FallbackSolver

	// Worker pool for the sharded kernels (see parallel.go): one
	// fork-join group shared with the layering and gains scratches so
	// per-worker busy times roll up in one place. Worker goroutines
	// exist only inside a region — nothing outlives a call.
	procs  int
	group  par.Group
	shards []par.Range
	bws    []boundaryWorker
	rb     rebuildTask
	df     diffTask
}

// neverSeen marks prevPart slots the engine has not synced yet; it never
// compares equal to a real partition id or Unassigned.
const neverSeen int32 = -2

// New returns an engine bound to g. The first Repartition (or Layer/Gains)
// call pays a full snapshot build; later calls are incremental.
//
// Stateful solvers (lp.SessionSolver, e.g. the warm-started "dual-warm"
// dual simplex) are forked here: the engine session owns a private
// instance whose retained bases live exactly as long as the engine, so
// the warm state of one engine's balance/refine LP stream is never
// shared with — or evicted by — another engine, and a one-shot
// core.Repartition (fresh engine per call) never reuses bases across
// calls. When the refine solver is the balance solver (the default),
// both phases share one session, so a basis retained by a balance stage
// can warm a structurally identical later solve and vice versa.
func New(g *graph.Graph, opt Options) *Engine {
	e := &Engine{g: g, procs: opt.procs()}
	base := opt.solver()
	// Sessions get the engine's worker group: WithParallelism covers the
	// LP kernels with zero call-site changes (see lp/parallel.go). The
	// accuracy option configures approximate session solvers ("mwu");
	// exact solvers ignore it.
	sessOpts := []lp.SessionOption{lp.WithWorkers(&e.group, e.procs)}
	if opt.Accuracy > 0 {
		sessOpts = append(sessOpts, lp.WithAccuracy(opt.Accuracy))
	}
	session := lp.Session(base, sessOpts...)
	opt.Solver = session
	switch rs := opt.RefineOptions.Solver; {
	case rs == nil || sameSolverInstance(rs, base):
		opt.RefineOptions.Solver = session
	default:
		opt.RefineOptions.Solver = lp.Session(rs, sessOpts...)
	}
	e.opt = opt
	if ps, ok := session.(lp.ParallelSolver); ok {
		e.lpSolvers = append(e.lpSolvers, ps)
	}
	if fs, ok := session.(lp.FallbackSolver); ok {
		e.lpFallback = append(e.lpFallback, fs)
	}
	if rs := opt.RefineOptions.Solver; !sameSolverInstance(rs, session) {
		if ps, ok := rs.(lp.ParallelSolver); ok {
			e.lpSolvers = append(e.lpSolvers, ps)
		}
		if fs, ok := rs.(lp.FallbackSolver); ok {
			e.lpFallback = append(e.lpFallback, fs)
		}
	}
	// The layering and gains scratches shard over the same worker count
	// and run their regions on the engine's fork-join group, so
	// Stats.WorkerBusy aggregates every kernel's per-worker busy time.
	e.lay.Procs = e.procs
	e.lay.Group = &e.group
	e.gain.Procs = e.procs
	e.gain.Group = &e.group
	return e
}

// lpParallel sums the forked-solve counters of the engine's LP sessions
// (the lifetime totals; Repartition reports per-call deltas).
func (e *Engine) lpParallel() int {
	total := 0
	for _, ps := range e.lpSolvers {
		total += ps.ParallelSolves()
	}
	return total
}

// lpFallbacks sums the exact-fallback counters of the engine's
// approximate LP sessions (lifetime totals; Repartition reports
// per-call deltas as Stats.MWUFallbacks).
func (e *Engine) lpFallbacks() int {
	total := 0
	for _, fs := range e.lpFallback {
		total += fs.Fallbacks()
	}
	return total
}

// sameSolverInstance reports whether a and b are the very same solver
// value — the only case where balance and refine should share one
// session. The Comparable guard keeps an exotic non-comparable solver
// type from panicking the interface comparison; such a value simply
// gets its own session.
func sameSolverInstance(a, b lp.Solver) bool {
	return reflect.TypeOf(a).Comparable() && a == b
}

// Graph returns the graph the engine is bound to (also after Close).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Closed reports whether Close has ended this engine session.
func (e *Engine) Closed() bool { return e.closed }

// Close ends the engine session and releases everything it owns: the
// CSR snapshot, the boundary/size/pending trackers, every scratch
// arena, the worker group, and the sessionized LP solvers with their
// retained warm-start bases. A session pool evicting an idle engine
// calls Close so the memory is reclaimed deterministically rather than
// when the GC happens to notice.
//
// Invalidation hazard: everything the engine ever handed out points
// into those arenas — the *Stats returned by Repartition, Layer and
// Gains results, Boundary and Snapshot views, and CutStats.PerPart
// slices are all invalid after Close (clone what must outlive the
// session first, e.g. Stats.Clone). After Close, Repartition, Layer and
// Gains fail with an error matching ErrClosed; Snapshot and Boundary
// return nil. Close is idempotent and always returns nil. The graph is
// caller-owned and is not touched.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	// Drop every arena and the LP sessions (whose basis caches can be
	// large) in one sweep; keep only the graph binding, the identity
	// bits, and the closed flag.
	*e = Engine{g: e.g, procs: e.procs, closed: true}
	return nil
}

// Snapshot syncs and returns the engine's CSR view of the graph. The
// returned snapshot is owned by the engine and valid until the graph
// mutates (or the engine is closed); it is nil after Close.
func (e *Engine) Snapshot(a *partition.Assignment) *graph.CSR {
	if e.closed {
		return nil
	}
	e.sync(a)
	return e.csr
}

// Boundary syncs and returns the current partition-boundary vertex set.
// The slice is owned by the engine, unordered, duplicate-free, and valid
// until the next engine call; it is nil after Close.
func (e *Engine) Boundary(a *partition.Assignment) []graph.Vertex {
	if e.closed {
		return nil
	}
	e.sync(a)
	return e.boundary
}

// growTo readies the tracker arrays for an order-n graph.
func (e *Engine) growTo(n int) {
	for len(e.prevPart) < n {
		e.prevPart = append(e.prevPart, neverSeen)
	}
	for len(e.inBoundary) < n {
		e.inBoundary = append(e.inBoundary, false)
	}
	for len(e.sizeAttr) < n {
		e.sizeAttr = append(e.sizeAttr, -1)
	}
	for len(e.inPending) < n {
		e.inPending = append(e.inPending, false)
	}
	e.stamps.Grow(n)
}

// growSizes readies the per-partition size counters for p partitions.
func (e *Engine) growSizes(p int) {
	if cap(e.partSizes) < p {
		e.partSizes = make([]int, p)
	}
	e.partSizes = e.partSizes[:p]
}

// sync brings the CSR snapshot, the boundary set and the size/cut
// tracker up to date with the graph and the given assignment. Cost is
// O(changed region) plus one O(n) assignment diff; the snapshot refresh
// is journal-driven (graph.RefreshCSR), so it too rewrites only the
// touched rows unless the journal overflowed or churn forced a rebuild.
// Nothing is allocated once the arenas have grown.
func (e *Engine) sync(a *partition.Assignment) {
	n := e.g.Order()
	a.Grow(n)
	if !e.synced || e.g.Epoch() != e.epoch {
		touched, exact := e.g.TouchedSince(e.epoch, e.touchBuf[:0])
		e.touchBuf = touched[:0]
		if e.opt.FullRefresh {
			e.csr = e.g.RebuildCSRInto(e.csr)
			exact = false // and rebuild the boundary/size tracker too
		} else {
			var patched bool
			e.csr, patched = e.g.RefreshCSR(e.csr)
			if patched {
				e.csrPatched++
			}
		}
		wasSynced := e.synced
		e.epoch = e.g.Epoch()
		e.synced = true
		if !wasSynced || !exact || a.P != e.trackedP {
			e.rebuildBoundary(a)
			return
		}
		e.growTo(n)
		e.stamps.Next()
		// Structurally touched vertices re-examine themselves; an edge flip
		// cannot change a non-endpoint's membership (size attribution and
		// pending collection ride the same re-examination).
		for _, v := range touched {
			e.recompute(v, a)
		}
		e.diffAssignment(a)
		e.finishSync(a)
		return
	}
	if a.P != e.trackedP {
		e.rebuildBoundary(a)
		return
	}
	// Graph unchanged: only assignment moves can alter the boundary.
	e.growTo(n)
	e.stamps.Next()
	e.diffAssignment(a)
	e.finishSync(a)
}

// rebuildBoundary recomputes the boundary set, the per-partition size
// counters and the pending-unassigned set from scratch over the current
// snapshot. With Parallelism > 1 the scan is sharded by arc count;
// per-worker lists merged in shard order reproduce the sequential
// ascending-id layout exactly (see parallel.go).
func (e *Engine) rebuildBoundary(a *partition.Assignment) {
	n := e.csr.Order()
	e.growTo(n)
	e.growSizes(a.P)
	e.trackedP = a.P
	for q := range e.partSizes {
		e.partSizes[q] = 0
	}
	e.boundary = e.boundary[:0]
	e.listDirty = false
	if e.procs > 1 && n >= parBoundaryMin {
		e.rebuildBoundaryPar(a)
	} else {
		for v := 0; v < n; v++ {
			member := e.isBoundary(graph.Vertex(v), a)
			e.inBoundary[v] = member
			if member {
				e.boundary = append(e.boundary, graph.Vertex(v))
			}
			want := e.attrOf(graph.Vertex(v), a)
			e.sizeAttr[v] = want
			if want >= 0 {
				e.partSizes[want]++
			}
			e.collectPending(graph.Vertex(v), a, &e.pendingNew)
		}
	}
	copy(e.prevPart[:n], a.Part[:n])
}

// attrOf returns the partition v should be size-counted under: its
// assigned partition when live, none otherwise (partition.SizesInto's
// exact rule).
func (e *Engine) attrOf(v graph.Vertex, a *partition.Assignment) int32 {
	if !e.csr.Live[v] {
		return -1
	}
	if p := a.Part[v]; p >= 0 {
		return p
	}
	return -1
}

// moveAttr moves v's size attribution to its current partition,
// applying the count adjustment to sizes — e.partSizes on the
// sequential path, a worker-private delta array on the parallel one, so
// the attribution rule has exactly one copy. The caller must own v
// (sequential pass, disjoint shard, or won claim).
func (e *Engine) moveAttr(v graph.Vertex, a *partition.Assignment, sizes []int) {
	want := e.attrOf(v, a)
	if old := e.sizeAttr[v]; want != old {
		if old >= 0 {
			sizes[old]--
		}
		if want >= 0 {
			sizes[want]++
		}
		e.sizeAttr[v] = want
	}
}

// collectPending records v into dst (e.pendingNew on the sequential
// path, a worker-private buffer on the parallel one) for the next
// delta-aware assign call when it needs phase-1 attention: live but
// Unassigned (a new vertex), or dead with a stale assignment left
// behind (to be normalized). The flag is cleared when assign consumes
// the entry. The caller must own v (sequential pass, disjoint shard, or
// won claim).
func (e *Engine) collectPending(v graph.Vertex, a *partition.Assignment, dst *[]graph.Vertex) {
	if e.inPending[v] {
		return
	}
	live := e.csr.Live[v]
	p := a.Part[v]
	if (live && p < 0) || (!live && p >= 0) {
		e.inPending[v] = true
		*dst = append(*dst, v)
	}
}

// isBoundary reports whether v is live with ≥1 foreign neighbor.
func (e *Engine) isBoundary(v graph.Vertex, a *partition.Assignment) bool {
	if !e.csr.Live[v] {
		return false
	}
	pv := a.Part[v]
	for _, u := range e.csr.Row(v) {
		if a.Part[u] != pv {
			return true
		}
	}
	return false
}

// recompute re-evaluates v's boundary membership, size attribution and
// pending status, at most once per sync.
func (e *Engine) recompute(v graph.Vertex, a *partition.Assignment) {
	if !e.stamps.TryMark(v) {
		return
	}
	e.moveAttr(v, a, e.partSizes)
	e.collectPending(v, a, &e.pendingNew)
	now := e.isBoundary(v, a)
	if now == e.inBoundary[v] {
		return
	}
	e.inBoundary[v] = now
	if now {
		e.boundary = append(e.boundary, v)
	} else {
		e.listDirty = true
	}
}

// diffAssignment re-examines every vertex whose partition changed since
// the last sync, plus its neighbors (whose boundary status depends on it).
// With Parallelism > 1 the O(n) diff scan is sharded; vertices are
// claimed through the atomic recompute stamp so each is re-examined by
// exactly one worker (see parallel.go).
func (e *Engine) diffAssignment(a *partition.Assignment) {
	if e.procs > 1 && e.csr.Order() >= parBoundaryMin {
		e.diffAssignmentPar(a)
		return
	}
	n := e.csr.Order()
	for v := 0; v < n; v++ {
		if a.Part[v] == e.prevPart[v] {
			continue
		}
		e.recompute(graph.Vertex(v), a)
		for _, u := range e.csr.Row(graph.Vertex(v)) {
			e.recompute(u, a)
		}
	}
}

// finishSync compacts the boundary list and records the assignment.
func (e *Engine) finishSync(a *partition.Assignment) {
	if e.listDirty {
		kept := e.boundary[:0]
		for _, v := range e.boundary {
			if e.inBoundary[v] {
				kept = append(kept, v)
			}
		}
		e.boundary = kept
		e.listDirty = false
	}
	n := e.csr.Order()
	copy(e.prevPart[:n], a.Part[:n])
}

// cutStatsInto syncs and fills dst with cutset statistics served from
// the maintained boundary set — bit-identical to partition.Cut(e.g, a),
// floats included, at O(Σ deg(boundary)) cost (see CutSeededInto).
// perPart is the engine-owned PerPart arena for this report slot.
func (e *Engine) cutStatsInto(dst *partition.CutStats, perPart *[]float64, a *partition.Assignment) {
	e.sync(a)
	seeds := e.sortedBoundary()
	*perPart = partition.CutSeededInto(dst, *perPart, e.csr, a, seeds, e.partSizes)
	e.cutIncremental++
}

// cutWeight syncs and returns the current total cut weight from the
// boundary set — the refinement driver's per-round poll, bit-identical
// to partition.Cut(e.g, a).TotalWeight.
func (e *Engine) cutWeight(a *partition.Assignment) float64 {
	e.sync(a)
	seeds := e.sortedBoundary()
	e.cutIncremental++
	return partition.CutSeededWeight(e.csr, a, seeds)
}

// Cut syncs and reports cutset statistics for the engine's graph under
// a, maintained incrementally (or via the full rescan when
// Options.FullRefresh is set). The result's PerPart is an engine-owned
// arena overwritten by the next Cut call (a previously returned
// Stats.CutBefore/CutAfter is not affected); the scalar fields are
// plain values. It is bit-identical to partition.Cut(e.Graph(), a).
func (e *Engine) Cut(a *partition.Assignment) partition.CutStats {
	if e.closed {
		return partition.CutStats{}
	}
	if e.opt.FullRefresh {
		return partition.Cut(e.g, a)
	}
	var st partition.CutStats
	e.cutStatsInto(&st, &e.cutPPQ, a)
	return st
}

// Layer runs the boundary-seeded layering kernel over the engine's
// snapshot. The result is owned by the engine's scratch and invalidated by
// the next Layer call.
func (e *Engine) Layer(ctx context.Context, a *partition.Assignment) (*layering.Result, error) {
	if e.closed {
		return nil, ErrClosed
	}
	e.sync(a)
	return e.lay.LayerSeeded(ctx, e.csr, a, e.boundary)
}

// Gains runs the boundary-seeded refinement gains kernel over the engine's
// snapshot. The result is owned by the engine's scratch and invalidated by
// the next Gains call.
func (e *Engine) Gains(a *partition.Assignment, strict bool) (*refine.Candidates, error) {
	if e.closed {
		return nil, ErrClosed
	}
	e.sync(a)
	return e.gain.GainsSeeded(e.csr, a, strict, e.boundary)
}

// Repartition updates assignment a in place so it covers the engine's
// graph with balanced partitions and a small cutset, reusing the old
// partitioning. Vertices beyond a's original coverage — and any vertex
// explicitly set to partition.Unassigned — are treated as new. Repeated
// calls reuse the engine's snapshot, boundary set and scratch arenas.
//
// The context is honored throughout: between stages, per layering BFS
// level, and inside the simplex pivot loops. A done context aborts with
// an error matching cancel.ErrCanceled that wraps context.Cause; the
// assignment is never left mid-move — every vertex stays validly
// assigned (though possibly unbalanced) after an abort.
//
// The returned *Stats is an arena owned by the engine: it is
// overwritten by the next Repartition call. Use Stats.Clone to retain
// one (a shallow copy is not enough — Stages, WorkerBusy, the cut
// PerPart vectors and Refine all point into the arena).
func (e *Engine) Repartition(ctx context.Context, a *partition.Assignment) (*Stats, error) {
	if e.closed {
		return nil, ErrClosed
	}
	e.stats.reset()
	st := &e.stats
	opt := e.opt
	e.group.Reset()
	basePatched, baseCutInc := e.csrPatched, e.cutIncremental
	baseLPPar := e.lpParallel()
	baseLPFall := e.lpFallbacks()
	tStart := time.Now()
	defer func() {
		st.Elapsed = time.Since(tStart)
		st.CSRPatched = e.csrPatched - basePatched
		st.CutIncremental = e.cutIncremental - baseCutInc
		st.LPParallel = e.lpParallel() - baseLPPar
		st.MWUFallbacks = e.lpFallbacks() - baseLPFall
		for _, sg := range st.Stages {
			st.LPIterations += sg.LPPivots
		}
		if st.Refine != nil {
			st.LPIterations += st.Refine.Iterations
		}
		st.Parallelism = e.procs
		if e.procs > 1 {
			st.WorkerBusy = append(st.WorkerBusy[:0], e.group.Times()...)
		}
	}()

	if err := cancel.Check(ctx, "repartition"); err != nil {
		return st, err
	}
	t0 := time.Now()
	e.emit(Event{Kind: EventStart, Phase: PhaseAssign})
	assigned, fallbacks, err := e.assign(a)
	if err != nil {
		e.emit(Event{Kind: EventEnd, Phase: PhaseAssign, Elapsed: time.Since(t0)})
		return st, err
	}
	st.NewAssigned = assigned
	st.ClusterFallbacks = fallbacks
	st.AssignTime = time.Since(t0)
	e.emit(Event{Kind: EventEnd, Phase: PhaseAssign, Moved: assigned, Elapsed: st.AssignTime})
	if e.opt.FullRefresh {
		st.CutBefore = partition.Cut(e.g, a)
	} else {
		e.cutStatsInto(&st.CutBefore, &e.cutPPB, a)
	}

	if opt.Multilevel.Enabled {
		if err := e.runMultilevel(ctx, a, st); err != nil {
			return st, err
		}
	}

	if cap(e.targets) < a.P {
		e.targets = make([]int, a.P)
	}
	e.targets = partition.TargetsInto(e.targets, e.g.NumVertices(), a.P)
	targets := e.targets
	if cap(e.sizes) < a.P {
		e.sizes = make([]int, a.P)
	}
	solver := opt.solver()
	for stage := 0; stage < opt.maxStages(); stage++ {
		if err := cancel.Check(ctx, "balance stage"); err != nil {
			return st, err
		}
		sizes := a.SizesInto(e.sizes[:a.P], e.g)
		if maxAbsDev(sizes, targets) <= opt.Tolerance {
			break
		}
		tL := time.Now()
		e.emit(Event{Kind: EventStart, Phase: PhaseLayer, Stage: stage + 1})
		lay, err := e.Layer(ctx, a)
		if err != nil {
			// Close the span even on abort so observers pairing start/end
			// events never leak an open span.
			e.emit(Event{Kind: EventEnd, Phase: PhaseLayer, Stage: stage + 1, Elapsed: time.Since(tL)})
			return st, err
		}
		dL := time.Since(tL)
		st.LayerTime += dL
		e.emit(Event{Kind: EventEnd, Phase: PhaseLayer, Stage: stage + 1, Elapsed: dL})

		tB := time.Now()
		e.emit(Event{Kind: EventStart, Phase: PhaseBalance, Stage: stage + 1})
		stageStat, ok, err := balanceStage(ctx, a, lay, sizes, targets, solver, opt.epsMax(), opt.Tolerance, &e.balArena, &e.flowBuf)
		dB := time.Since(tB)
		st.BalanceTime += dB
		if err != nil || !ok {
			e.emit(Event{Kind: EventEnd, Phase: PhaseBalance, Stage: stage + 1, Elapsed: dB})
			if err != nil {
				return st, err
			}
			return st, fmt.Errorf("%w (stage %d, sizes %v)", ErrNeedRepartition, stage, sizes)
		}
		st.Stages = append(st.Stages, stageStat)
		st.BalanceMoved += stageStat.Moved
		e.emit(Event{Kind: EventEnd, Phase: PhaseBalance, Stage: stage + 1,
			Epsilon: stageStat.Epsilon, Moved: stageStat.Moved, Elapsed: dB})
		if stageStat.Moved == 0 {
			// A feasible stage that moved nothing makes no progress: either
			// the targets are met (checked at the top of the loop) or every
			// residual surplus rounded to zero under the relaxation — in
			// both cases iterating further changes nothing.
			break
		}
	}
	sizes := a.SizesInto(e.sizes[:a.P], e.g)
	if maxAbsDev(sizes, targets) > opt.Tolerance {
		return st, fmt.Errorf("%w (after %d stages, sizes %v)", ErrNeedRepartition, len(st.Stages), sizes)
	}

	if opt.Refine {
		tR := time.Now()
		e.emit(Event{Kind: EventStart, Phase: PhaseRefine})
		// New already resolved RefineOptions.Solver to a (possibly
		// shared) session; it is never nil here.
		ro := opt.RefineOptions
		if opt.Observer != nil && ro.OnRound == nil {
			ro.OnRound = func(round, moved int) {
				e.emit(Event{Kind: EventRound, Phase: PhaseRefine, Stage: round, Moved: moved})
			}
		}
		rst, err := e.runRefine(ctx, a, ro)
		st.RefineTime = time.Since(tR)
		st.Refine = rst
		moved := 0
		if rst != nil {
			moved = rst.Moved
		}
		e.emit(Event{Kind: EventEnd, Phase: PhaseRefine, Moved: moved, Elapsed: st.RefineTime})
		if err != nil {
			return st, err
		}
	}
	if e.opt.FullRefresh {
		st.CutAfter = partition.Cut(e.g, a)
	} else {
		e.cutStatsInto(&st.CutAfter, &e.cutPPA, a)
	}
	return st, nil
}

// balanceStage runs one layer→LP→move stage, escalating ε until
// feasible. Formulations go through the engine's reused arena, so a
// steady-state stage allocates nothing building its LP — and because
// the ε escalation and successive stages only change RHS and bounds
// over an unchanged pair structure, a warm-started solver resumes each
// of these solves from the previous basis.
func balanceStage(ctx context.Context, a *partition.Assignment, lay *layering.Result, sizes, targets []int, solver lp.Solver, epsMax float64, tol int, ar *balance.Arena, flowBuf *[]balance.Flow) (StageStats, bool, error) {
	for eps := 1.0; eps <= epsMax; eps++ {
		m, err := ar.FormulateTol(lay.Delta, sizes, targets, eps, tol)
		if err != nil {
			return StageStats{}, false, err
		}
		flows, sol, err := balance.SolveInto(ctx, m, solver, *flowBuf)
		if flows != nil {
			*flowBuf = flows // keep the grown backing array for the next stage
		}
		if err != nil {
			return StageStats{}, false, err
		}
		if sol.Status != lp.Optimal {
			continue // relax further
		}
		moved, err := balance.Apply(a, lay, flows)
		if err != nil {
			return StageStats{}, false, err
		}
		vars, cons := lp.DenseSize(m.Prob)
		maxDelta := 0
		for _, row := range lay.Delta {
			for _, d := range row {
				if d > maxDelta {
					maxDelta = d
				}
			}
		}
		return StageStats{
			Epsilon:  eps,
			Moved:    moved,
			LPVars:   vars,
			LPCons:   cons,
			LPPivots: sol.Iterations,
			MaxDelta: maxDelta,
		}, true, nil
	}
	return StageStats{}, false, nil
}

// runRefine is the engine's phase 4: the shared refine.Drive loop fed
// with boundary-seeded gain scans and boundary-seeded per-round cut
// polls, formulating into the engine's reused LP arena and keeping the
// best-seen assignment in the engine's reused best-part arena.
func (e *Engine) runRefine(ctx context.Context, a *partition.Assignment, opt refine.Options) (*refine.Stats, error) {
	opt.Arena = &e.refArena
	if !e.opt.FullRefresh {
		if e.refCut == nil {
			e.refCut = func() float64 { return e.cutWeight(e.refA) }
		}
		opt.CutWeight = e.refCut
	}
	e.refA = a
	st, best, err := refine.Drive(ctx, e.g, a, opt, func(strict bool) (*refine.Candidates, error) {
		return e.Gains(a, strict)
	}, e.bestPart)
	e.refA = nil
	e.bestPart = best
	return st, err
}

// Assign implements phase 1: every live vertex of g that a leaves
// Unassigned is mapped to the partition of the nearest assigned vertex.
// New vertices unreachable from any assigned vertex are grouped into
// connected clusters, each placed on the currently least-loaded partition
// (the paper's fallback rule). Returns the number of vertices assigned and
// the number of fallback clusters.
func Assign(g *graph.Graph, a *partition.Assignment) (assigned, clusterFallbacks int, err error) {
	a.Grow(g.Order())
	hasOld := false
	for v := 0; v < g.Order(); v++ {
		if g.Alive(graph.Vertex(v)) && a.Part[v] >= 0 {
			hasOld = true
			break
		}
	}
	if !hasOld {
		return 0, 0, errNoOldVertices
	}
	// Clear assignments of dead vertices (deleted since last time).
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) {
			a.Part[v] = partition.Unassigned
		}
	}

	winner, _ := g.NearestLabeled(a.Part)
	var orphans []graph.Vertex
	for v := 0; v < g.Order(); v++ {
		if !g.Alive(graph.Vertex(v)) || a.Part[v] >= 0 {
			continue
		}
		if winner[v] >= 0 {
			a.Part[v] = winner[v]
			assigned++
		} else {
			orphans = append(orphans, graph.Vertex(v))
		}
	}
	if len(orphans) == 0 {
		return assigned, 0, nil
	}

	// Disconnected new clusters: place each whole component on the
	// least-loaded partition.
	sub, _, newToOld := g.InducedSubgraph(orphans)
	comp, nc := sub.Components()
	sizes := a.Sizes(g)
	clusters := make([][]graph.Vertex, nc)
	for sv, c := range comp {
		if c >= 0 {
			clusters[c] = append(clusters[c], newToOld[sv])
		}
	}
	for _, cluster := range clusters {
		best := 0
		for q := 1; q < a.P; q++ {
			if sizes[q] < sizes[best] {
				best = q
			}
		}
		for _, v := range cluster {
			a.Part[v] = int32(best)
			assigned++
		}
		sizes[best] += len(cluster)
		clusterFallbacks++
	}
	return assigned, clusterFallbacks, nil
}

func maxAbsDev(sizes, targets []int) int {
	d := 0
	for i := range sizes {
		dev := sizes[i] - targets[i]
		if dev < 0 {
			dev = -dev
		}
		if dev > d {
			d = dev
		}
	}
	return d
}
